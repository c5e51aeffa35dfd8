// Package dissem generalises DUP from index updates to topic-based data
// dissemination — the extension the paper's conclusion proposes ("The idea
// of DUP may be applied to more general data dissemination scenarios. We
// plan to extend DUP to a general data dissemination platform in overlay
// networks").
//
// Each topic hashes to a rendezvous node on a Chord ring (its authority).
// The Chord lookup paths toward the rendezvous form the topic's search
// tree; subscribers announce themselves with the DUP protocol, leaving
// virtual paths and a per-topic dynamic dissemination tree. Publishing an
// event delivers it from the rendezvous across that tree with one-hop
// short-cuts — the platform also reports what a SCRIBE-style multicast
// (hop-by-hop down the same search tree, the paper's related-work
// comparison) would have cost for the same subscriber set.
//
// The platform is deterministic and synchronous: tree-maintenance messages
// are delivered in order per operation, so tests can assert exact hop
// counts. The live goroutine network (dup/internal/live) demonstrates the
// same state machine under real concurrency.
package dissem

import (
	"fmt"
	"sort"

	"dup/internal/core"
	"dup/internal/overlay/chord"
	"dup/internal/rng"
	"dup/internal/topology"
)

// Event is one published datum delivered to subscribers.
type Event struct {
	Topic   string
	Seq     int64
	Payload string
}

// Delivery summarises one publication.
type Delivery struct {
	Event Event
	// Receivers are the ring ids that received the event (subscribers
	// plus the dissemination tree's branch points), in ascending order.
	Receivers []chord.ID
	// Subscribers is how many of the receivers had subscribed.
	Subscribers int
	// Hops is the number of dissemination-tree edges used (DUP's cost).
	Hops int
	// ScribeHops is what a SCRIBE-style hop-by-hop multicast down the
	// search tree would have used for the same subscriber set.
	ScribeHops int
}

// Platform is a DUP-based pub/sub system over a Chord ring.
type Platform struct {
	ring   *chord.Ring
	ids    []chord.ID
	topics map[string]*topic

	// ControlHops accumulates tree-maintenance hops (subscribe,
	// unsubscribe, substitute) across all topics.
	ControlHops int
}

// topic is the per-topic dissemination state.
type topic struct {
	name   string
	tree   *topology.Tree
	ringID []chord.ID       // tree id -> ring id
	treeID map[chord.ID]int // ring id -> tree id
	states []core.State     // per tree id, from core.NewStates
	subbed map[int]bool     // tree ids subscribed
	seq    int64
	inbox  map[int][]Event // delivered events per tree id (for tests/demos)
}

// NewPlatform bootstraps a ring of n nodes.
func NewPlatform(n int, seed uint64) (*Platform, error) {
	if n < 1 {
		return nil, fmt.Errorf("dissem: need at least one node, got %d", n)
	}
	ring := chord.Bootstrap(n, rng.New(seed), 8)
	return &Platform{
		ring:   ring,
		ids:    ring.IDs(),
		topics: make(map[string]*topic),
	}, nil
}

// Nodes returns the ring ids of all nodes in ascending order.
func (p *Platform) Nodes() []chord.ID { return append([]chord.ID(nil), p.ids...) }

// Rendezvous returns the ring id of the topic's rendezvous (authority)
// node.
func (p *Platform) Rendezvous(topicName string) (chord.ID, error) {
	t, err := p.topic(topicName)
	if err != nil {
		return 0, err
	}
	return t.ringID[0], nil
}

// topic lazily builds the per-topic search tree and protocol state.
func (p *Platform) topic(name string) (*topic, error) {
	if t, ok := p.topics[name]; ok {
		return t, nil
	}
	tree, ringID, err := p.ring.ExtractTree(name)
	if err != nil {
		return nil, fmt.Errorf("dissem: topic %q: %w", name, err)
	}
	t := &topic{
		name:   name,
		tree:   tree,
		ringID: ringID,
		treeID: make(map[chord.ID]int, len(ringID)),
		states: core.NewStates(tree.N(), 0, func(i int) int { return len(tree.Children(i)) + 1 }),
		subbed: make(map[int]bool),
		inbox:  make(map[int][]Event),
	}
	for i, id := range ringID {
		t.treeID[id] = i
	}
	p.topics[name] = t
	return t, nil
}

// resolve maps a ring id to its tree id within the topic.
func (t *topic) resolve(node chord.ID) (int, error) {
	id, ok := t.treeID[node]
	if !ok {
		return 0, fmt.Errorf("dissem: node %d not on the ring", node)
	}
	return id, nil
}

// deliverUp walks tree-maintenance actions toward the root, counting one
// control hop per action hop, exactly like the simulator does.
func (p *Platform) deliverUp(t *topic, from int, acts []core.Action) {
	parent := t.tree.Parent(from)
	for _, a := range acts {
		if parent == -1 {
			panic(fmt.Sprintf("dissem: root emitted %v", a))
		}
		p.ControlHops++
		var next []core.Action
		switch a.Kind {
		case core.SendSubscribe:
			next = t.states[parent].HandleSubscribe(a.Subject)
		case core.SendUnsubscribe:
			next = t.states[parent].HandleUnsubscribe(a.Subject)
		case core.SendSubstitute:
			next = t.states[parent].HandleSubstitute(a.Old, a.New)
		}
		p.deliverUp(t, parent, next)
	}
}

// Subscribe registers node for the topic. It returns the number of
// control hops the subscription cost. Subscribing the rendezvous node
// itself is a no-op (it receives everything anyway).
func (p *Platform) Subscribe(node chord.ID, topicName string) (int, error) {
	t, err := p.topic(topicName)
	if err != nil {
		return 0, err
	}
	id, err := t.resolve(node)
	if err != nil {
		return 0, err
	}
	before := p.ControlHops
	if id != 0 && !t.subbed[id] {
		t.subbed[id] = true
		p.deliverUp(t, id, t.states[id].BecomeInterested())
	}
	return p.ControlHops - before, nil
}

// Unsubscribe withdraws node's subscription, returning the control hops
// used.
func (p *Platform) Unsubscribe(node chord.ID, topicName string) (int, error) {
	t, err := p.topic(topicName)
	if err != nil {
		return 0, err
	}
	id, err := t.resolve(node)
	if err != nil {
		return 0, err
	}
	before := p.ControlHops
	if t.subbed[id] {
		delete(t.subbed, id)
		p.deliverUp(t, id, t.states[id].LoseInterest())
	}
	return p.ControlHops - before, nil
}

// Subscribers returns the current subscribers of the topic in ascending
// ring-id order.
func (p *Platform) Subscribers(topicName string) []chord.ID {
	t, ok := p.topics[topicName]
	if !ok {
		return nil
	}
	out := make([]chord.ID, 0, len(t.subbed))
	for id := range t.subbed {
		out = append(out, t.ringID[id])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Publish delivers payload to every subscriber of the topic across its
// dissemination tree and returns the delivery summary.
func (p *Platform) Publish(topicName, payload string) (Delivery, error) {
	t, err := p.topic(topicName)
	if err != nil {
		return Delivery{}, err
	}
	t.seq++
	ev := Event{Topic: topicName, Seq: t.seq, Payload: payload}

	received := map[int]bool{}
	hops := 0
	var walk func(node int)
	walk = func(node int) {
		for _, target := range t.states[node].PushTargets() {
			hops++
			if received[target] {
				continue // defensive; a consistent tree never revisits
			}
			received[target] = true
			t.inbox[target] = append(t.inbox[target], ev)
			walk(target)
		}
	}
	walk(0)

	d := Delivery{Event: ev, Hops: hops, ScribeHops: p.scribeHops(t)}
	for id := range received {
		d.Receivers = append(d.Receivers, t.ringID[id])
		if t.subbed[id] {
			d.Subscribers++
		}
	}
	sort.Slice(d.Receivers, func(i, j int) bool { return d.Receivers[i] < d.Receivers[j] })
	return d, nil
}

// scribeHops computes the hop-by-hop multicast cost for the current
// subscriber set: the edges of the union of root-to-subscriber paths in
// the topic's search tree (SCRIBE forwards through every intermediate
// node, like CUP — the paper's related-work comparison).
func (p *Platform) scribeHops(t *topic) int {
	onPath := map[int]bool{}
	for id := range t.subbed {
		for _, n := range t.tree.PathToRoot(id) {
			if n != 0 {
				onPath[n] = true
			}
		}
	}
	return len(onPath)
}

// Inbox returns the events delivered to node for the topic, in order.
func (p *Platform) Inbox(node chord.ID, topicName string) []Event {
	t, ok := p.topics[topicName]
	if !ok {
		return nil
	}
	id, err := t.resolve(node)
	if err != nil {
		return nil
	}
	return append([]Event(nil), t.inbox[id]...)
}

// Route returns the index-search-tree path for the topic from node toward
// the rendezvous: the nodes a query visits, starting with node itself and
// ending at the rendezvous. Higher layers (the directory service) route
// lookups along it.
func (p *Platform) Route(node chord.ID, topicName string) ([]chord.ID, error) {
	t, err := p.topic(topicName)
	if err != nil {
		return nil, err
	}
	id, err := t.resolve(node)
	if err != nil {
		return nil, err
	}
	ids := t.tree.PathToRoot(id)
	out := make([]chord.ID, len(ids))
	for i, n := range ids {
		out[i] = t.ringID[n]
	}
	return out, nil
}

// TreeInfo describes a topic's search tree (for demos and tests).
func (p *Platform) TreeInfo(topicName string) (nodes, maxDepth int, meanDepth float64, err error) {
	t, err := p.topic(topicName)
	if err != nil {
		return 0, 0, 0, err
	}
	return t.tree.N(), t.tree.MaxDepth(), t.tree.MeanDepth(), nil
}

// Topic is a handle on one named topic, mirroring the live Network's
// Key(k) handle: every per-topic operation hangs off it, so call sites
// name the topic once instead of threading the string through each call.
// The handle is a cheap value — it holds no topic state of its own, and
// any number of handles on the same name address the same topic.
type Topic struct {
	p    *Platform
	name string
}

// Topic returns a handle on the named topic. The topic's search tree and
// protocol state are built lazily on first use, exactly as with the
// string-keyed Platform methods.
func (p *Platform) Topic(name string) *Topic { return &Topic{p: p, name: name} }

// Name returns the topic name the handle addresses.
func (t *Topic) Name() string { return t.name }

// Rendezvous returns the ring id of the topic's rendezvous (authority)
// node.
func (t *Topic) Rendezvous() (chord.ID, error) { return t.p.Rendezvous(t.name) }

// Subscribe registers node for the topic, returning the control hops the
// subscription cost.
func (t *Topic) Subscribe(node chord.ID) (int, error) { return t.p.Subscribe(node, t.name) }

// Unsubscribe withdraws node's subscription, returning the control hops
// used.
func (t *Topic) Unsubscribe(node chord.ID) (int, error) { return t.p.Unsubscribe(node, t.name) }

// Subscribers returns the topic's current subscribers in ascending
// ring-id order.
func (t *Topic) Subscribers() []chord.ID { return t.p.Subscribers(t.name) }

// Publish delivers payload to every subscriber across the topic's
// dissemination tree and returns the delivery summary.
func (t *Topic) Publish(payload string) (Delivery, error) { return t.p.Publish(t.name, payload) }

// Inbox returns the events delivered to node for the topic, in order.
func (t *Topic) Inbox(node chord.ID) []Event { return t.p.Inbox(node, t.name) }

// Route returns the topic's index-search-tree path from node toward the
// rendezvous.
func (t *Topic) Route(node chord.ID) ([]chord.ID, error) { return t.p.Route(node, t.name) }

// TreeInfo describes the topic's search tree.
func (t *Topic) TreeInfo() (nodes, maxDepth int, meanDepth float64, err error) {
	return t.p.TreeInfo(t.name)
}
