// Package scheme defines the contract between the discrete-event simulator
// and an index maintenance scheme (PCX, CUP, DUP), plus the PCX baseline
// itself.
//
// The simulator owns everything the three schemes share — the index search
// tree, per-node caches, path caching of replies, access tracking and the
// authority node's refresh schedule — and calls into the scheme at the
// points where the paper's three schemes differ: when a query arrives at a
// node, when a scheme-specific message is delivered, when the root issues
// a fresh index version, and at TTL interval boundaries.
package scheme

import (
	"dup/internal/cache"
	"dup/internal/index"
	"dup/internal/proto"
	"dup/internal/topology"
)

// Host is the simulator-side interface a scheme programs against.
type Host interface {
	// Tree returns the index search tree.
	Tree() *topology.Tree
	// Now returns the current simulated time in seconds.
	Now() float64
	// Send transmits m to m.To after a random per-hop delay, charging one
	// hop of m.Kind to the cost metric. Ownership of m transfers to the
	// host: schemes should obtain messages from proto.NewMessage and must
	// not retain or reuse m after Send — the simulator host recycles it
	// through the message pool once delivery completes.
	Send(m *proto.Message)
	// SendVia transmits m like Send but charges and delays `hops` hops.
	// It models a message routed hop-by-hop through `hops` tree edges
	// without simulating the intermediate arrivals (used by the
	// hop-by-hop push ablation).
	SendVia(m *proto.Message, hops int)
	// Cache returns node n's index cache slot.
	Cache(n int) *cache.Entry
	// Authority describes the index refresh schedule.
	Authority() *index.Authority
	// Threshold returns the interest threshold c: a node is interested
	// when it received more than c queries in the last TTL interval.
	Threshold() int
	// IntervalCount returns the queries node n has received so far in the
	// current TTL interval (Section III-B access tracking).
	IntervalCount(n int) int
}

// Scheme is one index maintenance scheme under evaluation.
type Scheme interface {
	// Name returns the scheme's display name ("PCX", "CUP", "DUP").
	Name() string
	// Attach gives the scheme its host. It is called once, before any
	// event, and must initialise all per-node state.
	Attach(h Host)
	// OnAccess runs after a query (locally generated or a forwarded
	// request) has been counted at node n. Schemes use it to evaluate the
	// interest policy. miss reports whether the query will be forwarded
	// onward (node n holds no valid copy); in that case the scheme may
	// return a control item to piggyback on the forwarded request — its
	// hops are free, exactly as the paper's interest bit. With miss false
	// the return value must be nil and any control traffic is sent
	// explicitly.
	OnAccess(n int, miss bool) *proto.Piggyback
	// OnPiggyback delivers a piggybacked control item to node n, which a
	// carrying request is visiting. The scheme returns the item that
	// should continue riding upstream, or nil when it was absorbed.
	// Follow-up messages of other kinds (e.g. a substitution) are sent
	// explicitly via the host.
	OnPiggyback(n int, p *proto.Piggyback) *proto.Piggyback
	// OnMessage delivers a scheme-specific message (push, subscribe,
	// unsubscribe, substitute, interest, uninterest) to node m.To.
	// Requests and replies never reach the scheme; the host serves them.
	// The host releases m to the message pool when OnMessage returns, so
	// schemes must not retain m.
	OnMessage(m *proto.Message)
	// OnRefresh runs when the authority node issues version v (expiring
	// at expiry). Push-based schemes start their propagation here.
	OnRefresh(v int64, expiry float64)
	// OnIntervalEnd runs at each TTL interval boundary, before the host
	// resets the per-node access counters. Schemes evaluate interest loss
	// here.
	OnIntervalEnd()
	// OnNodeDown runs when node f's failure has been detected and the
	// underlying network has repaired routing: f's former children (those
	// it had at detection time) are now children of oldParent. The scheme
	// repairs its own distribution state following the paper's Section
	// III-C failure cases; any messages it sends are charged as usual.
	// formerChildren is the host's scratch, valid only during the call.
	OnNodeDown(f, oldParent int, formerChildren []int)
	// OnNodeUp runs when node f rejoins the network, blank, as a leaf
	// child of parent.
	OnNodeUp(f, parent int)
}

// PCX is the Path Caching with eXpiration baseline: indices are cached
// passively by every node a reply passes through and evicted when their
// TTL expires. All scheme hooks are no-ops — the host's shared machinery
// (query forwarding, path caching, TTL) is the whole scheme.
type PCX struct{}

// NewPCX returns the PCX baseline scheme.
func NewPCX() *PCX { return &PCX{} }

// Name returns "PCX".
func (*PCX) Name() string { return "PCX" }

// Attach implements Scheme; PCX keeps no state.
func (*PCX) Attach(Host) {}

// OnAccess implements Scheme; PCX has no interest policy.
func (*PCX) OnAccess(int, bool) *proto.Piggyback { return nil }

// OnPiggyback implements Scheme; PCX never creates piggybacks.
func (*PCX) OnPiggyback(int, *proto.Piggyback) *proto.Piggyback {
	panic("pcx: unexpected piggyback")
}

// OnMessage implements Scheme; PCX defines no messages.
func (*PCX) OnMessage(m *proto.Message) {
	panic("pcx: unexpected message " + m.String())
}

// OnRefresh implements Scheme; PCX never pushes.
func (*PCX) OnRefresh(int64, float64) {}

// OnIntervalEnd implements Scheme.
func (*PCX) OnIntervalEnd() {}

// OnNodeDown implements Scheme; PCX keeps no distribution state.
func (*PCX) OnNodeDown(int, int, []int) {}

// OnNodeUp implements Scheme.
func (*PCX) OnNodeUp(int, int) {}
