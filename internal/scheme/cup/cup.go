// Package cup implements the Controlled Update Propagation baseline
// (Roussopoulos & Baker, USENIX ATC 2003) as the DUP paper models it: the
// authority node pushes fresh indices hop-by-hop down the index search
// tree, and each node forwards the update only to children that have
// announced their own interest.
//
// Interest uses the same threshold policy as DUP (more than c queries
// received in the last TTL interval) and is announced one hop, to the
// node's parent ("extra messages are used to inform neighbors about their
// interests"); the hops of these announcements are charged to CUP's query
// cost. Because the push travels strictly hop-by-hop through interested
// nodes, an interested node is cut off from updates whenever any node
// between it and the root is not interested itself — the structural
// limitation Section II-B criticises and DUP removes with its dynamic
// tree: "If intermediate nodes decide to stop forwarding the index, N6 is
// cut off from the update information. This incurs long delay and high
// cost when N6 needs to access the index." The same property explains
// Figure 7: with large Zipf θ the hot nodes are scattered and the
// intermediate nodes between them and the root are rarely interested, so
// CUP's pushes rarely reach the hot spots.
package cup

import (
	"fmt"
	"slices"

	"dup/internal/proto"
	"dup/internal/scheme"
)

// CUP is the controlled update propagation scheme.
type CUP struct {
	h          scheme.Host
	interested []bool  // self-interest per node
	childOK    [][]int // per node: children that announced interest, sorted
	announced  []bool  // wanting state the parent last heard
	lastPushed []int64 // highest version each node has forwarded on

	// Cutoff selects the degenerate variant Section II-B warns about: a
	// node announces only its own interest, so a push stops at the first
	// hop whose node is not interested itself and deep interested nodes
	// are cut off from updates ("if intermediate nodes decide to stop
	// forwarding the index, N6 is cut off from the update information").
	// The default (false) is the paper's evaluated CUP: branch interest is
	// aggregated upstream and the push travels hop-by-hop through
	// intermediate nodes toward the interested ones. Intermediates
	// "receive the updated index even if they do not need it" — they
	// forward without storing; only interested nodes refresh their caches.
	Cutoff bool

	// IntermediateCache makes uninterested intermediate nodes store the
	// indices they forward (a calibration variant; off by default — see
	// the CUP substitution note in DESIGN.md).
	IntermediateCache bool
}

// New returns the paper's CUP: branch-aggregated interest, hop-by-hop
// pushes through (non-caching) intermediates.
func New() *CUP { return &CUP{} }

// NewCutoff returns the cut-off variant of Section II-B's criticism.
func NewCutoff() *CUP { return &CUP{Cutoff: true} }

// Name returns "CUP", or "CUP-cutoff" for the cut-off variant.
func (c *CUP) Name() string {
	if c.Cutoff {
		return "CUP-cutoff"
	}
	return "CUP"
}

// Attach implements scheme.Scheme.
func (c *CUP) Attach(h scheme.Host) {
	t := h.Tree()
	n := t.N()
	c.h = h
	c.interested = make([]bool, n)
	// Node i's registrations start in a cap-clipped window of one entry
	// per child, carved from one block: a node that gains children
	// through churn outgrows its window into a private array and never
	// writes into its neighbour's.
	c.childOK = make([][]int, n)
	block := make([]int, n)
	off := 0
	for i := range c.childOK {
		end := off + len(t.Children(i))
		c.childOK[i] = block[off:off:end]
		off = end
	}
	c.announced = make([]bool, n)
	c.lastPushed = make([]int64, n)
	for i := range c.lastPushed {
		c.lastPushed[i] = -1
	}
}

// Interested reports whether node n currently registers interest (tests).
func (c *CUP) Interested(n int) bool { return c.interested[n] }

// registerChild records child's interest announcement at node n. The
// per-node registration list is kept sorted so that pushDown fans out in a
// deterministic child order — map iteration here would make same-seed runs
// diverge in their (time, seq) event interleaving.
func (c *CUP) registerChild(n, child int) {
	s := c.childOK[n]
	i, found := slices.BinarySearch(s, child)
	if found {
		return
	}
	c.childOK[n] = slices.Insert(s, i, child)
}

// unregisterChild removes child's registration at node n, if present.
func (c *CUP) unregisterChild(n, child int) {
	if i, found := slices.BinarySearch(c.childOK[n], child); found {
		c.childOK[n] = slices.Delete(c.childOK[n], i, i+1)
	}
}

// wanting reports whether node n should be announced to its parent: its
// own interest, plus — except in the cut-off variant — any announced
// branch.
func (c *CUP) wanting(n int) bool {
	if c.interested[n] {
		return true
	}
	return !c.Cutoff && len(c.childOK[n]) > 0
}

// reconcile sends an interest or uninterest announcement to node n's parent
// whenever n's wanting state no longer matches what was last announced.
func (c *CUP) reconcile(n int) {
	if c.h.Tree().IsRoot(n) {
		return
	}
	w := c.wanting(n)
	if w == c.announced[n] {
		return
	}
	c.announced[n] = w
	kind := proto.KindInterest
	if !w {
		kind = proto.KindUninterest
	}
	m := proto.NewMessage()
	m.Kind, m.To, m.Subject = kind, c.h.Tree().Parent(n), n
	c.h.Send(m)
}

// OnAccess implements scheme.Scheme: the interest-gain policy, evaluated on
// every query arrival. When the query is a miss the announcement rides the
// forwarded request as an interest bit instead of costing a hop.
func (c *CUP) OnAccess(n int, miss bool) *proto.Piggyback {
	if c.interested[n] || c.h.IntervalCount(n) <= c.h.Threshold() {
		return nil
	}
	c.interested[n] = true
	if miss && !c.h.Tree().IsRoot(n) && !c.announced[n] {
		c.announced[n] = true
		return &proto.Piggyback{Kind: proto.KindInterest, Subject: n}
	}
	c.reconcile(n)
	return nil
}

// OnPiggyback implements scheme.Scheme: an interest bit from child
// m.Subject is absorbed here (this node is the child's parent). In the
// aggregated variant, this node's own announcement may continue riding the
// same request when its wanting state just flipped.
func (c *CUP) OnPiggyback(n int, p *proto.Piggyback) *proto.Piggyback {
	if p.Kind != proto.KindInterest {
		panic(fmt.Sprintf("cup: unexpected piggyback %v", p.Kind))
	}
	c.registerChild(n, p.Subject)
	if c.h.Tree().IsRoot(n) {
		return nil
	}
	if c.wanting(n) && !c.announced[n] {
		c.announced[n] = true
		return &proto.Piggyback{Kind: proto.KindInterest, Subject: n}
	}
	return nil
}

// OnIntervalEnd implements scheme.Scheme: the interest-loss policy. A node
// whose query count over the interval that just finished did not exceed
// the threshold stops being interested.
func (c *CUP) OnIntervalEnd() {
	for n := range c.interested {
		if c.interested[n] && c.h.IntervalCount(n) <= c.h.Threshold() {
			c.interested[n] = false
			c.reconcile(n)
		}
	}
}

// OnRefresh implements scheme.Scheme: the root starts the hop-by-hop push
// toward its interested children.
func (c *CUP) OnRefresh(v int64, expiry float64) {
	root := c.h.Tree().Root()
	c.lastPushed[root] = v
	c.pushDown(root, v, expiry)
}

// pushDown forwards version v to every interested child of node n, in
// ascending child order (deterministic fan-out).
func (c *CUP) pushDown(n int, v int64, expiry float64) {
	for _, child := range c.childOK[n] {
		m := proto.NewMessage()
		m.Kind, m.To, m.Origin = proto.KindPush, child, n
		m.Version, m.Expiry = v, expiry
		c.h.Send(m)
	}
}

// OnNodeDown implements scheme.Scheme: the failed node's registrations are
// purged and its former children re-announce themselves to their new
// parent, so interested branches keep receiving pushes.
func (c *CUP) OnNodeDown(f, oldParent int, formerChildren []int) {
	// The failed node's own state is gone.
	c.interested[f] = false
	c.announced[f] = false
	c.childOK[f] = c.childOK[f][:0]
	c.lastPushed[f] = -1
	// Its registration at the parent is stale.
	c.unregisterChild(oldParent, f)
	// Children that believe they are registered re-announce over their new
	// edge (one charged hop each); the parent's own announcement state is
	// reconciled afterwards.
	for _, child := range formerChildren {
		if c.announced[child] {
			m := proto.NewMessage()
			m.Kind, m.To, m.Subject = proto.KindInterest, oldParent, child
			c.h.Send(m)
		}
	}
	c.reconcile(oldParent)
}

// OnNodeUp implements scheme.Scheme: the node rejoins blank.
func (c *CUP) OnNodeUp(f, parent int) {
	c.interested[f] = false
	c.announced[f] = false
	c.childOK[f] = c.childOK[f][:0]
	c.lastPushed[f] = -1
}

// OnMessage implements scheme.Scheme.
func (c *CUP) OnMessage(m *proto.Message) {
	n := m.To
	switch m.Kind {
	case proto.KindInterest:
		c.registerChild(n, m.Subject)
		c.reconcile(n)
	case proto.KindUninterest:
		c.unregisterChild(n, m.Subject)
		c.reconcile(n)
	case proto.KindPush:
		// Only a node that needs the index stores it; an uninterested
		// intermediate receives and forwards without refreshing its cache.
		// The monotone forward guard deduplicates pushes that raced with
		// interest changes, independently of the cache (which passing
		// replies also refresh).
		if c.interested[n] || c.IntermediateCache {
			c.h.Cache(n).Store(m.Version, m.Expiry)
		}
		if m.Version > c.lastPushed[n] {
			c.lastPushed[n] = m.Version
			c.pushDown(n, m.Version, m.Expiry)
		}
	default:
		panic(fmt.Sprintf("cup: unexpected message %v", m))
	}
}
