// Package dupscheme adapts the DUP tree-maintenance state machine
// (dup/internal/core) to the discrete-event simulator's scheme interface.
//
// It wires the paper's Figure 3 handlers to protocol messages: interest
// changes trigger BecomeInterested/LoseInterest, subscribe/unsubscribe/
// substitute messages travel one index-search-tree hop at a time, and
// index updates travel directly between DUP-tree neighbours — one overlay
// hop per edge of the dynamic update propagation tree, which is the
// short-cut that gives DUP its advantage.
package dupscheme

import (
	"fmt"

	"dup/internal/core"
	"dup/internal/proto"
	"dup/internal/scheme"
)

// DUP is the dynamic-tree based update propagation scheme.
type DUP struct {
	h          scheme.Host
	st         []core.State // from core.NewStates; address as &d.st[n]
	lastPushed []int64      // highest version each node has forwarded on

	// Scratch buffers reused across calls. Send never re-enters the
	// scheme synchronously, so neither is live when the next handler runs.
	targets []int         // push targets
	acts    []core.Action // upstream actions of one transition

	// HopByHopPush disables DUP's direct pushes: updates are routed along
	// the index search tree through every intermediate node, charging one
	// hop per tree edge. This is the "no short-cut" ablation; with it DUP
	// degenerates to roughly CUP's push cost while keeping DUP's
	// subscriber bookkeeping.
	HopByHopPush bool
}

// New returns a DUP scheme instance.
func New() *DUP { return &DUP{} }

// NewHopByHop returns the ablation variant with direct pushes disabled.
func NewHopByHop() *DUP { return &DUP{HopByHopPush: true} }

// Name returns the scheme's display name.
func (d *DUP) Name() string {
	if d.HopByHopPush {
		return "DUP-hopbyhop"
	}
	return "DUP"
}

// Attach implements scheme.Scheme.
func (d *DUP) Attach(h scheme.Host) {
	d.h = h
	t := h.Tree()
	n := t.N()
	// One list entry per downstream branch plus the node itself.
	d.st = core.NewStates(n, t.Root(), func(i int) int { return len(t.Children(i)) + 1 })
	d.lastPushed = make([]int64, n)
	for i := range d.lastPushed {
		d.lastPushed[i] = -1
	}
}

// State exposes node n's protocol state for tests and trace tooling.
func (d *DUP) State(n int) *core.State { return &d.st[n] }

// emit converts the state machine's upstream actions, which the caller
// appended to d.acts[:0], into messages to node from's parent, and keeps
// their backing array as the next call's scratch.
func (d *DUP) emit(from int, acts []core.Action) {
	d.acts = acts[:0]
	if len(acts) == 0 {
		return
	}
	parent := d.h.Tree().Parent(from)
	if parent == -1 {
		panic(fmt.Sprintf("dupscheme: root emitted upstream actions %v", acts))
	}
	for _, a := range acts {
		m := proto.NewMessage()
		m.To = parent
		switch a.Kind {
		case core.SendSubscribe:
			m.Kind, m.Subject = proto.KindSubscribe, a.Subject
		case core.SendUnsubscribe:
			m.Kind, m.Subject = proto.KindUnsubscribe, a.Subject
		case core.SendSubstitute:
			m.Kind, m.Old, m.New = proto.KindSubstitute, a.Old, a.New
		}
		d.h.Send(m)
	}
}

// OnAccess implements scheme.Scheme: Figure 3 (A) — refresh access
// tracking (done by the host), then subscribe if the interest policy
// fires. On a miss the subscription rides the forwarded request ("it
// either sends out subscribe(N6) explicitly or piggybacks subscribe(N6) by
// setting the interest bit in the request packet it sends out").
func (d *DUP) OnAccess(n int, miss bool) *proto.Piggyback {
	s := &d.st[n]
	if s.Interested() || d.h.IntervalCount(n) <= d.h.Threshold() {
		return nil
	}
	acts := s.AppendBecomeInterested(d.acts[:0])
	if miss {
		return d.emitWithPiggy(n, acts)
	}
	d.emit(n, acts)
	return nil
}

// OnPiggyback implements scheme.Scheme: a piggybacked subscribe(Subject)
// is processed by every node the carrying request visits, exactly as an
// explicit subscribe message would be, and keeps riding while the state
// machine wants to extend the virtual path further upstream.
func (d *DUP) OnPiggyback(n int, p *proto.Piggyback) *proto.Piggyback {
	if p.Kind != proto.KindSubscribe {
		panic(fmt.Sprintf("dupscheme: unexpected piggyback %v", p.Kind))
	}
	return d.emitWithPiggy(n, d.st[n].AppendHandleSubscribe(d.acts[:0], p.Subject))
}

// emitWithPiggy sends acts upstream like emit, except that a subscribe
// action is returned as a piggyback (to ride the in-flight request) rather
// than transmitted. A transition emits at most one action, so a subscribe
// is the whole of acts.
func (d *DUP) emitWithPiggy(n int, acts []core.Action) *proto.Piggyback {
	if len(acts) == 1 && acts[0].Kind == core.SendSubscribe {
		d.acts = acts[:0]
		return &proto.Piggyback{Kind: proto.KindSubscribe, Subject: acts[0].Subject}
	}
	d.emit(n, acts)
	return nil
}

// OnIntervalEnd implements scheme.Scheme: Figure 3 (D) — nodes whose query
// count over the finished interval fell to the threshold or below lose
// interest.
func (d *DUP) OnIntervalEnd() {
	for n := range d.st {
		s := &d.st[n]
		if s.Interested() && d.h.IntervalCount(n) <= d.h.Threshold() {
			d.emit(n, s.AppendLoseInterest(d.acts[:0]))
		}
	}
}

// OnRefresh implements scheme.Scheme: the root pushes the fresh version
// across the DUP tree.
func (d *DUP) OnRefresh(v int64, expiry float64) {
	d.pushFrom(d.h.Tree().Root(), v, expiry)
}

// pushFrom sends version v to every push target of node n. The scratch
// target buffer is safe to reuse because Send never re-enters the scheme
// synchronously.
func (d *DUP) pushFrom(n int, v int64, expiry float64) {
	d.targets = d.st[n].AppendPushTargets(d.targets[:0])
	for _, target := range d.targets {
		m := proto.NewMessage()
		m.Kind, m.To, m.Origin = proto.KindPush, target, n
		m.Version, m.Expiry = v, expiry
		if d.HopByHopPush {
			d.h.SendVia(m, d.treeDistance(n, target))
		} else {
			d.h.Send(m)
		}
	}
}

// treeDistance returns the number of index-search-tree edges between an
// ancestor and a descendant (push targets are always descendants).
func (d *DUP) treeDistance(anc, desc int) int {
	t := d.h.Tree()
	dist := t.Depth(desc) - t.Depth(anc)
	if dist <= 0 {
		panic(fmt.Sprintf("dupscheme: push target %d not below %d", desc, anc))
	}
	return dist
}

// OnNodeDown implements scheme.Scheme: the paper's Section III-C failure
// handling, with the failed node's former parent acting as the node that
// takes over its position.
//
//   - Case 1 (not on any virtual path): nothing below fires.
//   - Case 2 (last node of a virtual path, e.g. N6): the upstream
//     virtual-path neighbour — here the parent, which listed f — detects
//     the failure and processes unsubscribe(f) per algorithm (E).
//   - Cases 3 and 4 (inside a virtual path / a DUP-tree branch point):
//     each former child that has subscribers re-announces its
//     representative to the replacing node with a subscribe, exactly as
//     the paper prescribes for the downstream neighbours of N5 or N3.
//   - Case 5 (root failure) is outside the simulator's churn model; the
//     live network implements it.
func (d *DUP) OnNodeDown(f, oldParent int, formerChildren []int) {
	if d.st[f].IsRoot() {
		panic("dupscheme: root failure is not supported by the simulator")
	}
	if p := &d.st[oldParent]; p.Contains(f) {
		d.emit(oldParent, p.AppendHandleUnsubscribe(d.acts[:0], f))
	}
	for _, child := range formerChildren {
		if d.st[child].OnVirtualPath() {
			m := proto.NewMessage()
			m.Kind, m.To = proto.KindSubscribe, oldParent
			m.Subject = d.st[child].Representative()
			d.h.Send(m)
		}
	}
	d.st[f].Reset()
	d.lastPushed[f] = -1
}

// OnNodeUp implements scheme.Scheme: the node rejoins blank, as a leaf
// outside every virtual path, so nothing specific needs to be done (the
// paper's "if the arriving node falls outside of any virtual path, nothing
// specific needs to be done").
func (d *DUP) OnNodeUp(f, parent int) {
	d.st[f].Reset()
	d.lastPushed[f] = -1
}

// OnMessage implements scheme.Scheme.
func (d *DUP) OnMessage(m *proto.Message) {
	n := m.To
	s := &d.st[n]
	switch m.Kind {
	case proto.KindSubscribe:
		d.emit(n, s.AppendHandleSubscribe(d.acts[:0], m.Subject))
	case proto.KindUnsubscribe:
		d.emit(n, s.AppendHandleUnsubscribe(d.acts[:0], m.Subject))
	case proto.KindSubstitute:
		d.emit(n, s.AppendHandleSubstitute(d.acts[:0], m.Old, m.New))
	case proto.KindPush:
		d.h.Cache(n).Store(m.Version, m.Expiry)
		// Forward across the DUP tree only if this node has not already
		// forwarded this version. The monotone guard both deduplicates
		// concurrent pushes and breaks propagation cycles that transient
		// subscriber states could otherwise create. It is deliberately
		// independent of the cache: a node whose cache was refreshed by a
		// passing reply must still forward the push to its subscribers.
		if m.Version > d.lastPushed[n] {
			d.lastPushed[n] = m.Version
			d.pushFrom(n, m.Version, m.Expiry)
		}
	default:
		panic(fmt.Sprintf("dupscheme: unexpected message %v", m))
	}
}
