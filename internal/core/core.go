// Package core implements the paper's primary contribution: the DUP
// (Dynamic-tree based Update Propagation) tree-maintenance algorithm of
// Figure 3, as a pure per-node state machine.
//
// Each node keeps a subscriber list recording, for each of its downstream
// branches in the index search tree, the nearest node interested in the
// index (possibly itself). Nodes whose list has at least one entry form a
// "virtual path" toward the root; nodes that are the root with subscribers,
// that hold two or more entries (branch points), or whose only entry is
// themselves (leaf subscribers) form the DUP tree, across which index
// updates are pushed directly — skipping the uninterested chains in
// between.
//
// The state machine is transport-agnostic: handlers mutate local state and
// append the upstream messages the node must send to a caller-owned slice.
// Both the discrete-event simulator (dup/internal/sim) and the live
// goroutine network (dup/internal/live) drive it; they differ only in how
// those messages are delivered and how interest/failure detection is
// triggered.
package core

import (
	"fmt"
	"slices"
)

// ActionKind identifies an upstream message a node must send after a state
// transition.
type ActionKind uint8

const (
	// SendSubscribe asks the upstream node to process subscribe(Subject).
	SendSubscribe ActionKind = iota
	// SendUnsubscribe asks the upstream node to process
	// unsubscribe(Subject).
	SendUnsubscribe
	// SendSubstitute asks the upstream node to replace Old with New in its
	// subscriber list.
	SendSubstitute
)

// String returns the action kind name.
func (k ActionKind) String() string {
	switch k {
	case SendSubscribe:
		return "subscribe"
	case SendUnsubscribe:
		return "unsubscribe"
	case SendSubstitute:
		return "substitute"
	}
	return fmt.Sprintf("action(%d)", uint8(k))
}

// Action is one upstream message emitted by a handler. The host delivers it
// to the node's current parent in the index search tree.
type Action struct {
	Kind    ActionKind
	Subject int // subscribe/unsubscribe subject
	Old     int // substitute: entry to remove
	New     int // substitute: entry to insert
}

// String renders the action for traces and test failure messages.
func (a Action) String() string {
	if a.Kind == SendSubstitute {
		return fmt.Sprintf("substitute(%d,%d)", a.Old, a.New)
	}
	return fmt.Sprintf("%s(%d)", a.Kind, a.Subject)
}

// State is one node's DUP protocol state. Create it with NewState or, for
// a whole tree, NewStates; the zero value is unusable because the node id
// 0 would be ambiguous.
type State struct {
	self int
	root bool
	list []int // subscriber list, insertion-ordered, no duplicates
}

// NewState returns the DUP state for node self. isRoot marks the authority
// node, which absorbs subscriptions instead of forwarding them.
func NewState(self int, isRoot bool) *State {
	return &State{self: self, root: isRoot}
}

// NewStates returns the DUP states of nodes 0..n-1, with node root as the
// authority, in one slice whose subscriber lists share one backing array.
// Node i's list starts in a window of room(i) entries, cap-clipped so that
// growing past it reallocates node i's list alone and never writes into
// node i+1's window. A host that sizes room(i) to the node's downstream
// branches plus itself keeps every list inside its window. Address the
// elements in place (&states[i]): a copied State shares its list with the
// original.
func NewStates(n, root int, room func(int) int) []State {
	states := make([]State, n)
	total := 0
	for i := range states {
		total += room(i)
	}
	buf := make([]int, total)
	off := 0
	for i := range states {
		end := off + room(i)
		states[i] = State{self: i, root: i == root, list: buf[off:off:end]}
		off = end
	}
	return states
}

// Self returns the node id this state belongs to.
func (s *State) Self() int { return s.self }

// IsRoot reports whether this node is the authority node.
func (s *State) IsRoot() bool { return s.root }

// Len returns the subscriber-list length.
func (s *State) Len() int { return len(s.list) }

// Subscribers returns a copy of the subscriber list in insertion order.
func (s *State) Subscribers() []int {
	return s.AppendSubscribers(nil)
}

// AppendSubscribers appends the subscriber list, in insertion order, to
// dst and returns it, letting the journal refill one buffer per key
// instead of allocating per record.
func (s *State) AppendSubscribers(dst []int) []int {
	return append(dst, s.list...)
}

// EqualSubscribers reports whether the subscriber list equals other, entry
// by entry in insertion order, without copying it: the live network's
// journal asks after every lane wake-up whether the list moved.
func (s *State) EqualSubscribers(other []int) bool {
	return slices.Equal(s.list, other)
}

// Contains reports whether n is in the subscriber list.
func (s *State) Contains(n int) bool {
	for _, v := range s.list {
		if v == n {
			return true
		}
	}
	return false
}

// Interested reports whether this node has registered its own interest
// (i.e. it is in its own subscriber list).
func (s *State) Interested() bool { return s.Contains(s.self) }

// OnVirtualPath reports whether the node has any subscriber — i.e. whether
// it lies on a virtual path (or in the DUP tree itself).
func (s *State) OnVirtualPath() bool { return len(s.list) > 0 }

// InTree reports whether the node is part of the DUP tree and therefore
// participates in update propagation: the root with at least one
// subscriber, any node with two or more entries (a branch point), or a
// node whose only entry is itself (a leaf subscriber). A non-root node
// whose single entry is another node is merely on the virtual path.
func (s *State) InTree() bool {
	switch {
	case s.root:
		return len(s.list) >= 1
	case len(s.list) >= 2:
		return true
	case len(s.list) == 1:
		return s.list[0] == s.self
	}
	return false
}

// PushTargets returns the nodes this node must push a fresh index to: every
// subscriber-list entry except itself. Only nodes for which InTree reports
// true push; virtual-path intermediates never receive pushes in the first
// place.
func (s *State) PushTargets() []int {
	return s.AppendPushTargets(make([]int, 0, len(s.list)))
}

// AppendPushTargets appends the push targets to dst and returns it,
// letting hot callers reuse one scratch buffer across calls instead of
// allocating per push.
func (s *State) AppendPushTargets(dst []int) []int {
	for _, v := range s.list {
		if v != s.self {
			dst = append(dst, v)
		}
	}
	return dst
}

// Representative returns the node id this node has announced upstream: the
// node itself when it is in the DUP tree (or wants to be), otherwise its
// single subscriber. It is used during failure recovery, when a node must
// re-announce its branch to a new parent. It panics when the list is empty
// — a node with no subscribers represents nothing.
func (s *State) Representative() int {
	switch {
	case len(s.list) == 0:
		panic(fmt.Sprintf("core: node %d has no subscribers, no representative", s.self))
	case len(s.list) == 1:
		return s.list[0]
	default:
		return s.self
	}
}

// add appends n if absent and reports whether the list changed.
func (s *State) add(n int) bool {
	if s.Contains(n) {
		return false
	}
	s.list = append(s.list, n)
	return true
}

// remove deletes n if present, preserving order, and reports whether the
// list changed.
func (s *State) remove(n int) bool {
	for i, v := range s.list {
		if v == n {
			s.list = append(s.list[:i], s.list[i+1:]...)
			return true
		}
	}
	return false
}

// BecomeInterested is AppendBecomeInterested(nil).
func (s *State) BecomeInterested() []Action { return s.AppendBecomeInterested(nil) }

// HandleSubscribe is AppendHandleSubscribe(nil, nj).
func (s *State) HandleSubscribe(nj int) []Action { return s.AppendHandleSubscribe(nil, nj) }

// LoseInterest is AppendLoseInterest(nil).
func (s *State) LoseInterest() []Action { return s.AppendLoseInterest(nil) }

// HandleUnsubscribe is AppendHandleUnsubscribe(nil, nj).
func (s *State) HandleUnsubscribe(nj int) []Action { return s.AppendHandleUnsubscribe(nil, nj) }

// HandleSubstitute is AppendHandleSubstitute(nil, old, new).
func (s *State) HandleSubstitute(old, new int) []Action {
	return s.AppendHandleSubstitute(nil, old, new)
}

// The Append handlers below append the transition's upstream actions (at
// most one) to dst and return it, never touching dst[:len(dst)]. A host
// that passes one scratch slice per call drives the state machine without
// allocating.

// AppendBecomeInterested implements Figure 3 (A): the node's interest
// policy has fired and it is not yet in its own subscriber list, so it
// subscribes itself. The appended actions (if any) go to the node's
// parent. Calling it while already subscribed is a no-op.
func (s *State) AppendBecomeInterested(dst []Action) []Action {
	if s.Interested() {
		return dst
	}
	return s.processSubscribe(dst, s.self)
}

// AppendHandleSubscribe implements Figure 3 (B): subscribe(nj) arrived
// from a downstream branch.
func (s *State) AppendHandleSubscribe(dst []Action, nj int) []Action {
	return s.processSubscribe(dst, nj)
}

// AppendLoseInterest implements Figure 3 (D): the node's interest policy
// reports it is no longer interested. Calling it while not subscribed is a
// no-op.
func (s *State) AppendLoseInterest(dst []Action) []Action {
	if !s.Interested() {
		return dst
	}
	return s.processUnsubscribe(dst, s.self)
}

// AppendHandleUnsubscribe implements Figure 3 (E): unsubscribe(nj) arrived
// from a downstream branch (or was synthesised by failure detection).
func (s *State) AppendHandleUnsubscribe(dst []Action, nj int) []Action {
	return s.processUnsubscribe(dst, nj)
}

// AppendHandleSubstitute implements Figure 3 (C): replace old with new in
// the subscriber list; nodes not in the DUP tree forward the message
// upstream.
func (s *State) AppendHandleSubstitute(dst []Action, old, new int) []Action {
	if old == new {
		return dst
	}
	if !s.remove(old) {
		// The substitution raced with another membership change (the old
		// entry was already unsubscribed here). Treating the message as a
		// fresh subscription for the new entry re-announces the branch
		// upstream and keeps the new subscriber reachable; a plain
		// (S − {old}) ∪ {new} would leave it a silent orphan.
		return s.processSubscribe(dst, new)
	}
	s.add(new)
	if s.root {
		return dst
	}
	if len(s.list) == 1 {
		// Not a DUP-tree node: pass the substitution along the virtual path.
		return append(dst, Action{Kind: SendSubstitute, Old: old, New: new})
	}
	return dst
}

// processSubscribe is Figure 3's process_subscribe(nj, ni) with ni == s.
func (s *State) processSubscribe(dst []Action, nj int) []Action {
	if s.root {
		s.add(nj)
		return dst
	}
	var prev int
	hadOne := len(s.list) == 1
	if hadOne {
		prev = s.list[0] // "temporarily save the old subscriber id"
	}
	if !s.add(nj) {
		return dst // duplicate subscription (message retry); nothing changed
	}
	switch len(s.list) {
	case 1:
		// Had no subscriber, now has one: extend the virtual path upstream.
		return append(dst, Action{Kind: SendSubscribe, Subject: nj})
	case 2:
		// Had one subscriber, now two: this node becomes a DUP-tree branch
		// point and replaces its old announcement with itself. When the old
		// announcement was already this node (a leaf subscriber gaining a
		// downstream subscriber), the substitution would be a no-op and is
		// suppressed — see DESIGN.md.
		if prev == s.self {
			return dst
		}
		return append(dst, Action{Kind: SendSubstitute, Old: prev, New: s.self})
	default:
		// Already a DUP-tree node; no upstream change needed.
		return dst
	}
}

// processUnsubscribe is Figure 3's process_unsubscribe(nj, ni) with ni == s.
func (s *State) processUnsubscribe(dst []Action, nj int) []Action {
	if !s.remove(nj) {
		return dst // duplicate or raced unsubscription; nothing to do
	}
	if s.root {
		return dst
	}
	switch len(s.list) {
	case 0:
		// No subscribers left: clear this node's stretch of virtual path.
		// The paper's pseudocode sends unsubscribe(Ni) — the node's own id
		// — but upstream lists hold the *announced* subscriber, which for a
		// node emptying from one entry is exactly the entry just removed
		// (the paper's prose agrees: "nodes along the path remove N6 from
		// their subscriber list"). We therefore forward the subject, not
		// the forwarder's id. See the erratum note in DESIGN.md.
		return append(dst, Action{Kind: SendUnsubscribe, Subject: nj})
	case 1:
		// One subscriber left: this node leaves the DUP tree and hands its
		// position to the remaining subscriber. When the remaining
		// subscriber is this node itself (it stays a leaf subscriber) the
		// substitution would be a no-op and is suppressed.
		if s.list[0] == s.self {
			return dst
		}
		return append(dst, Action{Kind: SendSubstitute, Old: s.self, New: s.list[0]})
	default:
		// Still a branch point; remains in the DUP tree.
		return dst
	}
}

// Reset clears the subscriber list (used when a node re-joins after
// failure or transfers its role).
func (s *State) Reset() { s.list = s.list[:0] }

// AdoptSubscriber installs nj directly into the subscriber list without
// emitting upstream traffic. It is used by topology maintenance: when a new
// node splices into a virtual path, its downstream neighbour's announcement
// is transferred to it ("N3' inserts N6 to its subscriber list, and becomes
// an intermediate node in the virtual path", Section III-C), and when a
// leaving node's role transfers to a neighbour.
func (s *State) AdoptSubscriber(nj int) { s.add(nj) }

// DropSubscriber removes nj without emitting upstream traffic, for
// topology maintenance. It reports whether nj was present.
func (s *State) DropSubscriber(nj int) bool { return s.remove(nj) }

// SetRoot marks or unmarks this node as the authority node (used when the
// root fails and a neighbour takes over its indices).
func (s *State) SetRoot(isRoot bool) { s.root = isRoot }
