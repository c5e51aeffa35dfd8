package core

import (
	"fmt"
	"testing"

	"dup/internal/topology"
)

// net is a synchronous test harness: it owns one State per tree node and
// delivers emitted actions to parents immediately (depth-first), which
// models a network where tree maintenance quiesces between interest
// changes. Asynchronous interleavings are exercised by the discrete-event
// simulator's tests.
type net struct {
	t          *testing.T
	tree       *topology.Tree
	states     []*State
	interested map[int]bool
	hops       int // control-message hops delivered
}

func newNet(t *testing.T, tree *topology.Tree) *net {
	n := &net{t: t, tree: tree, interested: map[int]bool{}}
	block := NewStates(tree.N(), tree.Root(), func(i int) int { return len(tree.Children(i)) + 1 })
	n.states = make([]*State, tree.N())
	for i := range block {
		n.states[i] = &block[i]
	}
	return n
}

// deliver sends each action from node `from` to its parent, recursively.
func (n *net) deliver(from int, acts []Action) {
	parent := n.tree.Parent(from)
	for _, a := range acts {
		if parent == -1 {
			n.t.Fatalf("node %d (root) tried to send %v upstream", from, a)
		}
		n.hops++
		var next []Action
		switch a.Kind {
		case SendSubscribe:
			next = n.states[parent].HandleSubscribe(a.Subject)
		case SendUnsubscribe:
			next = n.states[parent].HandleUnsubscribe(a.Subject)
		case SendSubstitute:
			next = n.states[parent].HandleSubstitute(a.Old, a.New)
		}
		n.deliver(parent, next)
	}
}

func (n *net) becomeInterested(i int) {
	n.interested[i] = true
	n.deliver(i, n.states[i].BecomeInterested())
}

func (n *net) loseInterest(i int) {
	delete(n.interested, i)
	n.deliver(i, n.states[i].LoseInterest())
}

// push simulates one update propagation from the root and returns the set
// of nodes that received the index and the number of push hops used.
func (n *net) push() (received map[int]bool, hops int) {
	received = map[int]bool{}
	var walk func(node int)
	walk = func(node int) {
		for _, target := range n.states[node].PushTargets() {
			hops++
			if received[target] {
				n.t.Fatalf("node %d pushed to %d twice", node, target)
			}
			received[target] = true
			walk(target)
		}
	}
	walk(n.tree.Root())
	return received, hops
}

// checkInvariants asserts the global DUP-tree invariants that must hold
// whenever maintenance traffic has quiesced.
func (n *net) checkInvariants() {
	n.t.Helper()
	for i, s := range n.states {
		// I1a: every non-self entry lies strictly inside a child subtree.
		// I1b: at most one entry per downstream branch (self is its own
		// "branch").
		branches := map[int]int{}
		for _, e := range s.Subscribers() {
			if e == i {
				continue
			}
			if !n.tree.Ancestor(i, e) || e == i {
				n.t.Fatalf("node %d lists %d, which is not a descendant", i, e)
			}
			b := n.tree.ChildToward(i, e)
			if prev, dup := branches[b]; dup {
				n.t.Fatalf("node %d lists %d and %d from the same branch %d", i, prev, e, b)
			}
			branches[b] = e
			// I5: every non-self entry is itself a DUP-tree member.
			if !n.states[e].InTree() {
				n.t.Fatalf("node %d lists %d, which is not in the DUP tree (list %v)",
					i, e, n.states[e].Subscribers())
			}
		}
		// I2: a node has subscribers iff its subtree holds an interested
		// node.
		want := n.subtreeHasInterest(i)
		if got := s.OnVirtualPath(); got != want {
			n.t.Fatalf("node %d on virtual path = %v, want %v (list %v, interested %v)",
				i, got, want, s.Subscribers(), n.interested)
		}
		// Self-entry consistency: a node lists itself iff it is interested.
		if s.Interested() != n.interested[i] {
			n.t.Fatalf("node %d self-subscription %v, interest %v", i, s.Interested(), n.interested[i])
		}
	}
	// I3: a push reaches every interested node.
	received, _ := n.push()
	for i := range n.interested {
		if i != n.tree.Root() && !received[i] {
			n.t.Fatalf("interested node %d missed the push; root list %v",
				i, n.states[0].Subscribers())
		}
	}
	// Conversely every pushed-to node is in the DUP tree.
	for i := range received {
		if !n.states[i].InTree() {
			n.t.Fatalf("push reached %d, which is not a DUP-tree member", i)
		}
	}
}

func (n *net) subtreeHasInterest(i int) bool {
	if n.interested[i] {
		return true
	}
	for _, c := range n.tree.Children(i) {
		if n.subtreeHasInterest(c) {
			return true
		}
	}
	return false
}

// listOf formats a node's subscriber list for assertions.
func (n *net) listOf(i int) string {
	return fmt.Sprint(n.states[i].Subscribers())
}
