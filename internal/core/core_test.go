package core

import (
	"testing"
	"testing/quick"

	"dup/internal/rng"
	"dup/internal/topology"
)

// Node ids in the paper tree: N1=0 N2=1 N3=2 N4=3 N5=4 N6=5 N7=6 N8=7.

// sameSet reports whether two subscriber lists hold the same members,
// ignoring order (the list order is insertion-dependent and unspecified).
func sameSet(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	m := map[int]bool{}
	for _, v := range got {
		m[v] = true
	}
	for _, v := range want {
		if !m[v] {
			return false
		}
	}
	return true
}

// TestPaperFigure2a replays Figure 2 (a): only N6 is interested. The DUP
// tree must contain exactly N1 and N6, with N2, N3, N5 on the virtual path,
// and one push hop must deliver the update.
func TestPaperFigure2a(t *testing.T) {
	n := newNet(t, topology.Paper())
	n.becomeInterested(5)

	for _, vp := range []int{1, 2, 4} {
		if got := n.listOf(vp); got != "[5]" {
			t.Errorf("virtual-path node %d list = %v, want [5]", vp, got)
		}
		if n.states[vp].InTree() {
			t.Errorf("virtual-path node %d should not be in the DUP tree", vp)
		}
	}
	if !n.states[0].InTree() || !n.states[5].InTree() {
		t.Error("root and N6 should be in the DUP tree")
	}
	received, hops := n.push()
	if hops != 1 {
		t.Errorf("push used %d hops, want 1 (direct N1->N6)", hops)
	}
	if !received[5] || len(received) != 1 {
		t.Errorf("push received by %v, want only N6", received)
	}
	n.checkInvariants()
}

// TestPaperFigure2b adds N4: N1 must push to N3 (the nearest common parent)
// which forwards to N4 and N6 — three hops versus CUP's five and PCX's ten.
func TestPaperFigure2b(t *testing.T) {
	n := newNet(t, topology.Paper())
	n.becomeInterested(5)
	n.becomeInterested(3)

	if got := n.listOf(0); got != "[2]" {
		t.Errorf("root list = %v, want [2] (N3 substituted for N6)", got)
	}
	if got := n.listOf(2); got != "[5 3]" {
		t.Errorf("N3 list = %v, want [5 3]", got)
	}
	if !n.states[2].InTree() {
		t.Error("N3 must be a DUP-tree branch point")
	}
	received, hops := n.push()
	if hops != 3 {
		t.Errorf("push used %d hops, want 3 (the paper's worked example)", hops)
	}
	for _, want := range []int{2, 3, 5} {
		if !received[want] {
			t.Errorf("push missed node %d", want)
		}
	}
	n.checkInvariants()
}

// TestPaperFigure2c removes N6 again: the root must push directly to N4 and
// the virtual path through N5 must be cleared.
func TestPaperFigure2c(t *testing.T) {
	n := newNet(t, topology.Paper())
	n.becomeInterested(5)
	n.becomeInterested(3)
	n.loseInterest(5)

	if got := n.listOf(0); got != "[3]" {
		t.Errorf("root list = %v, want [3] (direct push to N4)", got)
	}
	for _, cleared := range []int{4, 5} {
		if n.states[cleared].OnVirtualPath() {
			t.Errorf("node %d still on virtual path: %v", cleared, n.listOf(cleared))
		}
	}
	received, hops := n.push()
	if hops != 1 || !received[3] {
		t.Errorf("push = %v in %d hops, want direct N1->N4", received, hops)
	}
	n.checkInvariants()
}

// TestPaperSection3BDescendants replays the prose walk-through at the end
// of Section III-B: with N4 and N6 in the tree, N5 joining replaces N6 as a
// subscriber of N3 and lists N6 as its own subscriber.
func TestPaperSection3BDescendants(t *testing.T) {
	n := newNet(t, topology.Paper())
	n.becomeInterested(5)
	n.becomeInterested(3)
	n.becomeInterested(4) // N5 joins

	if !sameSet(n.states[2].Subscribers(), []int{3, 4}) {
		t.Errorf("N3 list = %v, want {3,4} (N5 replaced N6)", n.listOf(2))
	}
	if !sameSet(n.states[4].Subscribers(), []int{4, 5}) {
		t.Errorf("N5 list = %v, want {4,5}", n.listOf(4))
	}
	received, hops := n.push()
	// N1->N3 (1), N3->{N5,N4} (2), N5->N6 (1) = 4 hops.
	if hops != 4 {
		t.Errorf("push hops = %d, want 4", hops)
	}
	for _, want := range []int{2, 3, 4, 5} {
		if !received[want] {
			t.Errorf("push missed %d", want)
		}
	}
	n.checkInvariants()

	// For N7 or N8 joining, N6 takes care of them (footnote 1: their
	// subscribe is caught before reaching N3).
	n.becomeInterested(6) // N7
	if !sameSet(n.states[5].Subscribers(), []int{5, 6}) {
		t.Errorf("N6 list = %v, want {5,6}", n.listOf(5))
	}
	if !sameSet(n.states[2].Subscribers(), []int{3, 4}) {
		t.Errorf("N3 list changed to %v; N7's subscribe should have been caught by N6", n.listOf(2))
	}
	n.checkInvariants()
}

// TestLeafGainsSubscriberNoSubstituteStorm verifies the suppressed no-op:
// when leaf subscriber N6 gains downstream subscriber N7, the substitution
// substitute(N6, N6) would change nothing upstream and must not be sent.
func TestLeafGainsSubscriberNoSubstituteStorm(t *testing.T) {
	n := newNet(t, topology.Paper())
	n.becomeInterested(5)
	before := n.hops
	n.becomeInterested(6) // subscribe(6) travels N7->N6 only: one hop
	if got := n.hops - before; got != 1 {
		t.Errorf("N7's subscription cost %d control hops, want 1", got)
	}
	n.checkInvariants()
}

func TestUnsubscribeSubjectPropagates(t *testing.T) {
	// Erratum check: N6's unsubscribe must arrive at tree node N3 still
	// naming N6 (the entry N3 holds), not renamed to N5 as a literal
	// reading of the pseudocode would do.
	n := newNet(t, topology.Paper())
	n.becomeInterested(5)
	n.becomeInterested(3)
	n.loseInterest(5)
	if n.states[2].Contains(5) {
		t.Fatalf("N3 still lists N6 after N6 unsubscribed: %v", n.listOf(2))
	}
	n.checkInvariants()
}

func TestRootInterestIsLocal(t *testing.T) {
	// The authority node can register interest; it must not emit traffic.
	n := newNet(t, topology.Paper())
	n.becomeInterested(0)
	if n.hops != 0 {
		t.Fatalf("root interest cost %d hops", n.hops)
	}
	if got := n.listOf(0); got != "[0]" {
		t.Fatalf("root list = %v", got)
	}
	n.checkInvariants()
}

func TestIdempotentTransitions(t *testing.T) {
	s := NewState(4, false)
	if acts := s.LoseInterest(); acts != nil {
		t.Fatalf("LoseInterest on uninterested node emitted %v", acts)
	}
	acts := s.BecomeInterested()
	if len(acts) != 1 || acts[0].Kind != SendSubscribe || acts[0].Subject != 4 {
		t.Fatalf("BecomeInterested emitted %v", acts)
	}
	if acts := s.BecomeInterested(); acts != nil {
		t.Fatalf("second BecomeInterested emitted %v", acts)
	}
	if acts := s.HandleSubscribe(4); acts != nil {
		t.Fatalf("duplicate subscribe emitted %v", acts)
	}
	if acts := s.HandleUnsubscribe(99); acts != nil {
		t.Fatalf("unsubscribe of unknown node emitted %v", acts)
	}
}

func TestSubstituteMissingOldSelfHeals(t *testing.T) {
	// substitute(5, 9) arriving where 5 was already removed must behave as
	// subscribe(9) so the new entry is announced upstream.
	s := NewState(3, false)
	acts := s.HandleSubstitute(5, 9)
	if len(acts) != 1 || acts[0].Kind != SendSubscribe || acts[0].Subject != 9 {
		t.Fatalf("self-heal emitted %v, want subscribe(9)", acts)
	}
	if !s.Contains(9) {
		t.Fatal("new entry not installed")
	}
}

func TestSubstituteSameOldNewIsNoop(t *testing.T) {
	s := NewState(3, false)
	s.AdoptSubscriber(7)
	if acts := s.HandleSubstitute(7, 7); acts != nil {
		t.Fatalf("identity substitute emitted %v", acts)
	}
	if got := s.Subscribers(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("list mutated: %v", got)
	}
}

func TestSubstituteAtTreeNodeIsCaught(t *testing.T) {
	s := NewState(3, false)
	s.AdoptSubscriber(7)
	s.AdoptSubscriber(8)
	if acts := s.HandleSubstitute(7, 9); acts != nil {
		t.Fatalf("tree node forwarded substitute: %v", acts)
	}
	if !s.Contains(9) || s.Contains(7) {
		t.Fatalf("substitution not applied: %v", s.Subscribers())
	}
}

func TestRepresentative(t *testing.T) {
	s := NewState(3, false)
	s.AdoptSubscriber(7)
	if s.Representative() != 7 {
		t.Fatalf("virtual-path representative = %d, want 7", s.Representative())
	}
	s.AdoptSubscriber(8)
	if s.Representative() != 3 {
		t.Fatalf("tree-node representative = %d, want self", s.Representative())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Representative on empty list did not panic")
		}
	}()
	NewState(1, false).Representative()
}

func TestInTreeClassification(t *testing.T) {
	leaf := NewState(5, false)
	leaf.AdoptSubscriber(5)
	if !leaf.InTree() {
		t.Error("leaf subscriber should be in tree")
	}
	vp := NewState(4, false)
	vp.AdoptSubscriber(5)
	if vp.InTree() {
		t.Error("virtual-path node should not be in tree")
	}
	branch := NewState(2, false)
	branch.AdoptSubscriber(5)
	branch.AdoptSubscriber(3)
	if !branch.InTree() {
		t.Error("branch point should be in tree")
	}
	root := NewState(0, true)
	if root.InTree() {
		t.Error("root without subscribers should not be in tree")
	}
	root.AdoptSubscriber(5)
	if !root.InTree() {
		t.Error("root with a subscriber should be in tree")
	}
	if NewState(9, false).InTree() {
		t.Error("empty non-root state should not be in tree")
	}
}

func TestPushTargetsExcludeSelf(t *testing.T) {
	s := NewState(2, false)
	s.AdoptSubscriber(2)
	s.AdoptSubscriber(5)
	got := s.PushTargets()
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("PushTargets = %v, want [5]", got)
	}
}

func TestEqualSubscribers(t *testing.T) {
	s := NewState(2, false)
	s.AdoptSubscriber(5)
	s.AdoptSubscriber(7)
	for _, c := range []struct {
		other []int
		want  bool
	}{
		{[]int{5, 7}, true},
		{[]int{7, 5}, false}, // insertion order is part of the list
		{[]int{5}, false},
		{[]int{5, 7, 9}, false},
		{nil, false},
	} {
		if got := s.EqualSubscribers(c.other); got != c.want {
			t.Errorf("EqualSubscribers(%v) = %v, want %v", c.other, got, c.want)
		}
	}
	if !NewState(3, false).EqualSubscribers(nil) {
		t.Error("an empty list should equal nil")
	}
}

// TestReadAccessorsAllocs pins the accessors the live network calls per
// push and per lane wake-up at zero allocations.
func TestReadAccessorsAllocs(t *testing.T) {
	s := NewState(2, false)
	s.AdoptSubscriber(2)
	s.AdoptSubscriber(5)
	s.AdoptSubscriber(7)
	last := s.Subscribers()
	scratch := make([]int, 0, 8)
	if allocs := testing.AllocsPerRun(100, func() {
		scratch = s.AppendPushTargets(scratch[:0])
		if !s.EqualSubscribers(last) || len(scratch) != 2 {
			t.Fatal("accessors disagree with the list")
		}
	}); allocs != 0 {
		t.Fatalf("AppendPushTargets + EqualSubscribers allocate %.0f objects, want 0", allocs)
	}
}

func TestResetAndDrop(t *testing.T) {
	s := NewState(2, false)
	s.AdoptSubscriber(5)
	s.AdoptSubscriber(7)
	if !s.DropSubscriber(5) || s.DropSubscriber(5) {
		t.Fatal("DropSubscriber semantics wrong")
	}
	s.Reset()
	if s.Len() != 0 || s.OnVirtualPath() {
		t.Fatal("Reset did not clear state")
	}
}

func TestSetRoot(t *testing.T) {
	s := NewState(2, false)
	s.SetRoot(true)
	if !s.IsRoot() {
		t.Fatal("SetRoot(true) ignored")
	}
	// A root absorbs subscriptions without forwarding.
	if acts := s.HandleSubscribe(7); acts != nil {
		t.Fatalf("promoted root emitted %v", acts)
	}
}

func TestActionStrings(t *testing.T) {
	cases := map[string]Action{
		"subscribe(5)":    {Kind: SendSubscribe, Subject: 5},
		"unsubscribe(6)":  {Kind: SendUnsubscribe, Subject: 6},
		"substitute(5,2)": {Kind: SendSubstitute, Old: 5, New: 2},
	}
	for want, a := range cases {
		if a.String() != want {
			t.Errorf("String() = %q, want %q", a.String(), want)
		}
	}
	if ActionKind(9).String() == "" {
		t.Error("unknown action kind string empty")
	}
}

// TestInvariantsUnderRandomChurnOfInterest is the core property test: on
// random trees, apply random sequences of interest gains and losses with
// synchronous delivery, and verify the full invariant set after every
// operation.
func TestInvariantsUnderRandomChurnOfInterest(t *testing.T) {
	err := quick.Check(func(seed uint64, opsRaw uint8) bool {
		src := rng.New(seed)
		nNodes := src.IntRange(2, 60)
		tree := topology.Generate(nNodes, src.IntRange(1, 5), src.Split())
		n := newNet(t, tree)
		ops := int(opsRaw%120) + 5
		for i := 0; i < ops; i++ {
			node := src.Intn(nNodes)
			if n.interested[node] {
				n.loseInterest(node)
			} else {
				n.becomeInterested(node)
			}
			n.checkInvariants()
		}
		// Drain all interest: every list must empty.
		for node := range n.interested {
			_ = node
		}
		for node := 0; node < nNodes; node++ {
			if n.interested[node] {
				n.loseInterest(node)
			}
		}
		for i, s := range n.states {
			if s.OnVirtualPath() {
				t.Fatalf("node %d list %v not empty after all interest drained", i, s.Subscribers())
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPushCostNeverExceedsCUP verifies the paper's efficiency claim: on any
// quiesced configuration, DUP's push hop count is at most the number of
// index-search-tree edges CUP would traverse (the union of root-to-
// interested-node paths), with equality only when no short-cut exists.
func TestPushCostNeverExceedsCUP(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		nNodes := src.IntRange(2, 80)
		tree := topology.Generate(nNodes, src.IntRange(1, 6), src.Split())
		n := newNet(t, tree)
		count := src.IntRange(1, nNodes)
		for i := 0; i < count; i++ {
			n.becomeInterested(src.Intn(nNodes))
		}
		_, dupHops := n.push()
		// CUP cost: edges in the union of root->interested paths.
		onPath := map[int]bool{}
		for node := range n.interested {
			for _, p := range tree.PathToRoot(node) {
				onPath[p] = true
			}
		}
		cupHops := 0
		for p := range onPath {
			if p != tree.Root() {
				cupHops++ // one edge to its parent
			}
		}
		return dupHops <= cupHops
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSubscribeUnsubscribeCycle(b *testing.B) {
	// One full subscription round trip on the paper tree: N6 gains and
	// loses interest, with synchronous delivery along the path.
	tree := topology.Paper()
	states := make([]*State, tree.N())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for n := range states {
			states[n] = NewState(n, n == 0)
		}
		var deliver func(from int, acts []Action)
		deliver = func(from int, acts []Action) {
			parent := tree.Parent(from)
			for _, a := range acts {
				switch a.Kind {
				case SendSubscribe:
					deliver(parent, states[parent].HandleSubscribe(a.Subject))
				case SendUnsubscribe:
					deliver(parent, states[parent].HandleUnsubscribe(a.Subject))
				case SendSubstitute:
					deliver(parent, states[parent].HandleSubstitute(a.Old, a.New))
				}
			}
		}
		deliver(5, states[5].BecomeInterested())
		deliver(5, states[5].LoseInterest())
	}
}
