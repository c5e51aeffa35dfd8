package core

import (
	"slices"
	"testing"

	"dup/internal/raceflag"
	"dup/internal/rng"
)

// TestAppendHandlersCycleAllocs pins a full membership cycle — subscribe,
// branch, substitute, unsubscribe back to empty — on a NewStates state at
// zero allocations when the caller reuses one dst.
func TestAppendHandlersCycleAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// Node 2 of a star under node 0 with children 5 and 7: a window of 3.
	states := NewStates(8, 0, func(i int) int {
		if i == 2 {
			return 3
		}
		return 1
	})
	s := &states[2]
	dst := make([]Action, 0, 1)
	want := func(step string, a Action) {
		if len(dst) != 1 || dst[0] != a {
			t.Fatalf("%s: actions %v, want [%v]", step, dst, a)
		}
	}
	cycle := func() {
		dst = s.AppendHandleSubscribe(dst[:0], 5)
		want("subscribe(5)", Action{Kind: SendSubscribe, Subject: 5})
		dst = s.AppendHandleSubscribe(dst[:0], 7)
		want("subscribe(7)", Action{Kind: SendSubstitute, Old: 5, New: 2})
		dst = s.AppendBecomeInterested(dst[:0])
		if len(dst) != 0 {
			t.Fatalf("interest at a branch point emitted %v", dst)
		}
		dst = s.AppendHandleSubstitute(dst[:0], 7, 6)
		if len(dst) != 0 {
			t.Fatalf("substitute at a branch point emitted %v", dst)
		}
		dst = s.AppendHandleUnsubscribe(dst[:0], 5)
		if len(dst) != 0 {
			t.Fatalf("unsubscribe leaving two entries emitted %v", dst)
		}
		dst = s.AppendLoseInterest(dst[:0])
		want("lose interest", Action{Kind: SendSubstitute, Old: 2, New: 6})
		dst = s.AppendHandleUnsubscribe(dst[:0], 6)
		want("unsubscribe(6)", Action{Kind: SendUnsubscribe, Subject: 6})
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("membership cycle allocates %.0f objects, want 0", allocs)
	}
	if s.Len() != 0 {
		t.Fatalf("list after the cycle = %v, want empty", s.Subscribers())
	}
}

// TestAppendFormsMatchNilForms drives twin states through the same random
// operations, one through the nil-dst names and one through the Append
// forms with a non-empty prefix in dst. The Append form must return the
// prefix, untouched, followed by exactly what the nil form returns, and the
// twins' lists must stay equal. The Append twin lives in a one-entry
// NewStates window, so its list also crosses the overflow path.
func TestAppendFormsMatchNilForms(t *testing.T) {
	const self = 2
	prefix := []Action{{Kind: SendSubscribe, Subject: 41}, {Kind: SendSubstitute, Old: 42, New: 43}}
	for seed := uint64(1); seed <= 50; seed++ {
		src := rng.New(seed)
		root := seed%5 == 0
		rootID := -1
		if root {
			rootID = self
		}
		plain := NewState(self, root)
		windowed := &NewStates(4, rootID, func(int) int { return 1 })[self]
		dst := make([]Action, len(prefix), len(prefix)+4)
		for op := 0; op < 200; op++ {
			copy(dst, prefix)
			x, y := src.Intn(7), src.Intn(7)
			var nilForm, appended []Action
			switch src.Intn(5) {
			case 0:
				nilForm, appended = plain.BecomeInterested(), windowed.AppendBecomeInterested(dst)
			case 1:
				nilForm, appended = plain.LoseInterest(), windowed.AppendLoseInterest(dst)
			case 2:
				nilForm, appended = plain.HandleSubscribe(x), windowed.AppendHandleSubscribe(dst, x)
			case 3:
				nilForm, appended = plain.HandleUnsubscribe(x), windowed.AppendHandleUnsubscribe(dst, x)
			case 4:
				nilForm, appended = plain.HandleSubstitute(x, y), windowed.AppendHandleSubstitute(dst, x, y)
			}
			if !slices.Equal(dst, prefix) {
				t.Fatalf("seed %d op %d: dst[:len(dst)] overwritten: %v, want %v", seed, op, dst, prefix)
			}
			if !slices.Equal(appended, append(slices.Clip(prefix), nilForm...)) {
				t.Fatalf("seed %d op %d: Append form returned %v, want %v + %v", seed, op, appended, prefix, nilForm)
			}
			if len(nilForm) > 1 {
				t.Fatalf("seed %d op %d: one transition emitted %v", seed, op, nilForm)
			}
			if !windowed.EqualSubscribers(plain.Subscribers()) {
				t.Fatalf("seed %d op %d: lists diverged: %v vs %v", seed, op, windowed.Subscribers(), plain.Subscribers())
			}
		}
	}
}

// TestNewStatesWindows checks the batch constructor: ids and the root flag
// are set, every list starts empty, and overflowing one node's window
// leaves its neighbours' lists unchanged.
func TestNewStatesWindows(t *testing.T) {
	states := NewStates(3, 0, func(int) int { return 2 })
	for i := range states {
		s := &states[i]
		if s.Self() != i || s.IsRoot() != (i == 0) || s.Len() != 0 {
			t.Fatalf("state %d: self %d, root %v, %d entries", i, s.Self(), s.IsRoot(), s.Len())
		}
	}
	states[0].AdoptSubscriber(3)
	states[2].AdoptSubscriber(7)
	states[2].AdoptSubscriber(8)
	for _, v := range []int{10, 11, 12, 13, 14} {
		states[1].AdoptSubscriber(v) // the third entry overflows node 1's window
	}
	if got := states[1].Subscribers(); !slices.Equal(got, []int{10, 11, 12, 13, 14}) {
		t.Fatalf("overflowing list = %v", got)
	}
	if got := states[2].Subscribers(); !slices.Equal(got, []int{7, 8}) {
		t.Fatalf("neighbour after node 1 overflowed = %v, want [7 8]", got)
	}
	if got := states[0].Subscribers(); !slices.Equal(got, []int{3}) {
		t.Fatalf("neighbour before node 1 = %v, want [3]", got)
	}
}
