package live

import (
	"slices"
	"testing"

	"dup/internal/topology"
	"dup/internal/transport"
)

func testTree() *topology.Tree {
	return topology.FromParents([]int{-1, 0, 0, 1})
}

// TestDirectory runs every directory behaviour against the three
// constructors. They share one implementation; only the oracle flag
// separates the in-process ones from the multi-process one.
func TestDirectory(t *testing.T) {
	kinds := []struct {
		name   string
		new    func(tree *topology.Tree) *Directory
		oracle bool
	}{
		{"dyn", func(tree *topology.Tree) *Directory { return NewDynDirectory(tree, 2) }, true},
		{"mem", NewMemDirectory, true},
		{"static", NewStaticDirectory, false},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			t.Run("UnknownIDs", func(t *testing.T) {
				d := k.new(testTree())
				for _, id := range []int{-1, 99} {
					if got := d.Parent(id); got != -1 {
						t.Fatalf("Parent(%d) = %d, want -1", id, got)
					}
					if got := d.AliveAncestor(id, nil); got != -1 {
						t.Fatalf("AliveAncestor(%d) = %d, want -1", id, got)
					}
					if d.Promote(id) {
						t.Fatalf("Promote(%d) succeeded", id)
					}
					if d.Revive(id) {
						t.Fatalf("Revive(%d) reported a root", id)
					}
				}
				d.SetParent(99, 0)  // unknown id: ignored
				d.SetParent(1, 99)  // unknown parent: ignored
				d.SetDead(99, true) // ignored
				if d.Parent(1) != 0 {
					t.Fatalf("Parent(1) = %d after bogus writes, want 0", d.Parent(1))
				}
			})

			t.Run("LookupAfterClose", func(t *testing.T) {
				d := k.new(testTree())
				if d.Parent(3) != 1 {
					t.Fatalf("Parent(3) = %d before Close, want 1", d.Parent(3))
				}
				d.Close()
				if got := d.Parent(3); got != -1 {
					t.Fatalf("Parent(3) = %d after Close, want -1", got)
				}
				if got := d.AliveAncestor(3, nil); got != -1 {
					t.Fatalf("AliveAncestor(3) = %d after Close, want -1", got)
				}
				if d.Promote(2) {
					t.Fatal("Promote succeeded after Close")
				}
				if d.Revive(0) {
					t.Fatal("Revive reported a root after Close")
				}
				if _, err := d.Join(4); err == nil {
					t.Fatal("Join succeeded after Close")
				}
				d.SetParent(3, 0) // ignored
				d.Close()         // idempotent
			})

			t.Run("JoinUnderFewestChildren", func(t *testing.T) {
				//   0
				//  / \
				// 1   2
				d := k.new(topology.FromParents([]int{-1, 0, 0}))
				if p, err := d.Join(3); err != nil || p != 1 {
					t.Fatalf("first joiner attached under %d (%v), want 1 (lowest id with fewest children)", p, err)
				}
				if p, err := d.Join(4); err != nil || p != 2 {
					t.Fatalf("second joiner attached under %d (%v), want 2 (fewest children)", p, err)
				}
				if _, err := d.Join(4); err == nil {
					t.Fatal("joining an existing member succeeded")
				}
				if _, err := d.Join(-1); err == nil {
					t.Fatal("joining a negative id succeeded")
				}
			})

			t.Run("JoinAvoidsDeadMembers", func(t *testing.T) {
				d := k.new(topology.FromParents([]int{-1, 0, 0}))
				d.SetDead(0, true)
				p, err := d.Join(3)
				if err != nil {
					t.Fatal(err)
				}
				if k.oracle && p == 0 {
					t.Fatal("joiner was attached under a dead member")
				}
			})

			t.Run("LeaveRehomesChildren", func(t *testing.T) {
				// 0 - 1 - 2 chain: when 1 leaves, 2 must re-home under 0.
				d := k.new(topology.FromParents([]int{-1, 0, 1}))
				if err := d.Leave(1); err != nil {
					t.Fatal(err)
				}
				if p := d.Parent(2); p != 0 {
					t.Fatalf("orphaned child re-homed under %d, want 0", p)
				}
				if p := d.Parent(1); p != -1 {
					t.Fatalf("departed node still has parent %d", p)
				}
				if got := d.Members(); !slices.Equal(got, []int{0, 2}) {
					t.Fatalf("members after leave = %v, want [0 2]", got)
				}
				if got := d.Children(0); !slices.Equal(got, []int{2}) {
					t.Fatalf("children of 0 after leave = %v, want [2]", got)
				}
				if err := d.Leave(1); err == nil {
					t.Fatal("leaving twice succeeded")
				}
			})

			t.Run("EpochMovesOnlyOnMembership", func(t *testing.T) {
				d := k.new(topology.FromParents([]int{-1, 0, 1}))
				e0 := d.Epoch()
				d.SetParent(2, 0)
				d.SetDead(2, true)
				d.SetDead(2, false)
				d.Promote(1)
				if d.Epoch() != e0 {
					t.Fatal("epoch moved without a membership change")
				}
				if _, err := d.Join(3); err != nil {
					t.Fatal(err)
				}
				if d.Epoch() != e0+1 {
					t.Fatalf("epoch after join = %d, want %d", d.Epoch(), e0+1)
				}
				if err := d.Leave(3); err != nil {
					t.Fatal(err)
				}
				if d.Epoch() != e0+2 {
					t.Fatalf("epoch after leave = %d, want %d", d.Epoch(), e0+2)
				}
			})

			t.Run("Promote", func(t *testing.T) {
				d := k.new(topology.FromParents([]int{-1, 0, 0}))
				// Over a live authority the oracle refuses; the static rule
				// trusts the caller's keep-alive evidence.
				if got := d.Promote(1); got != !k.oracle {
					t.Fatalf("Promote over a live authority = %v, want %v", got, !k.oracle)
				}
				d.SetDead(d.RootID(), true)
				if !d.Promote(2) {
					t.Fatal("could not promote over a dead authority")
				}
				if err := d.Leave(2); err != nil {
					t.Fatal(err)
				}
				if !d.Promote(1) {
					t.Fatal("could not promote after the authority departed")
				}
				if got := d.RootID(); got != 1 {
					t.Fatalf("authority is %d after promotion, want 1", got)
				}
				if p := d.Parent(1); p != -1 {
					t.Fatalf("new authority still has parent %d", p)
				}
				if d.Revive(0) {
					t.Fatal("the deposed authority revived as root")
				}
			})
		})
	}
}

func TestStartWithDuplicateHostsFails(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tree = testTree()
	tr := transport.NewChan(transport.ChanConfig{})
	defer tr.Close()
	_, err := StartWith(cfg, Options{
		Transport: tr,
		Directory: NewMemDirectory(testTree()),
		Hosts:     []int{1, 2, 1},
	})
	if err == nil {
		t.Fatal("StartWith accepted a duplicate host registration")
	}
}
