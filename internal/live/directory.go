package live

import (
	"fmt"
	"sort"
	"sync"

	"dup/internal/topology"
)

// Directory is the underlying DHT's routing state stand-in: who a node's
// current upstream is, who the designated authority is, the live
// membership, and the repair primitives the paper delegates to the
// overlay. The live network asks it where to re-home after a failure and
// who wins an authority fail-over.
//
// Nodes can join a running cluster (the directory inserts them into the
// index search tree and assigns a parent) and leave it (their children are
// re-homed to their grandparent). Every membership change bumps an epoch
// counter, so concurrent observers of a join/leave race can order their
// snapshots deterministically — the chaos harness audits its invariants
// against the membership at verdict-time epoch, not the initial roster.
//
// In-process clusters share one instance built by NewDynDirectory or
// NewMemDirectory: it is a liveness oracle that knows which nodes the
// harness has killed, like a DHT whose routing tables have already
// repaired. Multi-process deployments (cmd/dupd) each hold one built by
// NewStaticDirectory, which has no such oracle: SetDead is a no-op and
// Promote trusts the caller's keep-alive evidence, so repairs rely purely
// on each node's own suspicions. In a partitioned network that can elect
// an authority per partition — the usual price of failure detection
// without consensus; partitions re-converge on version numbers when they
// heal.
type Directory struct {
	mu     sync.Mutex
	parent map[int]int
	member map[int]bool
	dead   map[int]bool
	rootID int
	epoch  uint64
	oracle bool // SetDead feeds dead and Promote checks it
}

// NewMemDirectory returns an in-process directory, liveness oracle
// included, seeded from the index search tree.
func NewMemDirectory(tree *topology.Tree) *Directory { return newDirectory(tree, true) }

// NewDynDirectory is NewMemDirectory. maxDegree needs no check of its own:
// Join's fewest-children rule stays within it while any member can.
func NewDynDirectory(tree *topology.Tree, maxDegree int) *Directory { return NewMemDirectory(tree) }

// NewStaticDirectory returns a multi-process directory, without the
// oracle, seeded from the static tree every process derives from shared
// configuration.
func NewStaticDirectory(tree *topology.Tree) *Directory { return newDirectory(tree, false) }

func newDirectory(tree *topology.Tree, oracle bool) *Directory {
	d := &Directory{
		parent: make(map[int]int, tree.N()),
		member: make(map[int]bool, tree.N()),
		dead:   make(map[int]bool),
		epoch:  1,
		oracle: oracle,
	}
	for i := 0; i < tree.N(); i++ {
		d.parent[i] = tree.Parent(i)
		d.member[i] = true
	}
	return d
}

// RootID returns the designated authority node.
func (d *Directory) RootID() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rootID
}

// Parent returns the current routing parent of id (-1 for the root), or
// -1 for a node the directory does not know (or that left).
func (d *Directory) Parent(id int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.member[id] {
		return -1
	}
	return d.parent[id]
}

// SetParent records a repair: id re-homed under parent. Non-members (on
// either side, except the -1 root marker) are ignored rather than
// corrupting state.
func (d *Directory) SetParent(id, parent int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.member[id] || (parent != -1 && !d.member[parent]) {
		return
	}
	d.parent[id] = parent
}

// AliveAncestor walks upstream from id and returns the nearest member
// that is alive and not suspected by the caller (suspect may be nil),
// falling back to the designated authority and finally to -1 when nothing
// is left. Without the oracle, unsuspected members count as alive.
func (d *Directory) AliveAncestor(id int, suspect func(int) bool) int {
	if suspect == nil {
		suspect = func(int) bool { return false }
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.member[id] {
		return -1
	}
	p := d.parent[id]
	for hops := 0; p != -1 && hops < len(d.parent); hops++ {
		if d.member[p] && !d.dead[p] && !suspect(p) {
			return p
		}
		p = d.parent[p]
	}
	if d.rootID != id && d.member[d.rootID] && !d.dead[d.rootID] && !suspect(d.rootID) {
		return d.rootID
	}
	return -1
}

// Promote elects id as the new authority and reports whether it now holds
// the role. The oracle refuses while the designated authority is a live
// member (the first caller after its death or departure wins); without
// the oracle the caller's evidence is trusted.
func (d *Directory) Promote(id int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.member[id] || (d.oracle && d.member[d.rootID] && !d.dead[d.rootID]) {
		return false
	}
	d.rootID = id
	d.parent[id] = -1
	return true
}

// SetDead records the harness-level liveness of a member. It is a no-op
// without the oracle.
func (d *Directory) SetDead(id int, dead bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.oracle && d.member[id] {
		d.dead[id] = dead
	}
}

// Revive marks id alive again and reports whether it is still the
// designated authority, atomically with respect to Promote — so a
// recovering old root and a promoting substitute cannot both win.
func (d *Directory) Revive(id int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.member[id] {
		return false
	}
	delete(d.dead, id)
	return d.rootID == id
}

// Join inserts id as a new member and returns its assigned parent: the
// alive member with the fewest children, ties broken by lowest id, so the
// same join sequence always yields the same tree.
func (d *Directory) Join(id int) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id < 0 {
		return -1, fmt.Errorf("live: cannot join negative id %d", id)
	}
	if d.member[id] {
		return -1, fmt.Errorf("live: node %d is already a member", id)
	}
	degree := make(map[int]int, len(d.parent))
	for c, p := range d.parent {
		if d.member[c] && p >= 0 {
			degree[p]++
		}
	}
	// The ascending scan breaks ties by lowest id.
	best := -1
	for _, cand := range d.sortedMembersLocked() {
		if !d.dead[cand] && (best == -1 || degree[cand] < degree[best]) {
			best = cand
		}
	}
	if best == -1 {
		return -1, fmt.Errorf("live: no alive member to adopt node %d", id)
	}
	d.member[id] = true
	d.parent[id] = best
	d.epoch++
	return best, nil
}

// Leave removes id, re-homing its children under its parent. A departed
// root no longer counts as a live authority, so a child's Promote
// succeeds.
func (d *Directory) Leave(id int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.member[id] {
		return fmt.Errorf("live: node %d is not a member", id)
	}
	p := d.parent[id]
	for c, cp := range d.parent {
		if cp == id && d.member[c] {
			d.parent[c] = p
		}
	}
	delete(d.member, id)
	delete(d.dead, id)
	d.epoch++
	return nil
}

// Children returns the current children of id, ascending.
func (d *Directory) Children(id int) []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []int
	for c, p := range d.parent {
		if p == id && d.member[c] {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// Members returns the current member ids, ascending. Dead-but-member
// nodes (crashed, not departed) are included: they still occupy their
// place in the tree.
func (d *Directory) Members() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sortedMembersLocked()
}

func (d *Directory) sortedMembersLocked() []int {
	out := make([]int, 0, len(d.member))
	for id := range d.member {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Epoch returns the membership epoch: it increments on every Join and
// Leave and never moves otherwise.
func (d *Directory) Epoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch
}

// Close releases the directory: it forgets every member, so further
// lookups behave as if the tree were empty (Parent/AliveAncestor return
// -1, writes and joins are refused). A dupd process calls this after its
// Network stops, so a stray late lookup cannot resurrect routing state.
func (d *Directory) Close() {
	d.mu.Lock()
	d.member = map[int]bool{}
	d.mu.Unlock()
}
