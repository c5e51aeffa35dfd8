package replica

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"dup/internal/proto"
	"dup/internal/raceflag"
	"dup/internal/store"
)

// cluster wires R groups to an in-process bus for single-threaded
// protocol tests.
type cluster struct {
	groups map[int]*Group
	mems   map[int]*store.Mem
}

func newCluster(t *testing.T, members []int, ids []int, reserve int64) *cluster {
	t.Helper()
	c := &cluster{groups: map[int]*Group{}, mems: map[int]*store.Mem{}}
	for _, id := range ids {
		mem := store.NewMem()
		c.mems[id] = mem
		c.groups[id] = New(Config{
			ID: id, Members: members, Lease: time.Second, Reserve: reserve, Journal: mem,
		})
	}
	return c
}

// pump delivers msgs (and everything they trigger) until quiescent.
func (c *cluster) pump(msgs []*proto.Message, now time.Time) {
	for len(msgs) > 0 {
		var next []*proto.Message
		for _, m := range msgs {
			if g, ok := c.groups[m.To]; ok {
				next = g.AppendStep(next, m, now)
			}
			proto.Release(m)
		}
		msgs = next
	}
}

// drop releases msgs undelivered (a total partition).
func drop(msgs []*proto.Message) {
	for _, m := range msgs {
		proto.Release(m)
	}
}

func TestBootLeaderAcquiresLeaseThenReplicates(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{0, 1, 2}, 0)
	g := c.groups[0]
	g.BootLeader()
	if g.MayServe(now) {
		t.Fatal("leader serving before any lease ack")
	}
	c.pump(g.AppendTick(nil, now), now) // lease round trip
	if !g.MayServe(now) {
		t.Fatal("leader has no lease after a quorum acked the renewal")
	}
	v, out, ok := g.AppendBump(nil, 0, 1, 2000.5, now)
	if !ok || v != 1 {
		t.Fatalf("Bump = (%d, ok=%v), want (1, true)", v, ok)
	}
	c.pump(out, now)
	for _, id := range []int{1, 2} {
		if got := c.groups[id].Accepted(0); got != 1 {
			t.Fatalf("replica %d accepted %d, want 1", id, got)
		}
		rs := c.mems[id].ReplicaStates(id)
		if len(rs) != 1 || rs[0].Version != 1 {
			t.Fatalf("replica %d journal = %+v", id, rs)
		}
	}
	// The commit watermark follows on the next tick.
	c.pump(g.AppendTick(nil, now.Add(400*time.Millisecond)), now)
	if got := c.groups[1].Committed(0); got != 1 {
		t.Fatalf("replica 1 committed %d, want 1", got)
	}
}

func TestReserveStallsExposureWithoutQuorum(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{0, 1, 2}, 2)
	g := c.groups[0]
	g.BootLeader()
	c.pump(g.AppendTick(nil, now), now)
	// Partition the followers: accepts never arrive. The reserve (B=2)
	// lets two versions out, then the stream stalls.
	var pending []*proto.Message
	for want := int64(1); want <= 2; want++ {
		v, out, ok := g.AppendBump(nil, 0, want, 2000.5, now)
		pending = append(pending, out...)
		if !ok || v != want {
			t.Fatalf("Bump(%d) = (%d, ok=%v) inside the reserve", want, v, ok)
		}
	}
	if v, out, ok := g.AppendBump(nil, 0, 3, 2000.5, now); ok {
		drop(out)
		t.Fatalf("Bump(3) exposed %d with the reserve exhausted", v)
	} else {
		pending = append(pending, out...)
	}
	// Heal: deliver everything; the acks reopen the window.
	c.pump(pending, now)
	c.pump(g.AppendTick(nil, now.Add(400*time.Millisecond)), now)
	if v, out, ok := g.AppendBump(nil, 0, 3, 2000.5, now); !ok || v != 3 {
		t.Fatalf("Bump(3) after heal = (%d, ok=%v), want (3, true)", v, ok)
	} else {
		c.pump(out, now)
	}
}

func TestFailoverNeverRegresses(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{0, 1, 2}, 4)
	g0 := c.groups[0]
	g0.BootLeader()
	c.pump(g0.AppendTick(nil, now), now)
	// Expose a stream, replicating only sometimes: the last exposures ride
	// the reserve with no quorum behind them.
	var exposed int64
	for want := int64(1); want <= 10; want++ {
		v, out, ok := g0.AppendBump(nil, 0, want, 2000.5, now)
		if want <= 6 {
			c.pump(out, now)
		} else {
			drop(out) // partitioned mid-push
		}
		if ok {
			exposed = v
		}
	}
	if exposed < 6 {
		t.Fatalf("exposed only %d versions", exposed)
	}
	// Leader dies; replica 1 runs the promise round and takes over.
	g1 := c.groups[1]
	msgs := g1.AppendStartCandidate(nil, now)
	var kept []*proto.Message
	for _, m := range msgs {
		if m.To == 0 {
			proto.Release(m) // dead leader
			continue
		}
		kept = append(kept, m)
	}
	c.pump(kept, now)
	if !g1.Leading() {
		t.Fatal("candidate did not reach quorum with one peer alive")
	}
	// First bump appends the floor entry and replicates it before
	// exposing; the retry exposes a version strictly above everything the
	// old leader ever served.
	v, out, ok := g1.AppendBump(nil, 0, 1, 3000.5, now)
	c.pump(out, now)
	if !ok {
		v, out, ok = g1.AppendBump(nil, 0, 1, 3000.5, now)
		c.pump(out, now)
	}
	if !ok {
		t.Fatal("new leader never exposed after its floor replicated")
	}
	if v <= exposed {
		t.Fatalf("failover regressed: new leader exposed %d, old leader had exposed %d", v, exposed)
	}
}

func TestSupersededLeaderStopsServing(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{0, 1, 2}, 0)
	g0 := c.groups[0]
	g0.BootLeader()
	c.pump(g0.AppendTick(nil, now), now)
	if v, out, ok := g0.AppendBump(nil, 0, 1, 2000.5, now); !ok || v != 1 {
		t.Fatalf("Bump = (%d, %v)", v, ok)
	} else {
		c.pump(out, now)
	}
	// A higher-term candidate appears; the moment the old leader hears
	// the new term it goes silent for good.
	c.pump(c.groups[1].AppendStartCandidate(nil, now), now)
	if !c.groups[1].Leading() {
		t.Fatal("higher-term candidate not promoted")
	}
	if g0.MayServe(now) {
		t.Fatal("superseded leader still holds a lease")
	}
	if _, out, ok := g0.AppendBump(nil, 0, 2, 2000.5, now); ok {
		t.Fatal("superseded leader exposed a version")
	} else {
		drop(out)
	}
}

func TestLeaseExpiresWithoutRenewalQuorum(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{0, 1, 2}, 0)
	g := c.groups[0]
	g.BootLeader()
	c.pump(g.AppendTick(nil, now), now)
	if !g.MayServe(now) {
		t.Fatal("no lease after boot round")
	}
	// Renewals stop reaching the quorum; the lease runs out.
	later := now.Add(2 * time.Second)
	drop(g.AppendTick(nil, later))
	if g.MayServe(later) {
		t.Fatal("leader serving past an unrenewed lease")
	}
	// The quorum comes back; the next renewal restores service.
	c.pump(g.AppendTick(nil, later.Add(time.Second)), later.Add(time.Second))
	if !g.MayServe(later.Add(time.Second)) {
		t.Fatal("lease not restored after renewal quorum")
	}
}

func TestNonMemberLeadsFromOutside(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{0, 1, 2}, 2)
	g0 := c.groups[0]
	g0.BootLeader()
	c.pump(g0.AppendTick(nil, now), now)
	var v int64
	for want := int64(1); want <= 5; want++ {
		got, out, ok := g0.AppendBump(nil, 0, want, 2000.5, now)
		c.pump(out, now)
		if !ok || got != want {
			t.Fatalf("Bump(%d) = (%d, %v)", want, got, ok)
		}
		v = got
	}
	// A non-member (the directory's promotion choice) takes over: its
	// quorum is counted purely among the members. Its first round guesses
	// term 1 — the incumbent's term — so the live lease refuses it; the
	// candidate retransmission path escalates the term and the retry wins.
	c.mems[9] = store.NewMem()
	g9 := New(Config{ID: 9, Members: []int{0, 1, 2}, Lease: time.Second, Reserve: 2})
	c.groups[9] = g9
	deliver := func(msgs []*proto.Message, at time.Time) {
		var kept []*proto.Message
		for _, m := range msgs {
			if m.To == 0 {
				proto.Release(m) // dead leader
				continue
			}
			kept = append(kept, m)
		}
		c.pump(kept, at)
	}
	deliver(g9.AppendStartCandidate(nil, now), now)
	if g9.Leading() {
		t.Fatal("stale-term candidate promoted over a live lease")
	}
	retry := now.Add(500 * time.Millisecond) // past lease/4 + the id-9 retry stagger
	deliver(g9.AppendTick(nil, retry), retry)
	if !g9.Leading() {
		t.Fatal("non-member candidate not promoted by member quorum")
	}
	nv, out, ok := g9.AppendBump(nil, 0, 1, 3000.5, now)
	c.pump(out, now)
	if !ok {
		nv, out, ok = g9.AppendBump(nil, 0, 1, 3000.5, now)
		c.pump(out, now)
	}
	if !ok || nv <= v {
		t.Fatalf("non-member leader exposed (%d, ok=%v), want > %d", nv, ok, v)
	}
}

// TestDuelingMemberCandidatesConverge is the dual-promotion race of a
// multi-process cluster: the leaseholder 0 dies and the two surviving
// members both start candidacies at the same instant. Without the
// equal-term id tie-break they refuse each other's prepares and
// re-escalate terms in lockstep forever; with it, exactly one wins
// within a bounded number of staggered retries.
func TestDuelingMemberCandidatesConverge(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{0, 1, 2}, 2)
	g0 := c.groups[0]
	g0.BootLeader()
	c.pump(g0.AppendTick(nil, now), now)
	if _, out, ok := g0.AppendBump(nil, 0, 1, 2000.5, now); !ok {
		t.Fatal("incumbent could not expose")
	} else {
		c.pump(out, now)
	}
	// Leaseholder dies; its messages stop. Both survivors promote at once.
	delete(c.groups, 0)
	g1, g2 := c.groups[1], c.groups[2]
	c.pump(g1.AppendStartCandidate(nil, now), now)
	c.pump(g2.AppendStartCandidate(nil, now), now)
	// Drive both tickers in lockstep — the adversarial schedule.
	at := now
	for i := 0; i < 40 && !g1.Leading() && !g2.Leading(); i++ {
		at = at.Add(50 * time.Millisecond)
		c.pump(g1.AppendTick(nil, at), at)
		c.pump(g2.AppendTick(nil, at), at)
	}
	if g1.Leading() == g2.Leading() {
		t.Fatalf("dueling candidates did not converge on one leader: g1=%v g2=%v",
			g1.Leading(), g2.Leading())
	}
	winner := g1
	if g2.Leading() {
		winner = g2
	}
	// The winner's floor must clear the dead incumbent's exposures, and
	// the hot path must work: retry once if the floor round needs a pump.
	v, out, ok := winner.AppendBump(nil, 0, 1, 3000.5, at)
	c.pump(out, at)
	if !ok {
		v, out, ok = winner.AppendBump(nil, 0, 1, 3000.5, at)
		c.pump(out, at)
	}
	if !ok || v <= 1 {
		t.Fatalf("duel winner exposed (%d, ok=%v), want a version above the incumbent's 1", v, ok)
	}
}

func TestRestoreSeedsLogAndTerm(t *testing.T) {
	g := New(Config{ID: 1, Members: []int{0, 1, 2}})
	g.Restore([]store.ReplicaState{
		{ID: 1, Key: 0, Term: 3, Version: 40, Expiry: 2000.5},
		{ID: 1, Key: 7, Term: 2, Version: 9, Expiry: 2000.5},
	})
	if got := g.Accepted(0); got != 40 {
		t.Fatalf("Accepted(0) = %d, want 40", got)
	}
	if got := g.Accepted(7); got != 9 {
		t.Fatalf("Accepted(7) = %d, want 9", got)
	}
	if got := g.Term(); got != 3 {
		t.Fatalf("Term = %d, want 3", got)
	}
}

func TestPromiseSnapshotChunksLargeLogs(t *testing.T) {
	now := time.Unix(1000, 0)
	// Member 0 is dead: the candidate (2) can only reach quorum with
	// replica 1's vote, and that vote carries a multi-chunk snapshot —
	// promotion must wait for the final chunk and merge all of them.
	c := newCluster(t, []int{0, 1, 2}, []int{1, 2}, 0)
	// Replica 1 holds a log wider than one promise frame can carry.
	states := make([]store.ReplicaState, 0, maxPromisePairs+10)
	for k := 0; k < maxPromisePairs+10; k++ {
		states = append(states, store.ReplicaState{ID: 1, Key: k, Term: 1, Version: int64(k + 1)})
	}
	c.groups[1].Restore(states)
	g2 := c.groups[2]
	c.pump(g2.AppendStartCandidate(nil, now), now)
	if !g2.Leading() {
		t.Fatal("candidate did not assemble the chunked snapshot")
	}
	// The floor over the widest key must reflect the chunked promise.
	wideKey := maxPromisePairs + 9
	v, out, ok := g2.AppendBump(nil, wideKey, 1, 3000.5, now)
	c.pump(out, now)
	if !ok {
		v, out, ok = g2.AppendBump(nil, wideKey, 1, 3000.5, now)
		c.pump(out, now)
	}
	if !ok || v <= int64(wideKey+1) {
		t.Fatalf("Bump on chunk-2 key = (%d, ok=%v), want > %d", v, ok, wideKey+1)
	}
}

// deliverTo pumps msgs (and everything they trigger), but only to the
// recipients in allow; everything else is released undelivered — the
// other endpoints are dead or partitioned.
func (c *cluster) deliverTo(msgs []*proto.Message, allow map[int]bool, now time.Time) {
	for len(msgs) > 0 {
		var next []*proto.Message
		for _, m := range msgs {
			if g, ok := c.groups[m.To]; ok && allow[m.To] {
				next = g.AppendStep(next, m, now)
			}
			proto.Release(m)
		}
		msgs = next
	}
}

// TestProposeReplaceReplacesDeadMember drives one full online
// replacement: member 2 dies for good, the leaseholder state-transfers
// its log to the empty learner 3, and the two-phase change commits to
// the stable epoch-2 set {0,1,3} on every survivor — durably, so each
// journal holds the new config. The replacement must then be a real
// voter: when the leaseholder dies too, node 3 campaigns with node 1
// and exposes strictly above everything the old leader ever served.
func TestProposeReplaceReplacesDeadMember(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{0, 1, 2}, 2)
	g0 := c.groups[0]
	g0.BootLeader()
	c.pump(g0.AppendTick(nil, now), now)
	var exposed int64
	for want := int64(1); want <= 5; want++ {
		v, out, ok := g0.AppendBump(nil, 0, want, 2000.5, now)
		c.pump(out, now)
		if !ok || v != want {
			t.Fatalf("Bump(%d) = (%d, %v)", want, v, ok)
		}
		exposed = v
	}
	// Member 2 is gone for good; the replacement 3 boots as an empty
	// learner that still believes in the boot-time member set.
	c.mems[3] = store.NewMem()
	c.groups[3] = New(Config{
		ID: 3, Members: []int{0, 1, 2}, Lease: time.Second, Reserve: 2, Journal: c.mems[3],
	})
	alive := map[int]bool{0: true, 1: true, 3: true}
	msgs, ok := g0.AppendProposeReplace(nil, 2, 3, now)
	if !ok {
		t.Fatal("ProposeReplace refused with a clean stable config")
	}
	// Only one change may be in flight at a time.
	if more, ok2 := g0.AppendProposeReplace(nil, 1, 4, now); ok2 {
		drop(more)
		t.Fatal("second ProposeReplace accepted while one was in flight")
	}
	c.deliverTo(msgs, alive, now)
	if g0.ReconfigInFlight() {
		t.Fatal("reconfiguration still in flight after every survivor answered")
	}
	for _, id := range []int{0, 1, 3} {
		g := c.groups[id]
		if e := g.Epoch(); e != 2 {
			t.Fatalf("node %d at epoch %d, want 2 (joint + final)", id, e)
		}
		if m := g.Members(); len(m) != 3 || m[0] != 0 || m[1] != 1 || m[2] != 3 {
			t.Fatalf("node %d members = %v, want [0 1 3]", id, m)
		}
		rc, found := c.mems[id].ReplicaConfig(id)
		if !found || rc.Epoch != 2 || rc.Joint {
			t.Fatalf("node %d journalled config = (%+v, %v), want stable epoch 2", id, rc, found)
		}
	}
	// The state transfer brought the replacement's accepted log up to the
	// leader's exposure bound before it gained a vote.
	if got := c.groups[3].Accepted(0); got < exposed {
		t.Fatalf("replacement accepted %d, below the exposed %d", got, exposed)
	}
	// The leaseholder dies next; the replacement campaigns with node 1 as
	// its quorum partner and must never regress the stream.
	delete(c.groups, 0)
	survivors := map[int]bool{1: true, 3: true}
	g3 := c.groups[3]
	at := now
	c.deliverTo(g3.AppendStartCandidate(nil, at), survivors, at)
	for i := 0; i < 40 && !g3.Leading(); i++ {
		at = at.Add(250 * time.Millisecond)
		c.deliverTo(g3.AppendTick(nil, at), survivors, at)
	}
	if !g3.Leading() {
		t.Fatal("replacement never won the fail-over round")
	}
	v, out, ok := g3.AppendBump(nil, 0, 1, 3000.5, at)
	c.deliverTo(out, survivors, at)
	if !ok {
		v, out, ok = g3.AppendBump(nil, 0, 1, 3000.5, at)
		c.deliverTo(out, survivors, at)
	}
	if !ok || v <= exposed {
		t.Fatalf("replacement leader exposed (%d, ok=%v), want > %d", v, ok, exposed)
	}
}

// TestJointPhaseRequiresBothQuorums is the 3→3 replacement regression
// guard: while the joint config {0,1,2}∧{0,1,3} is in force, a majority
// of the new set alone (the leader plus the incoming member 3) must
// satisfy nothing — not the lease renewal, not the config commit. A
// quorum rule that momentarily counted only the target set would accept
// exactly that 2-of-3 here while the old set has one vote of three.
func TestJointPhaseRequiresBothQuorums(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{0, 1, 2}, 0)
	g0 := c.groups[0]
	g0.BootLeader()
	c.pump(g0.AppendTick(nil, now), now)
	c.mems[3] = store.NewMem()
	c.groups[3] = New(Config{ID: 3, Members: []int{0, 1, 2}, Lease: time.Second, Journal: c.mems[3]})
	msgs, ok := g0.AppendProposeReplace(nil, 2, 3, now)
	if !ok {
		t.Fatal("ProposeReplace refused")
	}
	// Deliver the state transfer to 3 only: its completion ack opens the
	// joint phase at the leader, 3 adopts and acks the joint config, and
	// nothing reaches the old members — the change parks in the joint
	// phase with the new set's majority (0 and 3) already in hand.
	c.deliverTo(msgs, map[int]bool{0: true, 3: true}, now)
	if !g0.ReconfigInFlight() || g0.Epoch() != 1 {
		t.Fatalf("joint phase not reached: epoch %d, in flight %v", g0.Epoch(), g0.ReconfigInFlight())
	}
	// The boot lease runs out; the renewal reaches only the new member.
	// Self + 3 is a majority of {0,1,3} — and must not be enough.
	later := now.Add(2 * time.Second)
	c.deliverTo(g0.AppendTick(nil, later), map[int]bool{0: true, 3: true}, later)
	if g0.MayServe(later) {
		t.Fatal("lease renewed by a new-set-only quorum during the joint phase")
	}
	if !g0.ReconfigInFlight() || g0.Epoch() != 1 {
		t.Fatal("config advanced on a new-set-only quorum during the joint phase")
	}
	// Old member 1 answers again: both majorities form and the change
	// commits through to the stable epoch-2 set. (This round's lease
	// frame bounces off 1's epoch gate while it catches up on the config,
	// so the renewal lands on the following round.)
	even := later.Add(time.Second)
	alive := map[int]bool{0: true, 1: true, 3: true}
	c.deliverTo(g0.AppendTick(nil, even), alive, even)
	if g0.ReconfigInFlight() || g0.Epoch() != 2 {
		t.Fatalf("change did not commit: epoch %d, in flight %v", g0.Epoch(), g0.ReconfigInFlight())
	}
	final := even.Add(time.Second)
	c.deliverTo(g0.AppendTick(nil, final), alive, final)
	if !g0.MayServe(final) {
		t.Fatal("lease not renewed once the old set's majority answered")
	}
}

// TestRebootMidReconfigurationResumesJointPhase crashes the proposing
// leaseholder at the worst moment: the joint config is journalled (on a
// real on-disk store) but the final config has not committed. The
// rebooted member must recover into the exact joint epoch its disk
// agreed to, re-win leadership, inherit the unfinished change and drive
// it home — finishing with the stable epoch-2 set on every survivor and
// on its own disk.
func TestRebootMidReconfigurationResumesJointPhase(t *testing.T) {
	now := time.Unix(1000, 0)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, []int{0, 1, 2}, []int{1, 2}, 0)
	g0 := New(Config{ID: 0, Members: []int{0, 1, 2}, Lease: time.Second, Journal: st})
	c.groups[0] = g0
	g0.BootLeader()
	c.pump(g0.AppendTick(nil, now), now)
	if v, out, ok := g0.AppendBump(nil, 0, 1, 2000.5, now); !ok || v != 1 {
		t.Fatalf("Bump = (%d, %v)", v, ok)
	} else {
		c.pump(out, now)
	}
	c.mems[3] = store.NewMem()
	c.groups[3] = New(Config{ID: 3, Members: []int{0, 1, 2}, Lease: time.Second, Journal: c.mems[3]})
	msgs, ok := g0.AppendProposeReplace(nil, 2, 3, now)
	if !ok {
		t.Fatal("ProposeReplace refused")
	}
	// The transfer reaches 3 and its ack opens the joint phase — which the
	// leader journals before proposing — but the proposal broadcast is
	// lost, and the leader crashes with the change half done.
	c.deliverTo(msgs, map[int]bool{0: true, 3: true}, now)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	delete(c.groups, 0)

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rc, found := st2.ReplicaConfig(0)
	if !found || rc.Epoch != 1 || !rc.Joint {
		t.Fatalf("disk config = (%+v, %v), want the joint epoch-1 record", rc, found)
	}
	g0b := New(Config{ID: 0, Members: []int{0, 1, 2}, Lease: time.Second, Journal: st2})
	g0b.Restore(st2.ReplicaStates(0))
	g0b.RestoreConfig(rc)
	if g0b.Epoch() != 1 || !g0b.ReconfigInFlight() {
		t.Fatalf("reboot resumed at epoch %d (in flight %v), want the joint epoch 1",
			g0b.Epoch(), g0b.ReconfigInFlight())
	}
	c.groups[0] = g0b

	// Re-elect past the old lease; the first leader tick inherits the
	// joint config as an in-flight change and retransmits it to
	// completion against the survivors 1 and 3.
	alive := map[int]bool{0: true, 1: true, 3: true}
	at := now.Add(2 * time.Second)
	c.deliverTo(g0b.AppendStartCandidate(nil, at), alive, at)
	for i := 0; i < 40 && (!g0b.Leading() || g0b.ReconfigInFlight()); i++ {
		at = at.Add(250 * time.Millisecond)
		c.deliverTo(g0b.AppendTick(nil, at), alive, at)
	}
	if !g0b.Leading() {
		t.Fatal("rebooted proposer never re-won leadership")
	}
	if g0b.ReconfigInFlight() || g0b.Epoch() != 2 {
		t.Fatalf("inherited change did not commit: epoch %d, in flight %v",
			g0b.Epoch(), g0b.ReconfigInFlight())
	}
	for _, id := range []int{1, 3} {
		if e := c.groups[id].Epoch(); e != 2 {
			t.Fatalf("survivor %d at epoch %d, want 2", id, e)
		}
	}
	if rc, found = st2.ReplicaConfig(0); !found || rc.Epoch != 2 || rc.Joint {
		t.Fatalf("disk config after commit = (%+v, %v), want stable epoch 2", rc, found)
	}
}

// TestProposeReplaceRefusesBadArguments pins the guard rails: no
// proposal without leadership, none for a non-member, none promoting an
// existing member, and none replacing a member with itself.
func TestProposeReplaceRefusesBadArguments(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{0, 1, 2}, 0)
	g0 := c.groups[0]
	if msgs, ok := g0.AppendProposeReplace(nil, 2, 3, now); ok {
		drop(msgs)
		t.Fatal("follower accepted a ProposeReplace")
	}
	g0.BootLeader()
	c.pump(g0.AppendTick(nil, now), now)
	for _, bad := range []struct{ dead, repl int }{
		{7, 3}, // dead is not a member
		{2, 1}, // replacement already a member
		{2, 2}, // replacement is the dead member
		{2, 0}, // replacement is the proposer
	} {
		if msgs, ok := g0.AppendProposeReplace(nil, bad.dead, bad.repl, now); ok {
			drop(msgs)
			t.Fatalf("ProposeReplace(%d, %d) accepted", bad.dead, bad.repl)
		}
	}
}

func TestMessageLeakFree(t *testing.T) {
	base := proto.InUse()
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{0, 1, 2}, 0)
	g := c.groups[0]
	g.BootLeader()
	c.pump(g.AppendTick(nil, now), now)
	for want := int64(1); want <= 5; want++ {
		_, out, _ := g.AppendBump(nil, 0, want, 2000.5, now)
		c.pump(out, now)
	}
	c.pump(c.groups[1].AppendStartCandidate(nil, now), now)
	c.pump(c.groups[1].AppendTick(nil, now.Add(time.Second)), now)
	if got := proto.InUse(); got != base {
		t.Fatalf("pooled messages leaked: in use %d, baseline %d", got, base)
	}
}

// TestRivalSameEpochConfigsCannotDiverge pins the split-brain guard on
// config adoption. A leaseholder parked in the joint phase is deposed
// by a new leader that drives a *different* replacement at the same
// epoch. The old leader must not be able to tally acks that answered
// the rival's proposal, and the shared old-set member must refuse the
// deposed proposer's retransmissions outright — so exactly one final
// config can ever commit, and the loser is taught the winner's config.
func TestRivalSameEpochConfigsCannotDiverge(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{0, 1, 2}, 0)
	g0, g1, g2 := c.groups[0], c.groups[1], c.groups[2]
	g0.BootLeader()
	c.pump(g0.AppendTick(nil, now), now)

	// Leaseholder 0 starts replacing 2 with 3; only the learner hears
	// it, so the change parks in the joint phase {0,1,2}∧{0,1,3} at
	// epoch 1 with the new set's majority already in hand.
	c.mems[3] = store.NewMem()
	c.groups[3] = New(Config{ID: 3, Members: []int{0, 1, 2}, Lease: time.Second, Journal: c.mems[3]})
	msgs, ok := g0.AppendProposeReplace(nil, 2, 3, now)
	if !ok {
		t.Fatal("ProposeReplace refused")
	}
	c.deliverTo(msgs, map[int]bool{0: true, 3: true}, now)
	if !g0.ReconfigInFlight() || g0.Epoch() != 1 {
		t.Fatalf("joint phase not reached: epoch %d", g0.Epoch())
	}

	// An adoption ack that does not echo this leader's own proposal term
	// must not be counted: member 1 "acking" the same epoch under some
	// other proposal would otherwise hand 0 its old-set majority.
	forged := proto.NewMessage()
	forged.Kind = proto.KindReconfig
	forged.To = 0
	forged.Origin = 1
	forged.Term = 1
	forged.Epoch = 1
	forged.Subject = subConfAck
	forged.Version = 99 // echoes a proposal this leader never made
	drop(g0.AppendStep(nil, forged, now))
	proto.Release(forged)
	if !g0.ReconfigInFlight() || g0.Epoch() != 1 {
		t.Fatal("leader advanced its change on an ack for a rival proposal")
	}

	// Capture the parked leader's joint-proposal retransmission to the
	// shared old-set member 2, as a partitioned leader would keep
	// resending it long after being deposed.
	var stale []*proto.Message
	for _, m := range g0.AppendTick(nil, now.Add(400*time.Millisecond)) {
		if m.Kind == proto.KindReconfig && m.To == 2 {
			stale = append(stale, m)
		} else {
			proto.Release(m)
		}
	}
	if len(stale) == 0 {
		t.Fatal("no joint-proposal retransmission to member 2")
	}

	// Members 1 and 2 elect a new leader past the old lease, and it
	// drives a rival same-epoch replacement: 0 out, 4 in.
	at := now.Add(2 * time.Second)
	c.deliverTo(g1.AppendStartCandidate(nil, at), map[int]bool{1: true, 2: true}, at)
	if !g1.Leading() {
		t.Fatal("rival candidate did not win its round")
	}
	c.mems[4] = store.NewMem()
	c.groups[4] = New(Config{ID: 4, Members: []int{0, 1, 2}, Lease: time.Second, Journal: c.mems[4]})
	rival, ok := g1.AppendProposeReplace(nil, 0, 4, at)
	if !ok {
		t.Fatal("new leader's ProposeReplace refused")
	}
	c.deliverTo(rival, map[int]bool{1: true, 2: true, 4: true}, at)
	if g1.ReconfigInFlight() || g1.Epoch() != 2 {
		t.Fatalf("rival change did not commit: epoch %d, in flight %v",
			g1.Epoch(), g1.ReconfigInFlight())
	}
	if got := g2.Members(); !sameMembers(got, []int{1, 2, 4}) {
		t.Fatalf("shared member's config = %v, want [1 2 4]", got)
	}

	// The deposed leader's stale retransmission finally reaches the
	// shared member: it must be refused — never acked — and the answer
	// must teach the stale proposer the committed config and depose it.
	var answers []*proto.Message
	for _, m := range stale {
		answers = g2.AppendStep(answers, m, at)
		proto.Release(m)
	}
	if got := g2.Members(); !sameMembers(got, []int{1, 2, 4}) {
		t.Fatalf("stale proposal disturbed the committed config: %v", got)
	}
	for _, m := range answers {
		if m.Kind == proto.KindReconfig && m.Subject == subConfAck {
			t.Fatal("shared member acked the deposed leader's rival config")
		}
	}
	c.pump(answers, at)
	if g0.Leading() {
		t.Fatal("deposed leader still leading after being taught the new term")
	}
	if e, got := g0.Epoch(), g0.Members(); e != 2 || !sameMembers(got, []int{1, 2, 4}) {
		t.Fatalf("deposed leader caught up to (epoch %d, %v), want (2, [1 2 4])", e, got)
	}

	// A conflicting same-epoch config from no newer a term than the one
	// already adopted must be dropped without an ack (one leader per
	// term: such a frame cannot be a legitimate rival).
	conflict := proto.NewMessage()
	conflict.Kind = proto.KindReconfig
	conflict.To = 2
	conflict.Origin = 0
	conflict.Term = 2 // same term as the adopted config
	conflict.Epoch = 2
	conflict.Subject = subConfFinal
	conflict.Path = append(conflict.Path, 0, 1, 3)
	if out := g2.AppendStep(nil, conflict, at); len(out) != 0 {
		drop(out)
		t.Fatal("same-term conflicting config was answered")
	}
	proto.Release(conflict)
	if got := g2.Members(); !sameMembers(got, []int{1, 2, 4}) {
		t.Fatalf("same-term conflicting config adopted: %v", got)
	}
}

// TestMalformedConfigProposalsRefused pins the content validation on
// config adoption: a proposal that would install an empty member set
// (whose quorum could never be satisfied again) is dropped without an
// ack and without touching the journal.
func TestMalformedConfigProposalsRefused(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{1}, 0)
	g1 := c.groups[1]
	mk := func(subject, split int, path []int) *proto.Message {
		m := proto.NewMessage()
		m.Kind = proto.KindReconfig
		m.To = 1
		m.Origin = 0
		m.Term = 1
		m.Epoch = 1
		m.Subject = subject
		m.New = split
		m.Path = append(m.Path, path...)
		return m
	}
	for _, bad := range []*proto.Message{
		mk(subConfJoint, 0, []int{0, 1, 2}), // empty old set
		mk(subConfJoint, 3, []int{0, 1, 2}), // empty new set
		mk(subConfFinal, 0, nil),            // empty stable set
	} {
		if out := g1.AppendStep(nil, bad, now); len(out) != 0 {
			drop(out)
			t.Fatalf("malformed proposal (subject %d, split %d, path %v) was answered",
				bad.Subject, bad.New, bad.Path)
		}
		proto.Release(bad)
	}
	if e := g1.Epoch(); e != 0 {
		t.Fatalf("malformed proposal installed epoch %d", e)
	}
	if _, found := c.mems[1].ReplicaConfig(1); found {
		t.Fatal("malformed proposal reached the journal")
	}
	// Sanity: a well-formed proposal at the same epoch still adopts.
	good := mk(subConfFinal, 0, []int{1, 2, 3})
	out := g1.AppendStep(nil, good, now)
	proto.Release(good)
	if len(out) != 1 || out[0].Subject != subConfAck {
		drop(out)
		t.Fatal("well-formed proposal was not acked")
	}
	drop(out)
	if e := g1.Epoch(); e != 1 {
		t.Fatalf("well-formed proposal not adopted: epoch %d", e)
	}
}

// TestStaleTermStateTransferRefused pins the term gate on state
// transfer: an ex-leader partitioned behind the current term must not
// be able to plant a member set, an epoch or a floor on a node that has
// already heard from newer leadership.
func TestStaleTermStateTransferRefused(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{1}, 0)
	g1 := c.groups[1]
	// A prepare from term 5 raises the receiver's term.
	prep := proto.NewMessage()
	prep.Kind = proto.KindPrepare
	prep.To = 1
	prep.Origin = 9
	prep.Term = 5
	drop(g1.AppendStep(nil, prep, now))
	proto.Release(prep)
	if g1.Term() != 5 {
		t.Fatalf("term = %d, want 5", g1.Term())
	}
	mkBegin := func(term int64) *proto.Message {
		m := proto.NewMessage()
		m.Kind = proto.KindStateXfer
		m.To = 1
		m.Origin = 9
		m.Term = term
		m.Epoch = 7
		m.Subject = subXferBegin
		m.Version = 50
		m.Path = append(m.Path, 8, 9)
		return m
	}
	// Term 3 < 5: the begin frame must install nothing and go unacked.
	stale := mkBegin(3)
	if out := g1.AppendStep(nil, stale, now); len(out) != 0 {
		drop(out)
		t.Fatal("stale-term transfer begin was answered")
	}
	proto.Release(stale)
	if e := g1.Epoch(); e != 0 {
		t.Fatalf("stale-term transfer installed epoch %d", e)
	}
	if _, found := c.mems[1].ReplicaConfig(1); found {
		t.Fatal("stale-term transfer reached the journal")
	}
	// The same frame at the current term installs and acks (the empty
	// snapshot has zero chunks, so the begin alone completes it).
	fresh := mkBegin(5)
	out := g1.AppendStep(nil, fresh, now)
	proto.Release(fresh)
	if len(out) != 1 || out[0].Subject != subXferAck {
		drop(out)
		t.Fatal("current-term transfer begin was not acked")
	}
	drop(out)
	if e := g1.Epoch(); e != 7 {
		t.Fatalf("current-term transfer installed epoch %d, want 7", e)
	}
}

// TestDeadMembersIsReadOnly pins that polling the permanent-failure
// signal never perturbs it: before the leader's first Tick no liveness
// clock has started, so monitoring reads — however often and however
// late — report nothing and change nothing. Only Tick starts the clock.
func TestDeadMembersIsReadOnly(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{0}, 0)
	g := c.groups[0]
	horizon := 3 * time.Second
	if d := g.DeadMembers(now, horizon); d != nil {
		t.Fatalf("dead members before any Tick: %v", d)
	}
	if d := g.DeadMembers(now.Add(2*horizon), horizon); d != nil {
		t.Fatalf("a monitoring poll started the silence clock: %v", d)
	}
	g.BootLeader()
	if d := g.DeadMembers(now.Add(4*horizon), horizon); d != nil {
		t.Fatalf("dead members before the leader's first Tick: %v", d)
	}
	// The first Tick seeds the clock; peers silent past the horizon from
	// that point on are reported.
	tickAt := now.Add(4 * horizon)
	drop(g.AppendTick(nil, tickAt))
	if d := g.DeadMembers(tickAt.Add(horizon/2), horizon); d != nil {
		t.Fatalf("dead members inside the horizon: %v", d)
	}
	if d := g.DeadMembers(tickAt.Add(horizon), horizon); len(d) != 2 {
		t.Fatalf("dead members past the horizon = %v, want both peers", d)
	}
}

// TestSteadyStateRoundAllocs pins one steady-state replication round on
// three members over store.Mem — leader Bump, follower Step(Accept),
// leader Step(Promise), leader Tick with its commit frames delivered —
// at zero allocations when the caller reuses its frame slices.
func TestSteadyStateRoundAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{0, 1, 2}, 0)
	g := c.groups[0]
	g.BootLeader()
	c.pump(g.AppendTick(nil, now), now)
	var frames, acks []*proto.Message
	var want int64
	round := func() {
		want++
		var v int64
		var ok bool
		v, frames, ok = g.AppendBump(frames[:0], 0, want, 2000.5, now)
		if !ok || v != want || len(frames) != 2 {
			t.Fatalf("Bump(%d) = %d, %d accepts, %v; want the version and 2 accepts", want, v, len(frames), ok)
		}
		for _, m := range frames {
			acks = c.groups[m.To].AppendStep(acks[:0], m, now)
			proto.Release(m)
			for _, a := range acks {
				if extra := g.AppendStep(nil, a, now); len(extra) != 0 {
					t.Fatalf("leader answered an accept ack with %d frames", len(extra))
				}
				proto.Release(a)
			}
		}
		frames = g.AppendTick(frames[:0], now) // the commit frames
		for _, m := range frames {
			acks = c.groups[m.To].AppendStep(acks[:0], m, now)
			proto.Release(m)
		}
		if len(frames) != 2 || len(acks) != 0 || g.Committed(0) != want {
			t.Fatalf("Tick sent %d commits, %d answers; committed %d; want 2, none and %d",
				len(frames), len(acks), g.Committed(0), want)
		}
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a steady-state round allocates %.0f objects, want 0", allocs)
	}
}

// quorumFloorBySort is the reference for setAcceptedLocked: sort one
// set's accepted versions in descending order and take the
// majority-th.
func quorumFloorBySort(g *Group, set []int, key int) int64 {
	if len(set) == 0 {
		return 0
	}
	vals := make([]int64, 0, len(set))
	for _, id := range set {
		if id == g.cfg.ID {
			vals = append(vals, g.log[key].version)
		} else {
			vals = append(vals, g.acked[id][key])
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
	return vals[majority(len(set))-1]
}

// TestQuorumFloorMatchesSortReference checks the counting quorum floor
// against the sort-based reference on random member sets of 1–7, random
// acked versions (ties included) and stable and joint configs, with the
// leader inside and outside the sets.
func TestQuorumFloorMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randSet := func() []int {
		set := rng.Perm(10)[:1+rng.Intn(7)]
		sort.Ints(set)
		return set
	}
	const key = 3
	for trial := 0; trial < 5000; trial++ {
		cur := randSet()
		g := New(Config{ID: rng.Intn(10), Members: cur})
		g.BootLeader()
		if rng.Intn(2) == 0 {
			g.installConfLocked(confState{epoch: 1, old: randSet(), cur: cur}, false)
		}
		top := int64(1 + rng.Intn(6)) // small ranges force ties
		if rng.Intn(4) == 0 {
			top = 1 << 40
		}
		for _, id := range append(g.conf.union(), g.cfg.ID) {
			v := rng.Int63n(top)
			if id == g.cfg.ID {
				g.log[key] = entry{version: v}
				continue
			}
			if g.acked[id] == nil {
				g.acked[id] = make(map[int]int64)
			}
			g.acked[id][key] = v
		}
		want := quorumFloorBySort(g, g.conf.cur, key)
		if g.conf.joint() {
			want = min(want, quorumFloorBySort(g, g.conf.old, key))
		}
		if got := g.quorumAcceptedLocked(key); got != want {
			t.Fatalf("trial %d: self %d, old %v, cur %v: quorum floor %d, reference %d",
				trial, g.cfg.ID, g.conf.old, g.conf.cur, got, want)
		}
	}
}
