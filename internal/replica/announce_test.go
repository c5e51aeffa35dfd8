package replica

import (
	"testing"
	"time"

	"dup/internal/proto"
)

// TestNextAnnounceLeaderAndLeaseGated pins who may bump the soft-state
// tree's root sequence: only the current leaseholder, and only while its
// lease is live. Followers and lease-expired leaders get (0, false), and
// the values a serving leader hands out are strictly increasing.
func TestNextAnnounceLeaderAndLeaseGated(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{0, 1, 2}, 0)
	g := c.groups[0]
	if _, ok := g.NextAnnounce(now); ok {
		t.Fatal("follower issued an announce sequence")
	}
	g.BootLeader()
	if _, ok := g.NextAnnounce(now); ok {
		t.Fatal("leader issued an announce sequence before any lease ack")
	}
	c.pump(g.AppendTick(nil, now), now)
	var prev int64
	for i := 0; i < 5; i++ {
		s, ok := g.NextAnnounce(now)
		if !ok {
			t.Fatalf("serving leader refused announce %d", i)
		}
		if s <= prev {
			t.Fatalf("announce sequence not increasing: %d after %d", s, prev)
		}
		prev = s
	}
	// The lease runs out unrenewed; the sequence source dries up with it.
	later := now.Add(2 * time.Second)
	drop(g.AppendTick(nil, later))
	if _, ok := g.NextAnnounce(later); ok {
		t.Fatal("leader issued an announce sequence past an expired lease")
	}
}

// TestNextAnnounceMonotoneAcrossFailover is the soft-state half of the
// fail-over floor: a successor's announce sequences must land strictly
// above everything the deposed leader ever issued (terms are the high
// bits), and the deposed leader must fall silent the moment it learns of
// the higher term.
func TestNextAnnounceMonotoneAcrossFailover(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{0, 1, 2}, 0)
	g0 := c.groups[0]
	g0.BootLeader()
	c.pump(g0.AppendTick(nil, now), now)
	var highest int64
	for i := 0; i < 100; i++ {
		s, ok := g0.NextAnnounce(now)
		if !ok {
			t.Fatalf("serving leader refused announce %d", i)
		}
		highest = s
	}
	// Replica 1 takes over (the old leader's promise never arrives).
	g1 := c.groups[1]
	var kept []*proto.Message
	for _, m := range g1.AppendStartCandidate(nil, now) {
		if m.To == 0 {
			proto.Release(m)
			continue
		}
		kept = append(kept, m)
	}
	c.pump(kept, now)
	if !g1.Leading() {
		t.Fatal("candidate did not reach quorum with one peer alive")
	}
	s, ok := g1.NextAnnounce(now)
	if !ok {
		t.Fatal("new leaseholder refused to announce")
	}
	if s <= highest {
		t.Fatalf("announce sequence regressed across fail-over: %d after %d", s, highest)
	}
	// The old leader comes back and hears the higher term on the next
	// renewal round: it must fall silent for good.
	c.pump(g1.AppendTick(nil, now.Add(400*time.Millisecond)), now.Add(400*time.Millisecond))
	if _, ok := g0.NextAnnounce(now); ok {
		t.Fatal("deposed leader still issuing announce sequences")
	}
}

// TestReserveStatus checks the stats surface: lag is the widest gap
// between a key's log head and its quorum-accepted version, headroom is
// what remains of the reserve, and non-leaders report leading=false.
func TestReserveStatus(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCluster(t, []int{0, 1, 2}, []int{0, 1, 2}, 2)
	g := c.groups[0]
	if _, _, leading := g.ReserveStatus(); leading {
		t.Fatal("follower claims to lead")
	}
	g.BootLeader()
	c.pump(g.AppendTick(nil, now), now)
	if lag, headroom, leading := g.ReserveStatus(); !leading || lag != 0 || headroom != 2 {
		t.Fatalf("idle leader: lag=%d headroom=%d leading=%v, want 0, 2, true", lag, headroom, leading)
	}
	// Two exposures ride the reserve with the followers partitioned: the
	// log head runs two ahead of anything a quorum accepted.
	var pending []*proto.Message
	for want := int64(1); want <= 2; want++ {
		v, out, ok := g.AppendBump(nil, 0, want, 2000.5, now)
		pending = append(pending, out...)
		if !ok || v != want {
			t.Fatalf("Bump(%d) = (%d, ok=%v) inside the reserve", want, v, ok)
		}
	}
	if lag, headroom, leading := g.ReserveStatus(); !leading || lag != 2 || headroom != 0 {
		t.Fatalf("exhausted reserve: lag=%d headroom=%d leading=%v, want 2, 0, true", lag, headroom, leading)
	}
	// Heal; the accepts drain the lag and reopen the headroom.
	c.pump(pending, now)
	if lag, headroom, leading := g.ReserveStatus(); !leading || lag != 0 || headroom != 2 {
		t.Fatalf("healed leader: lag=%d headroom=%d leading=%v, want 0, 2, true", lag, headroom, leading)
	}
}
