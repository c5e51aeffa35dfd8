package live

import (
	"testing"
	"time"

	"dup/internal/faults"
	"dup/internal/proto"
	"dup/internal/topology"
	"dup/internal/transport"
)

// bootFaulty starts a single-process network whose in-process fabric sits
// behind a fault wrapper, returning both.
func bootFaulty(t *testing.T, cfg Config, fcfg faults.Config) (*Network, *faults.Transport) {
	t.Helper()
	fcfg.CloseInner = true
	tree := cfg.BuildTree()
	f := faults.Wrap(transport.NewChan(transport.ChanConfig{HopDelay: cfg.HopDelay, Seed: cfg.Seed}), fcfg)
	hosts := make([]int, tree.N())
	for i := range hosts {
		hosts[i] = i
	}
	nw, err := StartWith(cfg, Options{Transport: f, Directory: NewMemDirectory(tree), Hosts: hosts})
	if err != nil {
		f.Close()
		t.Fatal(err)
	}
	t.Cleanup(nw.Stop)
	return nw, f
}

// TestLostPushIsRetransmitted drops an authority push on the floor and
// asserts the delivery guarantee: the push is retransmitted after the ack
// goes missing and the subscriber converges to the new version while its
// old cached copy is still valid — i.e. without waiting for TTL expiry.
func TestLostPushIsRetransmitted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tree = topology.FromParents([]int{-1, 0})
	cfg.TTL = 300 * time.Millisecond
	cfg.Lead = 100 * time.Millisecond
	cfg.Threshold = 1
	cfg.HopDelay = 100 * time.Microsecond
	cfg.KeepAliveEvery = 15 * time.Millisecond
	cfg.DeadAfter = 250 * time.Millisecond
	nw, f := bootFaulty(t, cfg, faults.Config{Seed: 1})

	// Make node 1 hot so it subscribes and starts receiving pushes.
	query(t, nw, 1, 2*time.Second)
	query(t, nw, 1, 2*time.Second)
	waitUntil(t, 4*cfg.TTL, "node 1 to hold a pushed copy", func() bool {
		in, err := nw.Inspect(1, time.Second)
		return err == nil && in.HaveCopy && nw.Stats().Pushes > 0
	})

	// Cut only pushes to node 1 (acks and keep-alives still flow) and wait
	// for the next refresh push to be dropped.
	drops0 := nw.Stats().DropsByKind[proto.KindPush]
	f.BlockKind(1, proto.KindPush)
	waitUntil(t, 4*cfg.TTL, "a push to be dropped", func() bool {
		return nw.Stats().DropsByKind[proto.KindPush] > drops0
	})
	in0, err := nw.Inspect(1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	f.UnblockKind(1, proto.KindPush)

	// The retransmission must land while node 1's current copy is still
	// valid: convergence comes from the reliability layer, not from the
	// cache expiring and a query refetching.
	waitUntil(t, 4*cfg.TTL, "node 1 to converge past the dropped push", func() bool {
		in, err := nw.Inspect(1, time.Second)
		return err == nil && in.Version > in0.Version
	})
	if now := time.Now(); !now.Before(in0.Expiry) {
		t.Fatalf("converged only after the old copy expired (%v past expiry)", now.Sub(in0.Expiry))
	}
	s := nw.Stats()
	if s.Retransmits == 0 || s.RetransmitsByKind[proto.KindPush] == 0 {
		t.Fatalf("no push retransmissions recorded: %+v", s)
	}
	if s.Acks == 0 || s.AcksByKind[proto.KindPush] == 0 {
		t.Fatalf("no push acks recorded: %+v", s)
	}
	if s.RetransmitGiveUps != 0 {
		t.Fatalf("reliability layer gave up %d times on a healed link", s.RetransmitGiveUps)
	}
}

// TestDuplicateDeliveriesAreSuppressed doubles every message at the
// transport and asserts the receivers absorb the copies: protocol
// behaviour stays correct and the duplicates are counted, not re-applied.
func TestDuplicateDeliveriesAreSuppressed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tree = topology.FromParents([]int{-1, 0, 0})
	cfg.TTL = 300 * time.Millisecond
	cfg.Lead = 60 * time.Millisecond
	cfg.Threshold = 1
	cfg.HopDelay = 100 * time.Microsecond
	cfg.KeepAliveEvery = 15 * time.Millisecond
	cfg.DeadAfter = 100 * time.Millisecond
	nw, _ := bootFaulty(t, cfg, faults.Config{Seed: 2, Duplicate: 1})

	query(t, nw, 1, 2*time.Second)
	query(t, nw, 1, 2*time.Second)
	waitUntil(t, 6*cfg.TTL, "duplicated pushes to be suppressed", func() bool {
		s := nw.Stats()
		return s.DupSuppressed > 0 && s.DupSuppressedByKind[proto.KindPush] > 0
	})
	// Queries still resolve to a coherent version stream.
	r1 := query(t, nw, 1, 2*time.Second)
	r2 := query(t, nw, 2, 2*time.Second)
	if r1.Version < 0 || r2.Version < 0 {
		t.Fatalf("bogus versions under duplication: %d, %d", r1.Version, r2.Version)
	}
}

// TestAckTimeoutEscalatesToRepair drops every push to a subscriber and
// asserts the sender's retransmit deadline escalates into the Section
// III-C path: the unresponsive neighbour is unsubscribed even though its
// keep-alives stay healthy, so the keep-alive detector cannot be what
// noticed.
func TestAckTimeoutEscalatesToRepair(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tree = topology.FromParents([]int{-1, 0})
	cfg.TTL = 200 * time.Millisecond
	cfg.Lead = 50 * time.Millisecond
	cfg.Threshold = 1
	cfg.HopDelay = 100 * time.Microsecond
	nw, f := bootFaulty(t, cfg, faults.Config{Seed: 3})

	query(t, nw, 1, 2*time.Second)
	query(t, nw, 1, 2*time.Second)
	waitUntil(t, 6*cfg.TTL, "node 1 to be subscribed and pushed to", func() bool {
		in, err := nw.Inspect(0, time.Second)
		return err == nil && len(in.PushTargets) > 0 && nw.Stats().Pushes > 0
	})

	// Silently eat pushes to node 1, bare or coalesced (BlockKind matches
	// only the top-level kind): they go unacked while keep-alives still
	// flow, so only the retransmit deadline can notice. Keep node 1 hot
	// while waiting so the interest policy doesn't unsubscribe it first and
	// mask the escalation.
	f.BlockKind(1, proto.KindPush)
	f.BlockKind(1, proto.KindBatch)
	waitUntil(t, 8*cfg.TTL, "ack timeout to unsubscribe the unresponsive neighbour", func() bool {
		nw.Query(1, 50*time.Millisecond) // keep interest up
		in, err := nw.Inspect(0, time.Second)
		return err == nil && nw.Stats().RetransmitGiveUps > 0 && len(in.Subscribers) == 0
	})
}
