package live

import (
	"testing"
	"time"

	"dup/internal/proto"
)

// TestBurstHandlerFullInboxDropsAndBalances pins the burst path's
// ownership rule without a transport in the loop: a burst wider than the
// lane inbox parks what fits, releases the overflow here (never handing
// it back to the transport) and counts every refusal as an inbox drop —
// on the dead-node path too. Nothing pooled may leak.
func TestBurstHandlerFullInboxDropsAndBalances(t *testing.T) {
	base := proto.InUse()
	nw := &Network{cfg: DefaultConfig(), keyStats: map[int]*keyCounters{}}
	n := newNode(nw, 1, 0) // lanes never started: the inbox only fills

	const overflow = 6
	burst := make([]*proto.Message, 0, inboxDepth+overflow)
	for i := 0; i < inboxDepth+overflow; i++ {
		m := proto.NewMessage()
		m.Kind, m.To, m.Origin, m.Seq = proto.KindPush, 1, 0, int64(i)
		burst = append(burst, m)
	}
	n.burstHandler()(burst)
	if got := nw.stats.inboxDrops.Load(); got != overflow {
		t.Fatalf("%d messages into a depth-%d inbox: %d inbox drops, want %d",
			inboxDepth+overflow, inboxDepth, got, overflow)
	}
	if got := proto.InUse(); got != base+inboxDepth {
		t.Fatalf("%d messages in use, want the %d parked in the inbox (base %d, got %d)",
			got-base, inboxDepth, base, got)
	}

	// The per-message handler counts refusals into the same signal.
	m := proto.NewMessage()
	m.Kind, m.To = proto.KindPush, 1
	if n.handler()(m) {
		t.Fatal("handler accepted into a full inbox")
	}
	proto.Release(m) // a refusal leaves ownership with the caller
	if got := nw.stats.inboxDrops.Load(); got != overflow+1 {
		t.Fatalf("inbox drops = %d after a per-message refusal, want %d", got, overflow+1)
	}

	// A dead node refuses the whole burst.
	n.dead.Store(true)
	burst = burst[:0]
	for i := 0; i < 3; i++ {
		m := proto.NewMessage()
		m.Kind, m.To = proto.KindPush, 1
		burst = append(burst, m)
	}
	n.burstHandler()(burst)
	if got := nw.stats.inboxDrops.Load(); got != overflow+4 {
		t.Fatalf("inbox drops = %d after a dead-node burst, want %d", got, overflow+4)
	}

	n.drain() // release the parked messages, as Stop would
	if got := proto.InUse(); got != base {
		t.Fatalf("pooled messages leaked: %d in use, want %d", got, base)
	}
}

// TestInboxBurstCountersPopulate boots a small cluster and checks the
// drain-batch observability plumbing: every lane wakeup observes a batch
// of at least one, so the max/mean pair must come out positive once any
// traffic (here, keep-alives) has flowed.
func TestInboxBurstCountersPopulate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 8
	nw, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	deadline := time.Now().Add(3 * time.Second)
	for {
		s := nw.Stats()
		if s.InboxBurstMax >= 1 && s.InboxBurstMean >= 1 {
			if int64(s.InboxBurstMean+0.5) > s.InboxBurstMax {
				t.Fatalf("burst mean %.2f exceeds max %d", s.InboxBurstMean, s.InboxBurstMax)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("burst counters never populated: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
