package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"dup/internal/proto"
	"dup/internal/raceflag"
)

// TestTCPSendReceiveAllocs pins the socket path's steady state at zero
// allocations per frame, both directions of the pipe included (encode,
// queue, gathered writev, burst decode, dispatch): AllocsPerRun counts
// every goroutine's mallocs. A net.Buffers header declared inside the
// write loop — WriteTo has a pointer receiver — costs one object per writev
// and fails it.
func TestTCPSendReceiveAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	a, b := tcpPair(t)
	var got atomic.Int64
	b.Register(2, func(m *proto.Message) bool {
		proto.Release(m)
		got.Add(1)
		return true
	})
	b.RegisterBurst(2, func(ms []*proto.Message) {
		for _, m := range ms {
			proto.Release(m)
		}
		got.Add(int64(len(ms)))
	})
	var sent int64
	send := func() {
		m := proto.NewMessage()
		m.Kind, m.To, m.Origin, m.Version = proto.KindPush, 2, 1, sent
		a.Send(m)
		sent++
		// One frame in flight at a time: every frame is its own writev, the
		// worst case for a per-gather cost.
		for deadline := time.Now().Add(3 * time.Second); got.Load() < sent; {
			if time.Now().After(deadline) {
				t.Fatalf("frame %d not delivered", sent)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	for i := 0; i < 200; i++ { // dial, grow the pools and the burst slices
		send()
	}
	if allocs := testing.AllocsPerRun(500, send); allocs != 0 {
		t.Fatalf("TCP send+receive allocates %.0f objects per frame, want 0", allocs)
	}
}
