package live

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dup/internal/proto"
	"dup/internal/rng"
	"dup/internal/transport"
)

// wireErrLog collects transport diagnostics and remembers every wire-level
// decode failure: with sharded lanes writing concurrently to the same
// neighbour sockets, a locking bug in the outbox or writer would surface
// as interleaved bytes inside a frame, which the codec reports as a
// "wire:" error on the receiving side.
type wireErrLog struct {
	mu     sync.Mutex
	broken []string
}

func (w *wireErrLog) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	if strings.Contains(line, "wire:") {
		w.mu.Lock()
		w.broken = append(w.broken, line)
		w.mu.Unlock()
	}
}

func (w *wireErrLog) corrupted() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.broken...)
}

// TestStressShardedLanesTCP hammers many keyed shards of sharded
// (ShardLoops > 1) nodes over real sockets while the tree repairs around
// failing and recovering peers. It asserts the three properties the
// sharded data plane must keep: queries keep resolving on every lane, no
// frame is ever corrupted by concurrent lane flushes (no "wire:" decode
// errors at any receiver), and the pooled-message accounting returns to
// balance after shutdown. Run with -race: the lanes of one node share the
// node-level atomics and the per-connection write queues, which is
// exactly where a data race would live.
func TestStressShardedLanesTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped with -short")
	}
	base := proto.InUse()

	cfg := DefaultConfig()
	cfg.Nodes = 12
	cfg.MaxDegree = 3
	cfg.Keys = 8
	cfg.ShardLoops = 4
	cfg.Seed = 7

	hostSets := [][]int{{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}}
	elog := &wireErrLog{}
	tcps := make([]*transport.TCP, len(hostSets))
	for i := range hostSets {
		tr, err := transport.NewTCP(transport.TCPConfig{
			Listen:      "127.0.0.1:0",
			Seed:        uint64(i + 1),
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  100 * time.Millisecond,
			Logf:        elog.logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		tcps[i] = tr
	}
	addrOf := map[int]string{}
	for i, hosts := range hostSets {
		for _, id := range hosts {
			addrOf[id] = tcps[i].Addr()
		}
	}
	for i := range tcps {
		local := map[int]bool{}
		for _, id := range hostSets[i] {
			local[id] = true
		}
		for id, addr := range addrOf {
			if !local[id] {
				tcps[i].SetPeer(id, addr)
			}
		}
	}
	dir := NewMemDirectory(cfg.BuildTree())
	nets := make([]*Network, len(hostSets))
	for i, hosts := range hostSets {
		nw, err := StartWith(cfg, Options{Transport: tcps[i], Directory: dir, Hosts: hosts})
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = nw
	}
	stopped := false
	stopAll := func() {
		if !stopped {
			stopped = true
			for _, nw := range nets {
				nw.Stop()
			}
		}
	}
	defer stopAll()

	whose := func(id int) *Network {
		if id < len(hostSets[0]) {
			return nets[0]
		}
		return nets[1]
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Eight concurrent workers per the keyed handle API, each hammering
	// random (node, key) pairs so every lane of every node carries
	// traffic at once.
	var resolved sync.Map
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(w + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				at := src.Intn(cfg.Nodes)
				key := src.Intn(cfg.Keys)
				if _, err := whose(at).Key(key).Query(at, 200*time.Millisecond); err == nil {
					ct, _ := resolved.LoadOrStore(w, new(int))
					*ct.(*int)++
				}
			}
		}(w)
	}

	// Churn driver: fail and recover random non-root nodes so the tree
	// repairs (re-homing, re-announced virtual paths, authority refresh)
	// while every lane keeps flushing into the shared sockets. Every exit
	// recovers the nodes it downed, so the final audit sees a whole cluster.
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := rng.New(42)
		down := map[int]bool{}
	churn:
		for i := 0; i < 16; i++ {
			select {
			case <-stop:
				break churn
			default:
			}
			victim := 1 + src.Intn(cfg.Nodes-1)
			if down[victim] {
				whose(victim).Recover(victim)
				delete(down, victim)
			} else {
				whose(victim).Fail(victim)
				down[victim] = true
			}
			time.Sleep(75 * time.Millisecond)
		}
		for v := range down {
			whose(v).Recover(v)
		}
	}()

	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()

	total := 0
	resolved.Range(func(_, v any) bool { total += *v.(*int); return true })
	if total == 0 {
		t.Fatal("no query resolved during sharded churn")
	}

	// After churn settles, every key must answer at every node: each
	// lane's shards repaired and the authority schedule kept running.
	time.Sleep(cfg.DeadAfter + 4*cfg.KeepAliveEvery)
	for id := 0; id < cfg.Nodes; id++ {
		for key := 0; key < cfg.Keys; key++ {
			if _, err := whose(id).Key(key).Query(id, 3*time.Second); err != nil {
				t.Fatalf("node %d key %d did not answer after churn: %v", id, key, err)
			}
		}
	}

	if broken := elog.corrupted(); len(broken) > 0 {
		t.Fatalf("concurrent lane flushes corrupted %d frame(s): %q", len(broken), broken[0])
	}

	// Pooled-message balance: once the networks stop, every message the
	// cluster ever allocated must be back in the pool.
	stopAll()
	deadline := time.Now().Add(5 * time.Second)
	for proto.InUse() > base {
		if time.Now().After(deadline) {
			t.Fatalf("proto pool unbalanced after stop: %d messages still out", proto.InUse()-base)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("resolved %d queries across %d keys x %d lanes during churn", total, cfg.Keys, cfg.ShardLoops)
}
