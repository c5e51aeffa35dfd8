package live

import (
	"testing"
	"time"

	"dup/internal/topology"
)

// queryKey retries a keyed query until the deadline, mirroring how a real
// client rides out in-flight repairs.
func queryKey(t *testing.T, nw *Network, at, key int, deadline time.Duration) QueryResult {
	t.Helper()
	end := time.Now().Add(deadline)
	var last error
	for time.Now().Before(end) {
		r, err := nw.Key(key).Query(at, 250*time.Millisecond)
		if err == nil {
			return r
		}
		last = err
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("query at node %d key %d never resolved: %v", at, key, last)
	return QueryResult{}
}

// TestMultiKeyQueriesResolve boots a cluster with several keyed index
// trees and checks that every key resolves at every node, that the
// per-key counters attribute traffic to the right tree, and that the
// authority serves each key from its own shard.
func TestMultiKeyQueriesResolve(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 16
	cfg.Seed = 11
	cfg.Keys = 3
	nw, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	for key := 0; key < cfg.Keys; key++ {
		for _, id := range []int{0, 5, nw.Nodes() - 1} {
			r := queryKey(t, nw, id, key, 2*time.Second)
			if id == 0 && !r.Local {
				t.Fatalf("authority query for key %d was not local", key)
			}
		}
	}
	keys := nw.Keys()
	if len(keys) < cfg.Keys {
		t.Fatalf("Keys() = %v, want at least %d keys", keys, cfg.Keys)
	}
	for key := 0; key < cfg.Keys; key++ {
		ks := nw.Key(key).Stats()
		if ks.Key != key {
			t.Fatalf("Key(%d).Stats().Key = %d", key, ks.Key)
		}
		if ks.Queries != 3 {
			t.Fatalf("key %d: %d queries attributed, want 3", key, ks.Queries)
		}
		in, err := nw.Key(key).Inspect(0, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !in.IsRoot || !in.HaveCopy {
			t.Fatalf("authority shard for key %d: IsRoot=%v HaveCopy=%v", key, in.IsRoot, in.HaveCopy)
		}
	}
	// The global counters aggregate across keys.
	if got, want := nw.Stats().Queries, int64(3*cfg.Keys); got != want {
		t.Fatalf("global queries = %d, want %d", got, want)
	}
	// A key nobody touched reports zeros.
	if ks := nw.Key(97).Stats(); ks.Queries != 0 || ks.Pushes != 0 {
		t.Fatalf("untouched key has counters: %+v", ks)
	}
}

// TestCrossKeyIsolationUnderFailure is the multi-key data plane's core
// promise: a fault on the node serving one key's hot spot must not
// perturb the other keys' trees. Key 1 is hot at node 2, key 2 at node
// 3; killing node 2 stalls key 1 there while key 2 keeps refreshing,
// and recovery brings key 1 back.
func TestCrossKeyIsolationUnderFailure(t *testing.T) {
	cfg := DefaultConfig()
	//     0
	//     |
	//     1
	//    / \
	//   2   3
	cfg.Tree = topology.FromParents([]int{-1, 0, 1, 1})
	cfg.Nodes = 0
	cfg.Keys = 3
	cfg.TTL = 200 * time.Millisecond
	cfg.Lead = 50 * time.Millisecond
	cfg.Threshold = 1
	cfg.KeepAliveEvery = 50 * time.Millisecond
	cfg.DeadAfter = 250 * time.Millisecond
	nw, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	for i := 0; i < cfg.Threshold+2; i++ {
		queryKey(t, nw, 2, 1, time.Second)
		queryKey(t, nw, 3, 2, time.Second)
	}
	// Both keyed trees must start pushing to their hot node.
	deadline := time.Now().Add(3 * time.Second)
	key1, key2 := nw.Key(1), nw.Key(2)
	for key1.Stats().Pushes == 0 || key2.Stats().Pushes == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pushes never flowed: key1=%+v key2=%+v", key1.Stats(), key2.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}

	nw.Fail(2)
	time.Sleep(cfg.DeadAfter + 4*cfg.KeepAliveEvery)
	key1Stalled := key1.Stats().Pushes
	key2Before := key2.Stats().Pushes
	// Keep key 2 hot across several refresh cycles while node 2 is dead.
	for end := time.Now().Add(4 * cfg.TTL); time.Now().Before(end); {
		queryKey(t, nw, 3, 2, time.Second)
		time.Sleep(cfg.TTL / 4)
	}
	if got := key2.Stats().Pushes; got <= key2Before {
		t.Fatalf("key 2 pushes stalled at %d while key 1's node was dead", got)
	}
	if got := key1.Stats().Pushes; got != key1Stalled {
		t.Fatalf("key 1 pushes moved from %d to %d with its only subscriber dead", key1Stalled, got)
	}

	// Recovery: node 2 rejoins, and key 1 reconverges once it is hot again.
	nw.Recover(2)
	time.Sleep(2 * cfg.KeepAliveEvery)
	for i := 0; i < cfg.Threshold+2; i++ {
		queryKey(t, nw, 2, 1, 2*time.Second)
	}
	deadline = time.Now().Add(3 * time.Second)
	for key1.Stats().Pushes == key1Stalled {
		if time.Now().After(deadline) {
			t.Fatal("key 1 never reconverged after recovery")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJoinKeyLeaveKey exercises per-key membership: a node departs one
// keyed index tree without disturbing its node-level membership or its
// other keys, then rejoins it.
func TestJoinKeyLeaveKey(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tree = topology.FromParents([]int{-1, 0, 0})
	cfg.Nodes = 0
	cfg.Keys = 2
	nw, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()

	if err := nw.Key(0).Leave(1); err == nil {
		t.Fatal("Key(0).Leave accepted key 0 (node-level membership)")
	}
	if err := nw.Key(-1).Join(1); err == nil {
		t.Fatal("Key(-1).Join accepted a negative key")
	}

	h := nw.Key(1)
	if h.Key() != 1 {
		t.Fatalf("Key(1).Key() = %d", h.Key())
	}
	queryKey(t, nw, 1, 1, 2*time.Second)
	in, err := h.Inspect(1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !hasKey(in.Keys, 1) {
		t.Fatalf("node 1 missing shard for key 1: keys %v", in.Keys)
	}

	if err := h.Leave(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		in, err = h.Inspect(1, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !hasKey(in.Keys, 1) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard for key 1 still present after Leave: keys %v", in.Keys)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Node-level membership and the other keys are untouched.
	if !hasKey(in.Keys, 0) {
		t.Fatalf("keyed Leave removed the key-0 shard: keys %v", in.Keys)
	}
	queryKey(t, nw, 1, 0, 2*time.Second)

	if err := h.Join(1); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for {
		in, err = h.Inspect(1, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if hasKey(in.Keys, 1) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard for key 1 never reappeared after Join")
		}
		time.Sleep(20 * time.Millisecond)
	}
	queryKey(t, nw, 1, 1, 2*time.Second)
}

func hasKey(keys []int, key int) bool {
	for _, k := range keys {
		if k == key {
			return true
		}
	}
	return false
}
