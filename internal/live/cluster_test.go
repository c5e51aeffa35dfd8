package live

import (
	"fmt"
	"testing"
	"time"

	"dup/internal/faults"
	"dup/internal/proto"
	"dup/internal/topology"
	"dup/internal/transport"
)

// bootTCPCluster starts one Network per host set, each on its own TCP
// transport bound to 127.0.0.1 behind a fault wrapper, all sharing one
// in-process Directory — a loopback stand-in for a multi-process deployment.
// Every message between host sets crosses a real socket, and each
// endpoint's wrapper is the handle for hurting it.
func bootTCPCluster(t *testing.T, cfg Config, hostSets [][]int) ([]*Network, []*faults.Transport) {
	t.Helper()
	tcps := make([]*transport.TCP, len(hostSets))
	trs := make([]*faults.Transport, len(hostSets))
	for i := range hostSets {
		tr, err := transport.NewTCP(transport.TCPConfig{
			Listen:      "127.0.0.1:0",
			Seed:        uint64(i + 1),
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		tcps[i] = tr
		trs[i] = faults.Wrap(tr, faults.Config{Seed: uint64(i + 1), CloseInner: true})
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
	tree := cfg.BuildTree()
	dir := NewMemDirectory(tree)
	nets := make([]*Network, len(hostSets))
	for i, hosts := range hostSets {
		nw, err := StartWith(cfg, Options{Transport: trs[i], Directory: dir, Hosts: hosts})
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = nw
	}
	t.Cleanup(func() {
		for _, nw := range nets {
			nw.Stop()
		}
	})
	return nets, trs
}

// netFor returns the network hosting node id.
func netFor(t *testing.T, nets []*Network, hostSets [][]int, id int) *Network {
	t.Helper()
	for i, hosts := range hostSets {
		for _, h := range hosts {
			if h == id {
				return nets[i]
			}
		}
	}
	t.Fatalf("node %d hosted nowhere", id)
	return nil
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPLoopbackCluster runs a 9-node cluster split across three TCP
// transports: queries resolve everywhere over real sockets, authority
// pushes reach hot subscribers, and the Section III-C recovery heals the
// tree after a non-root node is killed mid-run.
func TestTCPLoopbackCluster(t *testing.T) {
	//        0
	//      /   \
	//     1     2
	//    / \   / \
	//   3   4 5   6
	//   |   |
	//   7   8
	tree := topology.FromParents([]int{-1, 0, 0, 1, 1, 2, 2, 3, 4})
	cfg := DefaultConfig()
	cfg.Tree = tree
	hostSets := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}
	nets, _ := bootTCPCluster(t, cfg, hostSets)

	// Every node answers over the socket fabric.
	for id := 0; id < tree.N(); id++ {
		nw := netFor(t, nets, hostSets, id)
		r := query(t, nw, id, 3*time.Second)
		if id == 0 && !r.Local {
			t.Fatal("authority node query was not local")
		}
	}

	// Make the deep leaves hot so they subscribe; the authority's pushes
	// must then reach them across two socket hops and turn their queries
	// into local hits.
	for _, hot := range []int{7, 8} {
		nw := netFor(t, nets, hostSets, hot)
		for i := 0; i < cfg.Threshold+2; i++ {
			query(t, nw, hot, 2*time.Second)
		}
	}
	for _, hot := range []int{7, 8} {
		nw := netFor(t, nets, hostSets, hot)
		waitUntil(t, 4*cfg.TTL, fmt.Sprintf("pushes to reach node %d", hot), func() bool {
			r, err := nw.Query(hot, 500*time.Millisecond)
			return err == nil && r.Local
		})
	}
	if s := netFor(t, nets, hostSets, 7).Stats(); s.Subscribes == 0 {
		t.Fatal("hot leaf 7 never subscribed")
	}
	waitUntil(t, 4*cfg.TTL, "authority pushes to arrive at the hot leaves' host", func() bool {
		return netFor(t, nets, hostSets, 7).Stats().Pushes > 0
	})

	// Kill an interior non-root node mid-run. Its children (hosted by a
	// different transport) must detect the death via keep-alive timeouts
	// and re-home, after which the whole subtree answers again.
	victim := 1
	netFor(t, nets, hostSets, victim).Fail(victim)
	time.Sleep(cfg.DeadAfter + 4*cfg.KeepAliveEvery)
	for _, id := range []int{3, 4, 7, 8} {
		query(t, netFor(t, nets, hostSets, id), id, 4*time.Second)
	}

	// And it rejoins cleanly.
	netFor(t, nets, hostSets, victim).Recover(victim)
	time.Sleep(2 * cfg.KeepAliveEvery)
	query(t, netFor(t, nets, hostSets, victim), victim, 3*time.Second)
	if got := netFor(t, nets, hostSets, 0).RootID(); got != 0 {
		t.Fatalf("authority moved to %d after a non-root failure", got)
	}
}

// TestTCPClusterKeepAliveMissSubstitute isolates a leaf with the fault
// wrapper and asserts the exact Section III-C consequence: the branch point
// above it misses keep-alives, synthesises the unsubscribe, leaves the
// DUP tree with substitute(self, remaining), and the intermediate node
// forwards the substitution — two substitute emissions, deterministically.
// Healing the faults lets the leaf rejoin and resolve queries again.
func TestTCPClusterKeepAliveMissSubstitute(t *testing.T) {
	//   0 - 1 - 2 - {3, 4}
	tree := topology.FromParents([]int{-1, 0, 1, 2, 2})
	cfg := DefaultConfig()
	cfg.Tree = tree
	// Disable the organic interest policy (the polling queries below would
	// otherwise trip intermediate nodes' thresholds and grow the tree
	// non-deterministically): membership comes only from the injected
	// subscriptions.
	cfg.Threshold = 1 << 20
	hostSets := [][]int{{0, 1, 2, 4}, {3}}
	nets, trs := bootTCPCluster(t, cfg, hostSets)
	netA, netB := nets[0], nets[1]
	trA, trB := trs[0], trs[1]

	// Build the DUP tree deterministically by injecting the leaves'
	// subscriptions at their parent, exactly as the wire would carry them:
	// subscribe(4) makes 2-1-0 a virtual path for 4; subscribe(3) then
	// makes 2 a branch point (substitute(4, 2) travels up).
	subscribe := func(at, subject int) {
		m := proto.NewMessage()
		m.Kind, m.To, m.Origin, m.Subject = proto.KindSubscribe, at, subject, subject
		trA.Send(m)
	}
	subscribe(2, 4)
	subscribe(2, 3)

	// Let several push and keep-alive rounds complete. The window is
	// query-free, so a valid cache at either leaf afterwards can only have
	// come from an authority push — a path-cached reply would need a query
	// to prime it — and node 2 has seen enough of 3's keep-alives to hold
	// it in its failure detector.
	time.Sleep(2 * cfg.TTL)
	for _, leaf := range []int{3, 4} {
		nw := netFor(t, nets, hostSets, leaf)
		if r := query(t, nw, leaf, 2*time.Second); !r.Local {
			t.Fatalf("no push reached leaf %d", leaf)
		}
	}
	base := netA.Stats().Substitutes

	// Cut node 3 off in both directions: its endpoint crashes (outbound
	// dropped, inbound refused) and side A additionally drops traffic to
	// it at the source. Node 2 now misses 3's keep-alives.
	trB.Crash()
	trA.Block(3)

	// Section III-C: 2's failure detector fires, it unsubscribes 3, drops
	// to one subscriber, and leaves the tree with substitute(2, 4); node 1
	// forwards substitute(2, 4) upstream. Exactly two emissions on side A.
	waitUntil(t, 10*cfg.DeadAfter, "substitute pair after keep-alive miss", func() bool {
		return netA.Stats().Substitutes >= base+2
	})
	if got := netA.Stats().Substitutes; got != base+2 {
		t.Fatalf("substitutes = %d, want exactly %d", got, base+2)
	}

	// The surviving leaf keeps receiving pushes on the repaired tree: after
	// another query-free window every pre-repair cache has expired, so a
	// local hit proves fresh pushes are flowing root -> 4 directly.
	time.Sleep(2 * cfg.TTL)
	if r := query(t, netA, 4, 2*time.Second); !r.Local {
		t.Fatal("pushes stopped reaching leaf 4 after the substitution")
	}

	// Heal the partition: node 3 answers queries again (through whatever
	// ancestor it re-homed under while isolated).
	trB.Restart()
	trA.Unblock(3)
	waitUntil(t, 5*time.Second, "leaf 3 to resolve queries after healing", func() bool {
		_, err := netB.Query(3, 500*time.Millisecond)
		return err == nil
	})
}
