package main

import (
	"fmt"
	"os"
	"time"

	"dup/internal/live"
	"dup/internal/store"
	"dup/internal/topology"
	"dup/internal/transport"
)

// treeSeed fixes the index search tree for every run: tree shape sets
// depth and therefore every latency and hop count, so it is part of the
// workload definition, not of the seeded inputs.
const treeSeed = 12

// settle is the idle time between boot and the first query. Booting under
// load expires every non-root node's root path once and re-homes it
// (README, hazard 1), after which hop counts are bimodal.
const settle = 1500 * time.Millisecond

// timers is the protocol clock of every live workload: DefaultConfig's,
// except Lead. With the default Lead of 80 ms, TTL - Lead is exactly eight
// keep-alive ticks and timer jitter decides, refresh by refresh and lane
// by lane, whether the authority republishes after eight ticks or nine
// (README, hazard 5); with 100 ms it is always eight.
const lead = 100 * time.Millisecond

// clusterSpec is the shape of one live workload's cluster.
type clusterSpec struct {
	nodes, keys, lanes int
	threshold          int
	replicas           int
	tcp                bool // three Networks joined by loopback TCP; else one Network over Chan
}

// cluster is one booted epoch: fresh Networks, fresh transports, and for
// the replicated workload a fresh file-backed journal.
type cluster struct {
	spec  clusterSpec
	cfg   live.Config
	tree  *topology.Tree
	nets  []*live.Network
	netOf []int // node id -> index into nets
	tcps  []*transport.TCP
	store *store.Store
	dir   string // journal directory, removed on stop
}

func (c *cluster) net(node int) *live.Network { return c.nets[c.netOf[node]] }

func (spec clusterSpec) config() live.Config {
	cfg := live.DefaultConfig() // TTL 400ms, KeepAlive 40ms, DeadAfter 150ms, RootAnnounce 100ms
	cfg.Lead = lead
	cfg.Nodes = spec.nodes
	cfg.MaxDegree = 4
	cfg.Seed = treeSeed
	cfg.Threshold = spec.threshold
	cfg.HopDelay = 0 // Chan: latency is processor + disk time only
	cfg.Keys = spec.keys
	cfg.ShardLoops = spec.lanes
	cfg.Replicas = spec.replicas
	return cfg
}

// boot starts the cluster. seed only jitters the TCP dial backoff; tr, when
// non-nil, interposes the tracing wrappers. outDir holds the replicated
// workload's journal (the benchmark may only write inside its checkout).
func boot(spec clusterSpec, seed uint64, tr *tracer, outDir string) (*cluster, error) {
	c := &cluster{spec: spec, cfg: spec.config()}
	c.tree = c.cfg.BuildTree()
	c.netOf = make([]int, spec.nodes)

	if spec.replicas > 1 {
		dir, err := os.MkdirTemp(outDir, "journal-")
		if err != nil {
			return nil, err
		}
		c.dir = dir
		if c.store, err = store.Open(dir); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	var journal store.Journal
	switch {
	case c.store != nil && tr != nil:
		journal = tr.wrapJournal(c.store, c.dir)
	case c.store != nil:
		journal = c.store
	}

	if !spec.tcp {
		var t transport.Transport = transport.NewChan(transport.ChanConfig{Seed: seed})
		hosts := make([]int, spec.nodes)
		for i := range hosts {
			hosts[i] = i
		}
		if tr != nil {
			t = tr.wrapTransport(t, hosts)
		}
		nw, err := live.StartWith(c.cfg, live.Options{
			Transport: t,
			Directory: live.NewDynDirectory(c.tree, c.cfg.MaxDegree),
			Hosts:     hosts,
			Journal:   journal,
		})
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nets = []*live.Network{nw}
		return c, nil
	}

	const parts = 3
	hostSets := make([][]int, parts)
	for id := 0; id < spec.nodes; id++ {
		i := id * parts / spec.nodes
		hostSets[i] = append(hostSets[i], id)
		c.netOf[id] = i
	}
	for i := 0; i < parts; i++ {
		t, err := transport.NewTCP(transport.TCPConfig{
			Listen:      "127.0.0.1:0",
			Seed:        seed + uint64(i),
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  100 * time.Millisecond,
			// The default 256 frames per connection overflow when the
			// schedule catches up after a stall of a few milliseconds: every
			// cross-Network message of 16 nodes shares one queue (README).
			QueueLen: 4096,
		})
		if err != nil {
			c.stop()
			return nil, err
		}
		c.tcps = append(c.tcps, t)
	}
	for i, t := range c.tcps {
		for id := 0; id < spec.nodes; id++ {
			if c.netOf[id] != i {
				t.SetPeer(id, c.tcps[c.netOf[id]].Addr())
			}
		}
	}
	dir := live.NewMemDirectory(c.tree)
	for i, hosts := range hostSets {
		var t transport.Transport = c.tcps[i]
		if tr != nil {
			t = tr.wrapTransport(t, hosts)
		}
		nw, err := live.StartWith(c.cfg, live.Options{Transport: t, Directory: dir, Hosts: hosts, Journal: journal})
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nets = append(c.nets, nw)
	}
	return c, nil
}

// stop shuts the epoch's cluster down and reports what the correctness
// checks need from a shutdown: the journal's sticky error. Networks own
// their transports, so stopping a Network closes its sockets.
func (c *cluster) stop() error {
	for _, nw := range c.nets {
		nw.Stop()
	}
	// Only a failed boot leaves transports no Network took over.
	for i := len(c.nets); i < len(c.tcps); i++ {
		c.tcps[i].Close()
	}
	var err error
	if c.store != nil {
		err = c.store.Close()
		c.store = nil
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
	return err
}

// stats sums the Networks' counters: each Network counts only its hosted
// nodes, so the sum is the cluster.
func (c *cluster) stats() live.Stats {
	var s live.Stats
	var burstW float64
	for _, nw := range c.nets {
		t := nw.Stats()
		s = statsAdd(s, t, 1)
		// InboxBurstMean is a lifetime mean per Network; weight by traffic
		// handled so the busiest Network dominates, as it would in a sum.
		w := float64(t.Pushes + t.Queries + 1)
		s.InboxBurstMean += t.InboxBurstMean * w
		burstW += w
		s.ReplicaLag = max(s.ReplicaLag, t.ReplicaLag)
		s.ReserveHeadroom = minNonZero(s.ReserveHeadroom, t.ReserveHeadroom)
	}
	s.InboxBurstMean /= burstW
	return s
}

func (c *cluster) framesOut() int64 {
	var n int64
	for _, t := range c.tcps {
		n += t.FramesOut()
	}
	return n
}

// reparented counts nodes whose routing parent is no longer the one the
// generated tree gave them. With no fault injected it must stay zero: a
// collapsed tree changes every hop count (README, hazard 1).
func (c *cluster) reparented() (int, error) {
	n := 0
	for id := 0; id < c.spec.nodes; id++ {
		info, err := c.net(id).Inspect(id, time.Second)
		if err != nil {
			return 0, fmt.Errorf("inspect node %d: %w", id, err)
		}
		if info.Parent != c.tree.Parent(id) {
			n++
		}
	}
	return n, nil
}

// deepest returns the n nodes furthest from the root, deepest first (ids
// are assigned breadth-first, so ties break toward the later id).
func (c *cluster) deepest(n int) []int {
	out := make([]int, 0, n)
	for id := c.spec.nodes - 1; id > 0 && len(out) < n; id-- {
		out = append(out, id)
	}
	return out
}
