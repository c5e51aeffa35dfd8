package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dup/internal/live"
	"dup/internal/proto"
)

// liveWorkload is one of the three live-cluster workloads.
type liveWorkload struct {
	name string
	spec clusterSpec
	// stream builds the query source from the run seed; rate is the
	// open-loop arrival rate.
	stream func(seed uint64) source
	rate   func(cfg live.Config) int
	// probed workloads keep every subscription alive and measure
	// push-to-resolve; their op is a push delivered. The others measure
	// query service and their op is a query completed.
	probed bool
	// failover ends each epoch by killing the leaseholder.
	failover bool
}

const (
	queryTimeout = 250 * time.Millisecond
	warmWorkers  = 4
	poolWorkers  = 32
)

var liveWorkloads = []liveWorkload{
	{
		name:   "fanout-tcp",
		spec:   clusterSpec{nodes: 48, keys: 64, lanes: 4, threshold: 1, tcp: true},
		stream: func(seed uint64) source { return newRoundRobin(47, 64, seed) },
		rate:   func(cfg live.Config) int { return interestRate(47, 64, cfg) },
		probed: true,
	},
	{
		name:   "interest-shift-tcp",
		spec:   clusterSpec{nodes: 48, keys: 256, lanes: 4, threshold: 2, tcp: true},
		stream: func(seed uint64) source { return newZipfShift(47, 256, 0.9, 2*time.Second, seed) },
		rate:   func(live.Config) int { return 20000 },
	},
	{
		name:     "replicated-chan",
		spec:     clusterSpec{nodes: 24, keys: 16, lanes: 2, threshold: 1, replicas: 3},
		stream:   func(seed uint64) source { return newRoundRobin(23, 16, seed) },
		rate:     func(cfg live.Config) int { return interestRate(23, 16, cfg) },
		probed:   true,
		failover: true,
	},
}

// window is the measured window for a requested length. A probed
// workload's pushes come in one burst per refresh period, so its window is
// cut to a whole number of periods: otherwise twelve or thirteen bursts
// fall into it by accident of phase, and every per-push ratio moves 8 %.
func (w *liveWorkload) window(want time.Duration, cfg live.Config) time.Duration {
	period := cfg.TTL - cfg.Lead
	if !w.probed || want < period {
		return want
	}
	return want / period * period
}

// interestRate is three queries per (node, key) per TTL: enough that every
// TTL interval, wherever its boundaries fall, counts more than Threshold 1.
func interestRate(nodes, keys int, cfg live.Config) int {
	return int(int64(nodes*keys*3) * int64(time.Second) / int64(cfg.TTL))
}

// epoch is everything one boot + measured window produced.
type epoch struct {
	setup      time.Duration
	before     usage
	after      usage
	stats      live.Stats // delta over the window
	frames     int64      // TCP frames written over the window
	load       *load
	probe      *probeResult
	failoverMS float64
	reparented int
	inUseEnd   int64
	failures   []string // correctness checks this epoch failed
	// disturbed marks failures a frozen process explains (re-homing, an
	// expired root path, a send given up): the epoch is worth repeating.
	disturbed bool
}

func (e *epoch) ops(w *liveWorkload) int64 {
	if w.probed {
		return e.stats.Pushes
	}
	return e.load.done
}

func (e *epoch) cpu() time.Duration { return e.after.cpu - e.before.cpu }

// runEpoch boots a fresh cluster, settles, warms up, measures one window
// and tears down. tr is nil for an untraced epoch.
func runEpoch(w *liveWorkload, opt options, seed uint64, tr *tracer) (*epoch, error) {
	e := &epoch{}
	inUse0 := proto.InUse()
	t0 := time.Now()
	c, err := boot(w.spec, seed, tr, opt.outDir)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			c.stop()
		}
	}()
	time.Sleep(opt.settle)

	gen := &generator{
		sched: schedule{rate: w.rate(c.cfg), tick: time.Millisecond},
		src:   w.stream(seed),
		query: func(node, key int) (int, bool) {
			r, err := c.net(node).Key(key).Query(node, queryTimeout)
			return r.Hops, err == nil
		},
		// Warm-up starts with every query a miss bound for the root; a
		// small pool caps how many are in flight, where a large one floods
		// the root until keep-alives time out and the tree re-homes.
		workers: warmWorkers,
	}
	if err := warmUp(w, c, gen); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	gen.workers = poolWorkers
	if w.probed {
		gen.workers = 0 // every query is a local hit: issue them in line
	}
	e.setup = time.Since(t0)

	if n, err := c.reparented(); err != nil {
		return nil, err
	} else if n != 0 {
		return nil, fmt.Errorf("tree not intact before the window: %d nodes re-homed", n)
	}
	var pr *prober
	if w.probed {
		pr = newProber(c, tr != nil)
		if err := pr.sync(); err != nil {
			return nil, err
		}
	}

	// Measured window.
	if tr != nil {
		tr.begin(c)
	}
	s0, f0 := c.stats(), c.framesOut()
	e.before = readUsage()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); e.load = gen.run(stop) }()
	if pr != nil {
		wg.Add(1)
		go func() { defer wg.Done(); e.probe = pr.run(stop) }()
	}
	time.Sleep(w.window(opt.window, c.cfg))
	close(stop)
	wg.Wait()
	e.after = readUsage()
	s1 := c.stats()
	e.frames = c.framesOut() - f0
	e.stats = statsDelta(s0, s1)
	if tr != nil {
		tr.end()
	}

	root := c.nets[0].RootID()
	if e.reparented, err = c.reparented(); err != nil {
		return nil, err
	}
	if e.reparented != 0 {
		e.fail("%d nodes re-homed with no fault injected", e.reparented)
	}
	if e.stats.RootExpiries != 0 {
		e.fail("%d root paths expired with no fault injected", e.stats.RootExpiries)
	}
	if e.stats.RetransmitGiveUps != 0 {
		e.fail("%d reliable sends given up with no fault injected", e.stats.RetransmitGiveUps)
	}
	e.disturbed = len(e.failures) > 0
	if e.probe != nil && e.probe.regressed != 0 {
		e.fail("%d probed copies went back to an older version", e.probe.regressed)
	}

	if w.failover {
		ms, err := failOver(c, root)
		if err != nil {
			e.fail("fail-over: %v", err)
		}
		e.failoverMS = ms
	}

	stopped = true
	if err := c.stop(); err != nil {
		e.fail("journal: %v", err)
	}
	held := int64(0)
	if tr != nil {
		held = tr.held()
	}
	if e.inUseEnd = proto.InUse() - inUse0 - held; e.inUseEnd != 0 {
		e.fail("proto.InUse is %d after Stop, want 0", e.inUseEnd)
	}
	return e, nil
}

func (e *epoch) fail(format string, args ...any) {
	e.failures = append(e.failures, fmt.Sprintf(format, args...))
}

// warmUp runs the workload's own stream, unmeasured, until the cluster is
// in the state the window should start from. Probed workloads wait until
// a full TTL passes in which every query was a local hit and nothing
// subscribed: every intended subscriber then holds a pushed copy. The
// shifting workload has no fixed subscriber set; it runs three TTLs, long
// enough for the first hot set's subscriptions to form.
func warmUp(w *liveWorkload, c *cluster, gen *generator) error {
	stop := make(chan struct{})
	done := make(chan *load, 1)
	go func() { done <- gen.run(stop) }()
	defer func() {
		close(stop)
		<-done
	}()
	if !w.probed {
		time.Sleep(3 * c.cfg.TTL)
		return nil
	}
	const step = 25 * time.Millisecond
	span := int(c.cfg.TTL / step)
	var ring []live.Stats
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(step)
		ring = append(ring, c.stats())
		if len(ring) <= span {
			continue
		}
		a, b := ring[len(ring)-1-span], ring[len(ring)-1]
		if q := b.Queries - a.Queries; q > 0 && b.LocalHits-a.LocalHits == q && b.Subscribes == a.Subscribes {
			return nil
		}
	}
	return errors.New("subscriptions did not converge within 10s")
}

// failOver kills the leaseholder and times how long a distant site takes
// to resolve a version above everything the dead authority exposed for
// the probed keys. The deadline bounds a broken promotion, not a slow one.
func failOver(c *cluster, root int) (float64, error) {
	nw := c.nets[0]
	keys := probeKeySet(c.spec.keys, c.spec.lanes)
	pre := make([]int64, len(keys))
	for i, k := range keys {
		info, err := nw.Key(k).Inspect(root, time.Second)
		if err != nil {
			return 0, fmt.Errorf("pre-kill inspect: %w", err)
		}
		pre[i] = info.Version
	}
	site := c.spec.nodes - 1
	t0 := time.Now()
	nw.Fail(root)
	deadline := t0.Add(10 * time.Second)
	var first time.Duration
	for i, k := range keys {
		for {
			r, err := nw.Key(k).Query(site, 100*time.Millisecond)
			if err == nil && r.Version > pre[i] {
				break
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("key %d: no version above %d within 10s of killing node %d", k, pre[i], root)
			}
			time.Sleep(200 * time.Microsecond)
		}
		if i == 0 {
			first = time.Since(t0)
		}
	}
	return float64(first) / 1e6, nil
}

// statsDelta is b - a over the counters; gauges (burst mean, replica lag,
// reserve headroom) keep b's reading.
func statsDelta(a, b live.Stats) live.Stats { return statsAdd(b, a, -1) }

// statsSum pools two windows' counter deltas; the gauges keep the worse
// reading (burst mean: the mean of the two).
func statsSum(a, b live.Stats) live.Stats {
	s := statsAdd(a, b, 1)
	s.InboxBurstMean = (a.InboxBurstMean + b.InboxBurstMean) / 2
	s.ReplicaLag = max(a.ReplicaLag, b.ReplicaLag)
	s.ReserveHeadroom = minNonZero(a.ReserveHeadroom, b.ReserveHeadroom)
	return s
}

// minNonZero is the smaller of two gauges that read 0 when unset.
func minNonZero(a, b int64) int64 {
	if a == 0 || (b != 0 && b < a) {
		return b
	}
	return a
}

func statsAdd(a, b live.Stats, sign int64) live.Stats {
	d := a
	d.Queries += sign * b.Queries
	d.QueryHops += sign * b.QueryHops
	d.LocalHits += sign * b.LocalHits
	d.Pushes += sign * b.Pushes
	d.Subscribes += sign * b.Subscribes
	d.Substitutes += sign * b.Substitutes
	d.KeepAlives += sign * b.KeepAlives
	d.Drops += sign * b.Drops
	d.InboxDrops += sign * b.InboxDrops
	d.Retransmits += sign * b.Retransmits
	d.Acks += sign * b.Acks
	d.DupSuppressed += sign * b.DupSuppressed
	d.RetransmitGiveUps += sign * b.RetransmitGiveUps
	d.RootAnnounces += sign * b.RootAnnounces
	d.RootExpiries += sign * b.RootExpiries
	for k := range d.AcksByKind {
		d.AcksByKind[k] += sign * b.AcksByKind[k]
	}
	return d
}

// msgsPerQuery is the paper's Section IV cost on the live cluster: request
// and reply hops, pushes, and tree-maintenance messages per query. Acks,
// keep-alives and beacons are excluded, as the paper excludes the
// underlying network's own upkeep. Unsubscribes have no counter of their
// own; each is acknowledged exactly once, so their acks count them.
func msgsPerQuery(d live.Stats) float64 {
	msgs := 2*d.QueryHops + d.Pushes + d.Subscribes + d.Substitutes + d.AcksByKind[proto.KindUnsubscribe]
	return ratio(float64(msgs), float64(d.Queries))
}
