package main

import (
	"sort"
	"sync"
	"time"

	"dup/internal/rng"
)

// schedule is the open-loop arrival plan: rate queries per second, issued
// in bursts on a fixed tick. Every query of tick i is due at the tick's
// start, so a late generator shows as lateness, never as a thinner load.
type schedule struct {
	rate int           // queries per second
	tick time.Duration // 1 ms: a 1 kHz schedule
}

// upTo is how many queries are due by the end of tick i (ticks count from
// zero). Integer arithmetic, so the plan is identical on every run.
func (s schedule) upTo(i int) int {
	if i < 0 {
		return 0
	}
	return int(int64(i+1) * int64(s.rate) * int64(s.tick) / int64(time.Second))
}

// due is the offset from the window start at which tick i's queries are due.
func (s schedule) due(i int) time.Duration { return time.Duration(i) * s.tick }

// source yields the (node, key) of the n-th query of a window. at is the
// query's due offset, which is what the hot set rotates on.
type source interface {
	next(at time.Duration) (node, key int)
}

// roundRobin is the interest stream: it walks every (node, key) pair in a
// fixed cycle so each pair sees a query every TTL/3 and its subscription
// never lapses. Node and key advance together; 47 and the key counts are
// coprime, so the walk covers every pair once per cycle.
type roundRobin struct {
	nodes, keys int // nodes excludes the root: ids 1..nodes
	n           int
}

func newRoundRobin(nodes, keys int, seed uint64) *roundRobin {
	if gcd(nodes, keys) != 1 {
		panic("bench: round-robin needs coprime node and key counts")
	}
	return &roundRobin{nodes: nodes, keys: keys, n: int(seed % uint64(nodes*keys))}
}

func (r *roundRobin) next(time.Duration) (int, int) {
	node, key := 1+r.n%r.nodes, r.n%r.keys
	r.n++
	return node, key
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// zipfShift draws node and key independently from Zipf(θ) — the paper's
// Section IV node selection — and rotates which nodes are hot: rank r maps
// to perm[(r + quarter·⌊at/every⌋) mod n], so every `every` the hottest
// quarter of the ranking moves to other nodes and the subscriptions built
// for the old hot set must be torn down and rebuilt. The ranking itself is
// fixed, like the tree: which nodes are hot decides how deep the hot
// queries start, and with it every hop count. The seed shapes the draws.
type zipfShift struct {
	nodeZ, keyZ *rng.Zipf
	perm        []int // rank -> node id (never the root)
	every       time.Duration
}

func newZipfShift(nodes, keys int, theta float64, every time.Duration, seed uint64) *zipfShift {
	src := rng.New(seed)
	z := &zipfShift{
		nodeZ: rng.NewZipf(src.Split(), nodes, theta),
		keyZ:  rng.NewZipf(src.Split(), keys, theta),
		perm:  rng.New(treeSeed).Perm(nodes),
		every: every,
	}
	for i := range z.perm {
		z.perm[i]++ // ids 1..nodes
	}
	return z
}

// nodeAt maps a popularity rank (0 = hottest) to a node id at offset at.
func (z *zipfShift) nodeAt(rank int, at time.Duration) int {
	n := len(z.perm)
	shift := int(at/z.every) * (n / 4)
	return z.perm[(rank+shift)%n]
}

func (z *zipfShift) next(at time.Duration) (int, int) {
	return z.nodeAt(z.nodeZ.Index(), at), z.keyZ.Index()
}

// queryFn makes one attempt at a query and reports hops travelled and
// whether it was answered; it is KeyHandle.Query behind the node -> Network
// lookup.
type queryFn func(node, key int) (hops int, ok bool)

// job is one scheduled query handed to a worker.
type job struct {
	node, key int32
	due       time.Time
}

// load is what one generator window produced.
type load struct {
	offered int64     // queries due
	done    int64     // queries answered
	failed  int64     // not answered within queryBudget, retries included
	refused int64     // worker queue full
	retries int64     // attempts after a query's first
	hops    int64     // Σ hops over answered queries
	hitUS   []float64 // time inside Query for zero-hop queries, µs
	missMS  []float64 // due -> reply of queries that travelled, ms
	lateUS  []float64 // due -> dispatch, per tick, µs
}

// generator drives an open-loop query stream from one schedule goroutine.
// With workers > 0 it hands each due query to a fixed pool of parked
// workers: a query that must travel blocks only its worker, so a slow
// reply never delays the queries due after it, and each is timed from its
// own due time. With workers == 0 it issues queries itself, one after
// another — right for an interest stream of local hits, where a pool's
// catch-up after every refresh burst would add thirty runnable goroutines
// to the contention being measured (README, sizing).
type generator struct {
	sched   schedule
	src     source
	query   queryFn
	workers int
}

const (
	// queryBudget is how long a query's caller keeps asking. live sends
	// requests and replies once and refuses a query whose lane already has
	// 16 waiting ("the query times out and is retried by the caller"), so
	// one attempt failing is the system's back-pressure, not a lost
	// operation: the query is asked again, its delay still counts from its
	// due time, and the extra attempts are reported as driver.query_retries.
	// Only a query unanswered after the whole budget has failed.
	queryBudget = 2 * time.Second
	// retryPause spaces the attempts at a lane that refuses at once.
	retryPause = 100 * time.Microsecond
)

// issue runs one query and tallies it: a local hit by the time spent
// inside Query, a query that travelled by the time since it was due.
func (g *generator) issue(l *load, node, key int, due time.Time) {
	first := time.Now()
	called := first
	hops, ok := g.query(node, key)
	for !ok && time.Since(first) < queryBudget {
		l.retries++
		time.Sleep(retryPause)
		called = time.Now()
		hops, ok = g.query(node, key)
	}
	done := time.Now()
	switch {
	case !ok:
		l.failed++
	case hops == 0:
		l.done++
		l.hitUS = append(l.hitUS, float64(done.Sub(called))/1e3)
	default:
		l.done++
		l.hops += int64(hops)
		l.missMS = append(l.missMS, float64(done.Sub(due))/1e6)
	}
}

// queueDepth bounds queries waiting for a worker: about 800 ms of the
// pooled 20 k q/s schedule, well past the DeadAfter freeze after which the
// tree re-homes and the epoch is repeated anyway. Beyond that the pool is wedged
// and further queries are refused (and counted as failures) rather than
// queued without bound.
const queueDepth = 16384

// run drives the stream until stop closes, then waits for in-flight
// queries and returns the window's tally.
func (g *generator) run(stop <-chan struct{}) *load {
	jobs := make(chan job, queueDepth)
	parts := make([]load, g.workers)
	var wg sync.WaitGroup
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func(l *load) {
			defer wg.Done()
			for j := range jobs {
				g.issue(l, int(j.node), int(j.key), j.due)
			}
		}(&parts[w])
	}

	total := &load{}
	start := time.Now()
	tick := 0
loop:
	for {
		select {
		case <-stop:
			break loop
		default:
		}
		due := start.Add(g.sched.due(tick))
		sleepUntil(due)
		total.lateUS = append(total.lateUS, float64(time.Since(due))/1e3)
		n := g.sched.upTo(tick) - g.sched.upTo(tick-1)
		for i := 0; i < n; i++ {
			node, key := g.src.next(g.sched.due(tick))
			total.offered++
			if g.workers == 0 {
				g.issue(total, node, key, due)
				continue
			}
			select {
			case jobs <- job{int32(node), int32(key), due}:
			default:
				total.refused++
			}
		}
		tick++
	}
	close(jobs)
	wg.Wait()
	for i := range parts {
		p := &parts[i]
		total.done += p.done
		total.failed += p.failed
		total.retries += p.retries
		total.hops += p.hops
		total.hitUS = append(total.hitUS, p.hitUS...)
		total.missMS = append(total.missMS, p.missMS...)
	}
	sort.Float64s(total.hitUS)
	sort.Float64s(total.missMS)
	sort.Float64s(total.lateUS)
	return total
}
