// Package sim is the discrete-event simulator that reproduces the paper's
// Section IV evaluation. It owns the machinery all three schemes share —
// index search tree, per-node caches, query routing with path caching,
// access tracking, and the authority node's refresh schedule — and drives
// one scheme (PCX, CUP or DUP) through a generated query workload,
// measuring average query latency and average query cost exactly as the
// paper defines them.
//
// The hot path is allocation-free in steady state: events are small typed
// records stored inline in the pending-event heap (see dup/internal/eventq)
// and protocol messages are recycled through a pool (proto.NewMessage /
// proto.Release), with the engine releasing each message after its final
// delivery.
package sim

import (
	"context"
	"fmt"
	"math"
	"time"

	"dup/internal/cache"
	"dup/internal/eventq"
	"dup/internal/index"
	"dup/internal/metrics"
	"dup/internal/proto"
	"dup/internal/rng"
	"dup/internal/scheme"
	"dup/internal/topology"
	"dup/internal/workload"
)

// cancelCheckEvery is how many dispatched events pass between context
// cancellation checks: frequent enough that cancellation lands within
// microseconds at full event rates, rare enough to stay invisible in
// profiles.
const cancelCheckEvery = 4096

// Tracer receives a callback for every dispatched event; it is optional
// and intended for the duptrace tool and for debugging tests.
type Tracer interface {
	// Message is called when a protocol message is delivered. The message
	// is returned to the engine's pool right after the event completes, so
	// implementations must copy what they need and not retain m.
	Message(t float64, m *proto.Message)
	// Query is called when a query is resolved with the given latency.
	Query(t float64, origin, hops int)
}

// Engine is one simulation run in progress. It implements scheme.Host.
type Engine struct {
	cfg    Config
	tree   *topology.Tree
	clock  *eventq.Clock
	delay  rng.Distribution
	gen    workload.Source
	auth   *index.Authority
	met    *metrics.Metrics
	sch    scheme.Scheme
	caches []cache.Entry
	counts []int32 // queries received per node in the current TTL interval
	tracer Tracer

	// Churn state (nil/unused when cfg.FailRate == 0).
	alive      []bool
	origParent []int // the generated tree's parent vector, for re-homing
	churnSrc   *rng.Source
	failGap    rng.Distribution
	fails      int64 // failures injected so far
	lostQrys   int64 // request/reply drops that triggered a retry
	orphans    []int // repairAround's scratch copy of the failed node's children
}

// New prepares a run of s under cfg. It returns an error for invalid
// configurations.
func New(cfg Config, s scheme.Scheme) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	topoSrc, wlSrc, delaySrc, churnSrc := src.Split(), src.Split(), src.Split(), src.Split()
	tree := cfg.Tree
	if tree == nil {
		tree = topology.Generate(cfg.Nodes, cfg.MaxDegree, topoSrc)
	} else if cfg.FailRate > 0 {
		// Churn mutates routing; never mutate a caller-owned tree.
		tree = tree.Clone()
	}
	var gen workload.Source
	if len(cfg.Arrivals) > 0 {
		for _, a := range cfg.Arrivals {
			if a.Node < 0 || a.Node >= tree.N() {
				return nil, fmt.Errorf("sim: trace arrival at node %d, network has %d nodes", a.Node, tree.N())
			}
		}
		gen = workload.NewReplay(cfg.Arrivals, cfg.LoopTrace)
	} else {
		gen = workload.New(workload.Config{
			Nodes:       tree.N(),
			Lambda:      cfg.Lambda,
			Theta:       cfg.Theta,
			Pareto:      cfg.Pareto,
			Alpha:       cfg.Alpha,
			RotateEvery: cfg.HotspotRotate,
		}, wlSrc)
	}
	histCap := tree.MaxDepth() + 2
	e := &Engine{
		cfg:    cfg,
		tree:   tree,
		clock:  eventq.NewClock(),
		delay:  rng.NewExponential(delaySrc, cfg.HopDelayMean),
		gen:    gen,
		auth:   index.NewAuthority(cfg.TTL, cfg.Lead),
		met:    metrics.New(cfg.Warmup, histCap),
		sch:    s,
		caches: make([]cache.Entry, tree.N()),
		counts: make([]int32, tree.N()),
	}
	// Pre-size the pending-event heap: the standing population is bounded
	// by messages in flight, which a refresh burst can briefly push to one
	// per node.
	e.clock.Grow(tree.N() + 64)
	if cfg.FailRate > 0 {
		e.alive = make([]bool, tree.N())
		for i := range e.alive {
			e.alive[i] = true
		}
		e.origParent = make([]int, tree.N())
		for i := range e.origParent {
			e.origParent[i] = tree.Parent(i)
		}
		e.churnSrc = churnSrc
		e.failGap = rng.NewExponential(churnSrc.Split(), 1/cfg.FailRate)
	}
	s.Attach(e)
	return e, nil
}

// Alive reports whether node n is up. Without churn every node is up.
func (e *Engine) Alive(n int) bool { return e.alive == nil || e.alive[n] }

// Failures returns the number of failures injected so far.
func (e *Engine) Failures() int64 { return e.fails }

// LostQueries returns how many request/reply drops triggered retries.
func (e *Engine) LostQueries() int64 { return e.lostQrys }

// SetTracer installs an event tracer. It must be called before Run.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// Tree implements scheme.Host.
func (e *Engine) Tree() *topology.Tree { return e.tree }

// Now implements scheme.Host.
func (e *Engine) Now() float64 { return e.clock.Now() }

// Cache implements scheme.Host.
func (e *Engine) Cache(n int) *cache.Entry { return &e.caches[n] }

// Authority implements scheme.Host.
func (e *Engine) Authority() *index.Authority { return e.auth }

// Threshold implements scheme.Host.
func (e *Engine) Threshold() int { return e.cfg.Threshold }

// IntervalCount implements scheme.Host.
func (e *Engine) IntervalCount(n int) int { return int(e.counts[n]) }

// Send implements scheme.Host: charge one hop and deliver after one
// exponential per-hop delay. Ownership of m transfers to the engine, which
// releases it to the message pool after its final delivery.
func (e *Engine) Send(m *proto.Message) {
	e.met.RecordHop(e.clock.Now(), m.Kind)
	e.clock.After(e.delay.Sample(), eventq.Message(m))
}

// SendVia implements scheme.Host: charge and delay `hops` hops.
func (e *Engine) SendVia(m *proto.Message, hops int) {
	if hops < 1 {
		panic(fmt.Sprintf("sim: SendVia with %d hops", hops))
	}
	total := 0.0
	for i := 0; i < hops; i++ {
		e.met.RecordHop(e.clock.Now(), m.Kind)
		total += e.delay.Sample()
	}
	e.clock.After(total, eventq.Message(m))
}

// Metrics exposes the run's metrics (tests and the CI stopping rule).
func (e *Engine) Metrics() *metrics.Metrics { return e.met }

// Run executes the simulation and returns its result.
func (e *Engine) Run() (*Result, error) {
	return e.RunContext(context.Background())
}

// RunContext executes the simulation, checking ctx for cancellation every
// few thousand dispatched events. On cancellation it returns an error
// wrapping ctx.Err() within well under 100 ms even on full-scale
// configurations; partial results are discarded.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	// Seed the event streams: first arrival, first refresh, first interval
	// boundary. Version 0 exists from time zero (the root holds it); the
	// first refresh event issues version 1.
	e.scheduleArrival(e.gen.Next())
	e.clock.At(e.auth.IssueTime(1), eventq.Ev(eventq.KindRefresh, 1))
	e.clock.At(e.auth.IntervalEnd(0), eventq.Ev(eventq.KindInterval, 0))
	if e.cfg.FailRate > 0 {
		e.clock.After(e.failGap.Sample(), eventq.Ev(eventq.KindFail, 0))
	}

	horizon := e.cfg.Duration
	untilCheck := cancelCheckEvery
	for {
		ev, ok := e.clock.Next()
		if !ok {
			return nil, fmt.Errorf("sim: event queue drained at t=%v", e.clock.Now())
		}
		if ev.Time > horizon {
			if e.cfg.CITarget > 0 &&
				e.met.LatencyRelCI95() > e.cfg.CITarget &&
				horizon+e.cfg.Duration/4 <= e.cfg.MaxDuration {
				horizon += e.cfg.Duration / 4
			} else {
				break
			}
		}
		e.dispatch(ev)
		if untilCheck--; untilCheck <= 0 {
			untilCheck = cancelCheckEvery
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: cancelled at t=%.0f: %w", e.clock.Now(), err)
			}
		}
	}

	r := &Result{
		Scheme:      e.sch.Name(),
		Config:      e.cfg,
		MeanLatency: e.met.MeanLatency(),
		LatencyCI95: e.met.LatencyCI95(),
		LatencyP95:  e.met.LatencyPercentile(0.95),
		MeanCost:    e.met.MeanCost(),
		Queries:     e.met.Queries(),
		SimTime:     horizon,
		Events:      e.clock.Dispatched(),
		Wall:        time.Since(start),
	}
	if r.Queries > 0 {
		r.LocalHitRate = float64(e.met.LocalHits()) / float64(r.Queries)
	}
	r.RequestHops, r.ReplyHops, r.PushHops, r.ControlHops = e.met.HopBreakdown()
	return r, nil
}

// retryEvent packs a retry's two small operands — the querying node and
// the hops its lost attempt already travelled — into the event's single
// inline operand, keeping the event record at its 32-byte heap size.
func retryEvent(origin, hops int) eventq.Event {
	return eventq.Ev(eventq.KindRetry, int64(origin)<<retryHopsBits|int64(hops))
}

const retryHopsBits = 24 // hops per query stay far below 2^24

func (e *Engine) dispatch(ev eventq.Event) {
	switch ev.Kind() {
	case eventq.KindMessage:
		e.deliver(ev.Msg)
	case eventq.KindArrival:
		if n := int(ev.A); e.Alive(n) {
			e.localQuery(n)
		}
		e.scheduleArrival(e.gen.Next())
	case eventq.KindRefresh:
		v := ev.A
		e.sch.OnRefresh(v, e.auth.Expiry(v))
		e.clock.At(e.auth.IssueTime(v+1), eventq.Ev(eventq.KindRefresh, v+1))
	case eventq.KindInterval:
		e.sch.OnIntervalEnd()
		for i := range e.counts {
			e.counts[i] = 0
		}
		e.clock.At(e.auth.IntervalEnd(ev.A+1), eventq.Ev(eventq.KindInterval, ev.A+1))
	case eventq.KindFail:
		e.failRandomNode()
		e.clock.After(e.failGap.Sample(), eventq.Ev(eventq.KindFail, 0))
	case eventq.KindDetect:
		e.repairAround(int(ev.A))
	case eventq.KindRecover:
		e.recover(int(ev.A))
	case eventq.KindRetry:
		e.retryQuery(int(ev.A>>retryHopsBits), int(ev.A&(1<<retryHopsBits-1)))
	default:
		panic(fmt.Sprintf("sim: unknown event kind %v", ev.Kind()))
	}
}

// scheduleArrival enqueues the next workload arrival; an infinite time
// marks the end of a finite replay trace.
func (e *Engine) scheduleArrival(a workload.Arrival) {
	if math.IsInf(a.Time, 1) {
		return
	}
	e.clock.At(a.Time, eventq.Ev(eventq.KindArrival, int64(a.Node)))
}

// failRandomNode picks a random alive non-root node and fails it.
func (e *Engine) failRandomNode() {
	// Rejection-sample an alive non-root victim; bail out if churn has
	// taken down nearly everything (pathological configurations).
	for attempt := 0; attempt < 64; attempt++ {
		victim := 1 + e.churnSrc.Intn(e.tree.N()-1)
		if !e.alive[victim] {
			continue
		}
		e.alive[victim] = false
		e.caches[victim].Invalidate()
		e.fails++
		e.clock.After(e.cfg.DetectDelay, eventq.Ev(eventq.KindDetect, int64(victim)))
		e.clock.After(e.cfg.DownTime, eventq.Ev(eventq.KindRecover, int64(victim)))
		return
	}
}

// repairAround runs once node f's failure is detected: the underlying
// network reattaches f's children to f's parent, then the scheme repairs
// its distribution state (Section III-C).
func (e *Engine) repairAround(f int) {
	oldParent := e.tree.Parent(f)
	if oldParent == -1 {
		return // already detached by an earlier repair
	}
	e.orphans = append(e.orphans[:0], e.tree.Children(f)...)
	e.tree.Detach(f)
	e.sch.OnNodeDown(f, oldParent, e.orphans)
}

// recover brings node f back, blank, under its original parent (or the
// nearest attached original ancestor while that parent is down). Config
// validation guarantees detection ran first, so f is detached here.
func (e *Engine) recover(f int) {
	parent := e.tree.NearestAttachedAncestor(f, e.origParent)
	e.tree.Attach(f, parent)
	e.alive[f] = true
	e.sch.OnNodeUp(f, parent)
}

// retryQuery re-issues a query from origin whose previous attempt was lost
// to a dead node, carrying the hops already travelled.
func (e *Engine) retryQuery(origin, hops int) {
	if !e.Alive(origin) {
		return // the requester itself died; the query dies with it
	}
	if _, _, ok := e.serveVersion(origin); ok {
		e.recordQuery(origin, hops)
		return
	}
	m := proto.NewMessage()
	m.Kind, m.To, m.Origin = proto.KindRequest, e.tree.Parent(origin), origin
	m.Hops = hops + 1
	m.Path = append(m.Path, origin)
	e.Send(m)
}

// access counts a query arrival at node n and runs the scheme's interest
// policy, returning any control item the scheme wants to piggyback on the
// forwarded request. local distinguishes the node's own queries from
// forwarded requests; only the former count toward interest unless
// CountForwarded widens the policy.
func (e *Engine) access(n int, local, miss bool) *proto.Piggyback {
	if local || e.cfg.CountForwarded {
		e.counts[n]++
	}
	return e.sch.OnAccess(n, miss)
}

// serveVersion returns the index version node n can serve right now. The
// root always serves the authority's current version; other nodes serve
// their cache. ok is false when the node has nothing valid.
func (e *Engine) serveVersion(n int) (v int64, expiry float64, ok bool) {
	if e.tree.IsRoot(n) {
		v = e.auth.VersionAt(e.clock.Now())
		return v, e.auth.Expiry(v), true
	}
	c := &e.caches[n]
	if c.Valid(e.clock.Now()) {
		return c.Version, c.Expiry, true
	}
	return 0, 0, false
}

// localQuery handles a query generated at node n.
func (e *Engine) localQuery(n int) {
	_, _, hit := e.serveVersion(n)
	piggy := e.access(n, true, !hit)
	if hit {
		e.recordQuery(n, 0)
		return
	}
	m := proto.NewMessage()
	m.Kind, m.To, m.Origin = proto.KindRequest, e.tree.Parent(n), n
	m.Hops = 1
	m.Path = append(m.Path, n)
	m.Piggy = piggy
	e.Send(m)
}

func (e *Engine) recordQuery(origin, hops int) {
	e.met.RecordQuery(e.clock.Now(), hops)
	if e.tracer != nil {
		e.tracer.Query(e.clock.Now(), origin, hops)
	}
}

// deliver processes message arrival at m.To. Messages addressed to a dead
// node are lost; a lost request or reply makes its origin retry the query
// after the retry timeout, with the hops already spent carried over. The
// engine owns every delivered message exclusively and releases it to the
// pool once the delivery is fully processed (requests and replies recycle
// in place along their path instead).
func (e *Engine) deliver(m *proto.Message) {
	if !e.Alive(m.To) {
		// A lost request leaves its query unanswered: the origin retries
		// after the timeout, carrying the hops already spent. A lost reply
		// is not retried — the query's latency was recorded when the
		// request reached a valid index, and the origin's next query pays
		// for the cold cache the lost reply left behind.
		if m.Kind == proto.KindRequest {
			e.lostQrys++
			e.clock.After(e.cfg.RetryTimeout, retryEvent(m.Origin, m.Hops))
		}
		proto.Release(m)
		return
	}
	if e.tracer != nil {
		e.tracer.Message(e.clock.Now(), m)
	}
	switch m.Kind {
	case proto.KindRequest:
		e.onRequest(m)
	case proto.KindReply:
		e.onReply(m)
	default:
		e.sch.OnMessage(m)
		proto.Release(m)
	}
}

// onRequest implements the shared query routing: the first node on the
// upward path holding a valid index replies along the reverse path.
func (e *Engine) onRequest(m *proto.Message) {
	n := m.To
	// Deliver any piggybacked control item first, then run this node's own
	// interest policy. The scheme contract guarantees at most one item
	// wants to continue riding (a node that just absorbed a subscribe can
	// only emit a substitution for itself, never a second subscribe).
	carried := m.Piggy
	if carried != nil {
		carried = e.sch.OnPiggyback(n, carried)
	}
	v, expiry, hit := e.serveVersion(n)
	fresh := e.access(n, false, !hit)
	if fresh != nil {
		if carried != nil {
			panic("sim: two piggybacks competing for one request")
		}
		carried = fresh
	}
	if hit {
		// The request stops here; an unabsorbed piggyback continues as an
		// ordinary (charged) control message.
		if carried != nil {
			c := proto.NewMessage()
			c.Kind, c.To, c.Subject = carried.Kind, e.tree.Parent(n), carried.Subject
			e.Send(c)
		}
		e.recordQuery(m.Origin, m.Hops)
		// Turn the request into its reply in place: the engine owns the
		// message exclusively once delivered, and reusing it (and its path
		// slice) keeps the per-query allocation count flat in path length.
		last := len(m.Path) - 1
		m.Kind = proto.KindReply
		m.To = m.Path[last]
		m.Path = m.Path[:last]
		m.Version, m.Expiry = v, expiry
		m.Piggy = nil
		e.Send(m)
		return
	}
	if e.tree.IsRoot(n) {
		// Unreachable: the root always serves.
		panic("sim: request fell off the root")
	}
	m.Piggy = carried
	m.Path = append(m.Path, n)
	m.To = e.tree.Parent(n)
	m.Hops++
	e.Send(m)
}

// onReply retraces the request path toward the origin; every node on the
// way caches the index (path caching, common to all three schemes). The
// message is released to the pool when it reaches the origin.
func (e *Engine) onReply(m *proto.Message) {
	n := m.To
	e.caches[n].Store(m.Version, m.Expiry)
	if len(m.Path) == 0 {
		proto.Release(m) // reached the origin
		return
	}
	last := len(m.Path) - 1
	m.To = m.Path[last]
	m.Path = m.Path[:last]
	e.Send(m)
}

// Run is a convenience wrapper: build an engine for cfg and s, run it, and
// return the result.
func Run(cfg Config, s scheme.Scheme) (*Result, error) {
	return RunContext(context.Background(), cfg, s)
}

// RunContext builds an engine for cfg and s and runs it under ctx; see
// (*Engine).RunContext for the cancellation contract.
func RunContext(ctx context.Context, cfg Config, s scheme.Scheme) (*Result, error) {
	e, err := New(cfg, s)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx)
}
