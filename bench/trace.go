package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dup/internal/proto"
	"dup/internal/store"
	"dup/internal/transport"
)

// tracer records what crosses the layer boundaries the benchmark can reach
// from outside the system: transport.Transport (Send entry and exit,
// handler entry) and the store journal interfaces. It copies the fields it
// needs at interception and never keeps a pooled *proto.Message — except
// the wire sample, which holds proto.Clone copies it releases itself.
//
// Per push it follows (key, version) hop by hop:
//
//	publish -> live.publish_to_send -> [transport.transit -> live.hop_turnaround] x depth -> live.resolve
//
// where publish is the version's Expiry - TTL (the authority stamps
// expiry = now + TTL as it bumps), so no hook inside the system is needed.
type tracer struct {
	w    *liveWorkload
	ttl  time.Duration
	root int
	base time.Time   // all recorded instants are nanoseconds since base
	on   atomic.Bool // record only inside the measured window

	// Counts at Transport.Send.
	sends, remoteSends    atomic.Int64 // Send calls; those bound for another Network
	protoMsgs             atomic.Int64 // bare messages plus envelope members
	envelopes, envMembers atomic.Int64
	replicaSends          atomic.Int64
	versionsSent          atomic.Int64
	refusals              atomic.Int64 // handler returned false

	// Per-node state, each under its own lock: a refresh burst has every
	// lane of every node inside Send or a handler at once, and one lock
	// for all of them made the traced burst half again as slow.
	nodes    []nodeTrace
	probeKey map[int]bool

	mu     sync.Mutex       // guards sample
	sample []*proto.Message // proto.Clone copies of socket-bound traffic

	jmu             sync.Mutex // guards the journal tallies
	recordNS, repNS []float64
	records         int64
	walBytes        int64
	walPath         string
	walSize         int64
	fs              string
}

// nodeTrace is what the tracer keeps about one node: what is on its way to
// it, what has reached it, and the intervals that ended at it.
type nodeTrace struct {
	mu        sync.Mutex
	inFlight  map[msgID]sent   // sent to this node, not yet handed to its handler
	arrived   map[int]arrival  // key -> newest push delivered here
	published map[int]int64    // the root only: key -> newest version it sent
	edges     map[edgeID]*edge // probe keys only: deliveries here, for the span chains
	core      []coreCall       // subscribe/unsubscribe/substitute deliveries, in order

	transitNS       []float64 // hops into this node that crossed a socket (TCP), or every hand-off (Chan)
	turnaroundNS    []float64 // delivery here -> this node's forward
	publishToSendNS []float64
	localCallNS     []float64 // time inside Send for messages to this node,
	remoteCallNS    []float64 // by whether they crossed a socket
}

// sampleCap bounds the wire sample. The replay loops it until at least
// 10 000 messages have gone through each codec path.
const sampleCap = 4096

type msgID struct {
	kind  proto.Kind
	to, a int32 // a: the query's origin (request, reply); 0 for pushes
	key   int32
	n     int64 // version (push) or query seq (request, reply)
	hop   int32 // request: hops so far; reply: path left
}

type sent struct {
	at     int64
	remote bool
}

type arrival struct {
	version int64
	at      int64
}

// edgeID names one delivery of a probe key's version to a node.
type edgeID struct {
	to, key int
	version int64
}

type edge struct {
	from           int
	sendAt, recvAt int64
	publish        int64 // ns since base the version was published
}

// coreCall is one subscribe/unsubscribe/substitute delivery, replayed
// later into a fresh core.State.
type coreCall struct {
	node, key int
	kind      proto.Kind
	a, b      int
}

func newTracer(w *liveWorkload) *tracer {
	cfg := w.spec.config()
	t := &tracer{
		w:        w,
		ttl:      cfg.TTL,
		base:     time.Now(),
		nodes:    make([]nodeTrace, w.spec.nodes),
		probeKey: map[int]bool{},
	}
	for i := range t.nodes {
		t.nodes[i] = nodeTrace{
			inFlight:  map[msgID]sent{},
			arrived:   map[int]arrival{},
			published: map[int]int64{},
			edges:     map[edgeID]*edge{},
		}
	}
	for _, k := range probeKeySet(w.spec.keys, w.spec.lanes) {
		t.probeKey[k] = true
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin and end bracket the measured window.
func (t *tracer) begin(c *cluster) {
	t.root = c.nets[0].RootID()
	t.on.Store(true)
}

func (t *tracer) end() { t.on.Store(false) }

// held is how many pooled messages the tracer itself still owns: the wire
// sample's clones and their batch members. Called once the cluster stopped.
func (t *tracer) held() int64 {
	var n int64
	for _, m := range t.sample {
		n += int64(1 + len(m.Batch))
	}
	return n
}

// tracedTransport wraps one Network's transport.
type tracedTransport struct {
	t     *tracer
	inner transport.Transport
	local map[int]bool // ids this Network hosts
}

func (t *tracer) wrapTransport(inner transport.Transport, hosts []int) transport.Transport {
	local := make(map[int]bool, len(hosts))
	for _, id := range hosts {
		local[id] = true
	}
	return &tracedTransport{t: t, inner: inner, local: local}
}

func (tt *tracedTransport) Register(id int, h transport.Handler) {
	if h == nil {
		tt.inner.Register(id, nil)
		return
	}
	tt.inner.Register(id, func(m *proto.Message) bool {
		if tt.t.on.Load() {
			tt.t.delivered(id, m)
		}
		ok := h(m)
		if !ok && tt.t.on.Load() {
			tt.t.refusals.Add(1)
		}
		return ok
	})
}

// RegisterBurst forwards burst registration, so a traced TCP run keeps the
// burst receive path; over Chan, which has none, it is a no-op exactly as
// an unwrapped Chan would make it.
func (tt *tracedTransport) RegisterBurst(id int, h transport.BurstHandler) {
	br, ok := tt.inner.(transport.BurstRegistrar)
	if !ok {
		return
	}
	if h == nil {
		br.RegisterBurst(id, nil)
		return
	}
	br.RegisterBurst(id, func(ms []*proto.Message) {
		if tt.t.on.Load() {
			for _, m := range ms {
				tt.t.delivered(id, m)
			}
		}
		h(ms)
	})
}

func (tt *tracedTransport) Send(m *proto.Message) {
	if !tt.t.on.Load() {
		tt.inner.Send(m)
		return
	}
	to, remote := m.To, !tt.local[m.To]
	t0 := tt.t.leaving(m, remote)
	tt.inner.Send(m) // m is the transport's from here on
	d := float64(tt.t.now() - t0)
	n := &tt.t.nodes[to]
	n.mu.Lock()
	if remote {
		n.remoteCallNS = append(n.remoteCallNS, d)
	} else {
		n.localCallNS = append(n.localCallNS, d)
	}
	n.mu.Unlock()
}

func (tt *tracedTransport) Drops() int64                     { return tt.inner.Drops() }
func (tt *tracedTransport) KindDrops() [proto.NumKinds]int64 { return tt.inner.KindDrops() }
func (tt *tracedTransport) Close() error                     { return tt.inner.Close() }

// leaving records one message at Send entry and returns the entry instant.
// An envelope's members share its sender and its target, so each of the
// two nodes' locks is taken once per Send.
func (t *tracer) leaving(m *proto.Message, remote bool) int64 {
	if remote && t.w.spec.tcp {
		t.mu.Lock()
		if len(t.sample) < sampleCap {
			t.sample = append(t.sample, proto.Clone(m)) // the clone is ours
		}
		t.mu.Unlock()
	}
	t.sends.Add(1)
	if remote {
		t.remoteSends.Add(1)
	}
	members := []*proto.Message{m}
	if m.Kind == proto.KindBatch {
		members = m.Batch
		t.envelopes.Add(1)
		t.envMembers.Add(int64(len(members)))
	}
	t.protoMsgs.Add(int64(len(members)))
	now := t.now()

	// What the sender forwards: pushes, against what reached it earlier.
	// Every push in one Send has the sender as its Origin.
	var src *nodeTrace
	for _, sub := range members {
		if sub.Kind != proto.KindPush {
			continue
		}
		if src == nil {
			src = &t.nodes[sub.Origin]
			src.mu.Lock()
		}
		if a, ok := src.arrived[sub.Key]; ok && a.version == sub.Version {
			src.turnaroundNS = append(src.turnaroundNS, float64(now-a.at))
		}
		if sub.Origin == t.root && sub.Version > src.published[sub.Key] {
			src.published[sub.Key] = sub.Version
			t.versionsSent.Add(1)
			src.publishToSendNS = append(src.publishToSendNS, float64(now-t.published(sub)))
		}
	}
	if src != nil {
		src.mu.Unlock()
	}

	// What is now on its way to the target.
	n := &t.nodes[m.To]
	n.mu.Lock()
	for _, sub := range members {
		switch sub.Kind {
		case proto.KindPrepare, proto.KindPromise, proto.KindAccept, proto.KindCommit,
			proto.KindLease, proto.KindReconfig, proto.KindStateXfer:
			t.replicaSends.Add(1)
		case proto.KindPush:
			if t.probeKey[sub.Key] {
				n.edges[edgeID{m.To, sub.Key, sub.Version}] = &edge{from: sub.Origin, sendAt: now, publish: t.published(sub)}
			}
		}
		if id, ok := idOf(sub, m.To); ok {
			n.inFlight[id] = sent{now, remote}
		}
	}
	n.mu.Unlock()
	return now
}

// published is when the version a push carries was published, in
// nanoseconds since base: its Expiry - TTL.
func (t *tracer) published(push *proto.Message) int64 {
	return int64(push.Expiry*1e9) - t.base.UnixNano() - int64(t.ttl)
}

// pooled gathers one kind of sample from every node.
func (t *tracer) pooled(of func(*nodeTrace) []float64) []float64 {
	var all []float64
	for i := range t.nodes {
		all = append(all, of(&t.nodes[i])...)
	}
	return all
}

// idOf names one hop of one message, for the kinds whose fields make a
// hop unique: a push by (target, key, version), a request or reply by the
// query it belongs to and how far along its path it is.
func idOf(m *proto.Message, to int) (msgID, bool) {
	switch m.Kind {
	case proto.KindPush:
		return msgID{proto.KindPush, int32(to), 0, int32(m.Key), m.Version, 0}, true
	case proto.KindRequest:
		return msgID{proto.KindRequest, int32(to), int32(m.Origin), int32(m.Key), m.Seq, int32(m.Hops)}, true
	case proto.KindReply:
		return msgID{proto.KindReply, int32(to), int32(m.Origin), int32(m.Key), m.Seq, int32(len(m.Path))}, true
	}
	return msgID{}, false
}

// delivered records one message at handler entry, before the node sees it.
func (t *tracer) delivered(to int, m *proto.Message) {
	members := []*proto.Message{m}
	if m.Kind == proto.KindBatch {
		members = m.Batch
	}
	n := &t.nodes[to]
	n.mu.Lock()
	now := t.now()
	for _, sub := range members {
		if id, ok := idOf(sub, to); ok {
			if s, ok := n.inFlight[id]; ok {
				delete(n.inFlight, id)
				// Under TCP a same-Network hop is a function call; only the
				// hops that crossed a socket say anything about the transport.
				if s.remote || !t.w.spec.tcp {
					n.transitNS = append(n.transitNS, float64(now-s.at))
				}
			}
		}
		switch sub.Kind {
		case proto.KindPush:
			n.arrived[sub.Key] = arrival{sub.Version, now}
			if e := n.edges[edgeID{to, sub.Key, sub.Version}]; e != nil && e.recvAt == 0 {
				e.recvAt = now
			}
		case proto.KindSubscribe, proto.KindUnsubscribe:
			n.core = append(n.core, coreCall{to, sub.Key, sub.Kind, sub.Subject, 0})
		case proto.KindSubstitute:
			n.core = append(n.core, coreCall{to, sub.Key, sub.Kind, sub.Old, sub.New})
		}
	}
	n.mu.Unlock()
}

// tracedJournal times the three journal interfaces around a store.Store.
type tracedJournal struct {
	t *tracer
	s *store.Store
}

func (t *tracer) wrapJournal(s *store.Store, dir string) store.Journal {
	t.walPath = filepath.Join(dir, "wal.log")
	t.fs = fsType(dir)
	return &tracedJournal{t, s}
}

func (j *tracedJournal) Record(ns store.NodeState) {
	j.timed(&j.t.recordNS, func() { j.s.Record(ns) })
}

func (j *tracedJournal) RecordReplica(rs store.ReplicaState) {
	j.timed(&j.t.repNS, func() { j.s.RecordReplica(rs) })
}

func (j *tracedJournal) RecordReplicaConfig(rc store.ReplicaConfig) {
	j.timed(&j.t.recordNS, func() { j.s.RecordReplicaConfig(rc) })
}

func (j *tracedJournal) timed(into *[]float64, call func()) {
	if !j.t.on.Load() {
		call()
		return
	}
	t0 := j.t.now()
	call()
	d := float64(j.t.now() - t0)
	var size int64
	if fi, err := os.Stat(j.t.walPath); err == nil {
		size = fi.Size()
	}
	j.t.jmu.Lock()
	*into = append(*into, d)
	j.t.records++
	// The log only grows, except when compaction resets it; the record
	// that triggered a reset is then missed, one in thousands.
	if size > j.t.walSize {
		j.t.walBytes += size - j.t.walSize
	}
	j.t.walSize = size
	j.t.jmu.Unlock()
}

// span is one interval at a layer boundary, as written to the trace file.
type span struct {
	ID      string  `json:"id"`   // shared by all spans of one (key, version, node)
	Name    string  `json:"name"` // layer.metric
	Node    int     `json:"node"` // where the interval was spent (transit: the receiver)
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Parent  string  `json:"parent,omitempty"` // name of the span that caused it
}

// traceFile is bench/out/<workload>.trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	// SelfTimeUS sums, per layer, the median duration of each step along
	// the deepest probed path. The steps tile the parent push_resolve
	// span, so a step's duration is its self time and the parent's own
	// self time is the gap the steps leave uncovered.
	SelfTimeUS  map[string]float64 `json:"self_time_us"`
	DeepestPath []int              `json:"deepest_path"`
	PathSumMS   float64            `json:"path_sum_ms"`
	ResolveP50  float64            `json:"push_resolve_p50_ms"`
	Spans       []span             `json:"spans"`
}

// writeSpans rebuilds, for every version a probe resolved, the chain of
// hops that carried it there, and writes the spans.
func (t *tracer) writeSpans(e *epoch, path string) (*traceFile, error) {
	tf := &traceFile{Workload: t.w.name, SelfTimeUS: map[string]float64{}}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	type step struct {
		name string
		dur  []float64
	}
	// Steps of the deepest node's chains, by position, for the medians.
	var deepest []step
	deepNode := t.w.spec.nodes - 1 // ids are breadth-first: the last is deepest
	var seen []observation
	if e.probe != nil {
		seen = e.probe.seen
	} else {
		// No prober: close each chain at the delivery itself.
		for node := t.w.spec.nodes - probeNodes; node < t.w.spec.nodes; node++ {
			for id, ed := range t.nodes[node].edges {
				if ed.recvAt != 0 {
					seen = append(seen, observation{id.to, id.key, id.version, t.base.Add(time.Duration(ed.recvAt))})
				}
			}
		}
		sort.Slice(seen, func(i, j int) bool { return seen[i].at.Before(seen[j].at) })
	}
	for _, ob := range seen {
		// Walk back from the observed node to the root.
		var chain []*edge
		var nodes []int
		for at := ob.node; at != t.root; {
			ed := t.nodes[at].edges[edgeID{at, ob.key, ob.version}]
			if ed == nil || ed.recvAt == 0 || len(chain) > t.w.spec.nodes {
				chain = nil
				break
			}
			chain = append(chain, ed)
			nodes = append(nodes, at)
			at = ed.from
		}
		if len(chain) == 0 {
			continue // sent before the window opened, or retransmitted
		}
		id := fmt.Sprintf("k%dv%dn%d", ob.key, ob.version, ob.node)
		observed := int64(ob.at.Sub(t.base))
		first := chain[len(chain)-1]
		var steps []span
		steps = append(steps, span{id, "live.publish_to_send", t.root, us(first.publish), us(first.sendAt), "push_resolve"})
		for i := len(chain) - 1; i >= 0; i-- {
			ed := chain[i]
			steps = append(steps, span{id, "transport.transit", nodes[i], us(ed.sendAt), us(ed.recvAt), steps[len(steps)-1].Name})
			if i > 0 {
				steps = append(steps, span{id, "live.hop_turnaround", nodes[i], us(ed.recvAt), us(chain[i-1].sendAt), "transport.transit"})
			}
		}
		last := chain[0]
		if e.probe != nil {
			steps = append(steps, span{id, "live.resolve", ob.node, us(last.recvAt), us(observed), "transport.transit"})
		}
		tf.Spans = append(tf.Spans, span{id, "push_resolve", ob.node, us(first.publish), us(observed), ""})
		tf.Spans = append(tf.Spans, steps...)
		if ob.node == deepNode {
			if deepest == nil {
				deepest = make([]step, len(steps))
				for i, s := range steps {
					deepest[i].name = s.Name
				}
				for i := len(nodes) - 1; i >= 0; i-- {
					tf.DeepestPath = append(tf.DeepestPath, nodes[i])
				}
			}
			if len(steps) == len(deepest) {
				for i, s := range steps {
					deepest[i].dur = append(deepest[i].dur, s.EndUS-s.StartUS)
				}
			}
		}
	}
	for _, s := range deepest {
		layer, _, _ := strings.Cut(s.name, ".")
		m := medianOf(s.dur)
		tf.SelfTimeUS[layer] += m
		tf.PathSumMS += m / 1e3
	}
	if e.probe != nil {
		tf.ResolveP50 = median(e.probe.resolveMS)
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return nil, err
	}
	return tf, os.WriteFile(path, append(data, '\n'), 0o644)
}

// report turns the traced epoch into the timed per-layer metrics, runs the
// replays, writes the trace file and releases the wire sample.
func (t *tracer) report(res *result, w *liveWorkload, e *epoch, plain []*epoch, outDir string) error {
	tf, err := t.writeSpans(e, filepath.Join(outDir, w.name+".trace.json"))
	if err != nil {
		return err
	}
	ops := float64(e.ops(w))
	pushes := float64(e.stats.Pushes)
	var baseCPU, baseOps float64
	for _, p := range plain {
		baseCPU += float64(p.cpu())
		baseOps += float64(p.ops(w))
	}
	res.set("driver.trace_overhead_ratio", ratio(float64(e.cpu())/ops, baseCPU/baseOps))

	ns := func(v []float64, p float64) float64 { sort.Float64s(v); return percentile(v, p) / 1e3 } // ns -> µs
	turnaround := t.pooled(func(n *nodeTrace) []float64 { return n.turnaroundNS })
	res.set("live.publish_to_send_p50_us", ns(t.nodes[t.root].publishToSendNS, 0.5))
	res.set("live.hop_turnaround_p50_us", ns(turnaround, 0.5))
	res.set("live.hop_turnaround_p99_us", ns(turnaround, 0.99))
	res.set("live.batch_members_mean", ratio(float64(t.envMembers.Load()), float64(t.envelopes.Load())))
	res.set("live.msgs_per_push", ratio(float64(t.protoMsgs.Load()), pushes))

	calls := t.pooled(func(n *nodeTrace) []float64 {
		if w.spec.tcp {
			return n.remoteCallNS // the socket path; a local hand-off is the inbox push alone
		}
		return n.localCallNS
	})
	transit := t.pooled(func(n *nodeTrace) []float64 { return n.transitNS })
	res.set("transport.send_call_p50_us", ns(calls, 0.5))
	res.set("transport.send_call_p99_us", ns(calls, 0.99))
	res.set("transport.transit_p50_us", ns(transit, 0.5))
	res.set("transport.transit_p99_us", ns(transit, 0.99))
	res.set("transport.handler_refusals", float64(t.refusals.Load()))
	if w.spec.tcp {
		res.set("transport.frames_per_msg", ratio(float64(e.frames), float64(t.sends.Load())))
		t.replayWire(res, pushes)
	} else {
		t.releaseSample()
	}
	t.replayCore(res, e)
	replayProto(res)
	if w.spec.replicas > 1 {
		versions := float64(t.versionsSent.Load())
		res.set("replica.msgs_per_version", ratio(float64(t.replicaSends.Load()), versions))
		replayReplica(res)
		res.set("store.record_p50_us", ns(t.recordNS, 0.5))
		res.set("store.record_p99_us", ns(t.recordNS, 0.99))
		res.set("store.record_replica_p50_us", ns(t.repNS, 0.5))
		res.set("store.record_replica_p99_us", ns(t.repNS, 0.99))
		res.set("store.records_per_push", ratio(float64(t.records), pushes))
		res.set("store.wal_bytes_per_version", ratio(float64(t.walBytes), versions))
		res.Notes = append(res.Notes, "store timings taken on "+t.fs)
	}
	if e.probe != nil {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"trace: median span times along the deepest path %v sum to %.3f ms; traced push_resolve_p50_ms %.3f (ratio %.2f)",
			tf.DeepestPath, tf.PathSumMS, tf.ResolveP50, ratio(tf.PathSumMS, tf.ResolveP50)))
	}
	return nil
}
