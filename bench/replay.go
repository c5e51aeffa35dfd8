package main

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"time"

	"dup/internal/core"
	"dup/internal/proto"
	"dup/internal/replica"
	"dup/internal/store"
	"dup/internal/wire"
)

// replayMin is how many messages each codec path must see before its
// per-message time is reported.
const replayMin = 10000

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (t *tracer) releaseSample() {
	for _, m := range t.sample {
		proto.Release(m)
	}
	t.sample = nil
}

// replayWire pushes the workload's own socket-bound traffic — the sample
// cloned at Send — through the three codec paths the TCP transport uses:
// AppendFrame on the way out, DecodeMessage per frame, and ReadBurst over
// the byte stream. A message here is what Send saw: a bare message or one
// envelope with its members.
func (t *tracer) replayWire(res *result, pushes float64) {
	defer t.releaseSample()
	n := len(t.sample)
	if n == 0 {
		return
	}
	passes := (replayMin + n - 1) / n
	msgs := float64(passes * n)

	var stream []byte
	offsets := make([]int, 0, n+1)
	for _, m := range t.sample {
		offsets = append(offsets, len(stream))
		stream = wire.AppendFrame(stream, m)
	}
	offsets = append(offsets, len(stream))

	m0 := mallocs()
	buf := make([]byte, 0, 4096)
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for _, m := range t.sample {
			buf = wire.AppendFrame(buf[:0], m)
		}
	}
	encode := time.Since(t0)

	const header = 4 // the frame's length prefix; DecodeMessage takes the payload
	t0 = time.Now()
	for p := 0; p < passes; p++ {
		for i := 0; i < n; i++ {
			m, err := wire.DecodeMessage(stream[offsets[i]+header : offsets[i+1]])
			if err != nil {
				res.fail("wire replay: frame %d does not decode: %v", i, err)
				return
			}
			proto.Release(m)
		}
	}
	decode := time.Since(t0)

	t0 = time.Now()
	for p := 0; p < passes; p++ {
		r := wire.NewReader(bytes.NewReader(stream))
		got := 0
		for {
			ms, err := r.ReadBurst(0)
			for _, m := range ms {
				proto.Release(m)
			}
			got += len(ms)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				res.fail("wire replay: burst read: %v", err)
				return
			}
		}
		if got != n {
			res.fail("wire replay: burst read %d of %d frames", got, n)
			return
		}
	}
	burst := time.Since(t0)
	allocs := float64(mallocs() - m0)

	res.set("wire.encode_ns_per_msg", float64(encode)/msgs)
	res.set("wire.decode_ns_per_msg", float64(decode)/msgs)
	res.set("wire.burst_decode_ns_per_msg", float64(burst)/msgs)
	res.set("wire.allocs_per_kmsg", 1000*allocs/(3*msgs))
	perMsg := float64(len(stream)) / float64(n)
	res.set("wire.bytes_per_msg", perMsg)
	res.set("wire.bytes_per_push", ratio(perMsg*float64(t.remoteSends.Load()), pushes))
}

// replayCore feeds the subscribe/unsubscribe/substitute deliveries the
// traced window captured, in each node's arrival order, into a fresh
// core.State per (node, key): the state machine's own cost with the live shell removed.
func (t *tracer) replayCore(res *result, e *epoch) {
	var calls []coreCall
	for i := range t.nodes {
		calls = append(calls, t.nodes[i].core...) // order matters only within a node
	}
	if len(calls) == 0 {
		res.set("core.cpu_share_ratio", 0) // nothing reached the state machine
		return
	}
	states := map[[2]int]*core.State{}
	for _, c := range calls {
		k := [2]int{c.node, c.key}
		if states[k] == nil {
			states[k] = core.NewState(c.node, c.node == t.root)
		}
	}
	actions := 0
	m0 := mallocs()
	t0 := time.Now()
	for _, c := range calls {
		st := states[[2]int{c.node, c.key}]
		switch c.kind {
		case proto.KindSubscribe:
			actions += len(st.HandleSubscribe(c.a))
		case proto.KindUnsubscribe:
			actions += len(st.HandleUnsubscribe(c.a))
		case proto.KindSubstitute:
			actions += len(st.HandleSubstitute(c.a, c.b))
		}
	}
	el := time.Since(t0)
	allocs := float64(mallocs() - m0)
	n := float64(len(calls))
	res.set("core.ns_per_call", float64(el)/n)
	res.set("core.actions_per_call", float64(actions)/n)
	res.set("core.allocs_per_kcall", 1000*allocs/n)
	res.set("core.cpu_share_ratio", ratio(float64(el), float64(e.cpu())))
}

// replayProto times the message pool's checkout/return pair.
func replayProto(res *result) {
	const n = 200000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		proto.Release(proto.NewMessage())
	}
	res.set("proto.new_release_ns", float64(time.Since(t0))/n)
}

// replayReplica wires three sans-IO replica Groups back to back over
// in-memory journals and drives them with Bump, Step and Tick: the quorum
// protocol's own cost with no lanes, transport or disk under it.
func replayReplica(res *result) {
	const members, bumps, keys = 3, 4000, 32
	ids := make([]int, members)
	for i := range ids {
		ids[i] = i
	}
	groups := make([]*replica.Group, members)
	for i := range groups {
		groups[i] = replica.New(replica.Config{ID: i, Members: ids, Lease: time.Hour, Journal: store.NewMem()})
	}
	steps := 0
	var stepTime time.Duration
	// pump delivers frames until the groups fall silent.
	pump := func(msgs []*proto.Message, now time.Time) {
		for len(msgs) > 0 {
			m := msgs[0]
			msgs = msgs[1:]
			t0 := time.Now()
			out := groups[m.To].Step(m, now)
			stepTime += time.Since(t0)
			steps++
			proto.Release(m)
			msgs = append(msgs, out...)
		}
	}
	now := time.Now()
	groups[0].BootLeader()
	pump(groups[0].Tick(now), now) // acquire the lease
	if !groups[0].MayServe(now) {
		res.fail("replica replay: leader holds no lease after one tick round")
		return
	}
	steps, stepTime = 0, 0
	exp := float64(now.Add(time.Hour).UnixNano()) / 1e9
	t0 := time.Now()
	for i := 0; i < bumps; i++ {
		key := i % keys
		v, msgs, ok := groups[0].Bump(key, int64(i/keys+1), exp, now)
		if !ok || v != int64(i/keys+1) {
			res.fail("replica replay: bump %d refused (v=%d ok=%v)", i, v, ok)
			return
		}
		pump(msgs, now)
		if i%keys == keys-1 {
			pump(groups[0].Tick(now), now) // commit watermarks
		}
	}
	total := time.Since(t0)
	if c := groups[1].Accepted(0); c != int64(bumps/keys) {
		res.fail("replica replay: follower accepted version %d for key 0, want %d", c, bumps/keys)
	}
	res.set("replica.bump_commit_ns", float64(total)/bumps)
	res.set("replica.step_ns_per_msg", ratio(float64(stepTime), float64(steps)))
}
