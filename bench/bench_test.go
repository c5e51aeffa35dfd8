package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dup/internal/live"
	"dup/internal/proto"
)

func TestMain(m *testing.M) {
	// Units come from BENCHMARK.json, at the repository root.
	if _, err := loadContract(filepath.Join("..", contractPath)); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{2000, 0.99, 1980}, // plain nearest rank: 20 samples beyond
		{1000, 0.99, 990},  // exactly ten beyond
		{750, 0.99, 740},   // clamped: rank 743 would leave only seven
		{100, 0.99, 90},    // clamped down to p90
		{100, 0.50, 50.5},  // p50 is the median proper
		{21, 0.99, 11},     // the clamp reaches the median
		{20, 0.99, 10.5},   // too few for any tail: the median
		{1, 0.99, 1},
		{0, 0.99, 0},
	}
	for _, c := range cases {
		if got := percentile(ramp(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestMedianOfEpochsIgnoresOneSlowEpoch(t *testing.T) {
	fast := ramp(100) // p50 50, "p99" 90
	slow := make([]float64, 100)
	for i := range slow {
		slow[i] = 1000 + float64(i)
	}
	epochs := [][]float64{fast, fast, slow, fast, nil} // an empty epoch is skipped
	if got := epochPercentiles(epochs, 0.5); got != 50.5 {
		t.Errorf("median of per-epoch p50 = %v, want 50.5", got)
	}
	if got := epochPercentiles(epochs, 0.99); got != 90 {
		t.Errorf("median of per-epoch p99 = %v, want 90", got)
	}
	if got := medianOf([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("medianOf even count = %v, want 2.5", got)
	}
}

func TestZipfShiftIsDeterministicAndRotates(t *testing.T) {
	draw := func(seed uint64) []int {
		z := newZipfShift(47, 256, 0.9, 2*time.Second, seed)
		var out []int
		for i := 0; i < 4000; i++ {
			n, k := z.next(time.Duration(i) * time.Millisecond)
			if n < 1 || n > 47 || k < 0 || k > 255 {
				t.Fatalf("draw %d out of range: node %d key %d", i, n, k)
			}
			out = append(out, n<<8|k)
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	same := func(x, y []int) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed gave different query sequences")
	}
	if same(a, c) {
		t.Error("different seeds gave the same query sequence")
	}

	z := newZipfShift(47, 256, 0.9, 2*time.Second, 7)
	// The ranking moves by a quarter (47/4 = 11 ranks) every 2 s and is
	// still a permutation of the nodes.
	if z.nodeAt(0, 1999*time.Millisecond) != z.nodeAt(0, 0) {
		t.Error("hot node moved before the rotation period")
	}
	if got, want := z.nodeAt(0, 2*time.Second), z.nodeAt(11, 0); got != want {
		t.Errorf("after one rotation rank 0 is node %d, want rank 11's node %d", got, want)
	}
	seen := map[int]bool{}
	for r := 0; r < 47; r++ {
		seen[z.nodeAt(r, 6*time.Second)] = true
	}
	if len(seen) != 47 || seen[0] {
		t.Errorf("rotated ranking is not a permutation of nodes 1..47: %d distinct, root included %v", len(seen), seen[0])
	}
	// Zipf: the hottest rank draws most.
	count := map[int]int{}
	for i := 0; i < 20000; i++ {
		n, _ := z.next(0)
		count[n]++
	}
	hot := z.nodeAt(0, 0)
	for n, c := range count {
		if c > count[hot] {
			t.Errorf("node %d drew %d queries, more than the hottest node %d (%d)", n, c, hot, count[hot])
		}
	}
}

func TestRoundRobinCoversEveryPair(t *testing.T) {
	r := newRoundRobin(47, 64, 5)
	seen := map[[2]int]int{}
	for i := 0; i < 47*64; i++ {
		n, k := r.next(0)
		if n < 1 || n > 47 {
			t.Fatalf("node %d out of range", n)
		}
		seen[[2]int{n, k}]++
	}
	if len(seen) != 47*64 {
		t.Errorf("one cycle covered %d of %d pairs", len(seen), 47*64)
	}
}

func TestScheduleDueTimes(t *testing.T) {
	s := schedule{rate: 20000, tick: time.Millisecond}
	for i := 0; i < 5; i++ {
		if n := s.upTo(i) - s.upTo(i-1); n != 20 {
			t.Errorf("tick %d carries %d queries, want 20", i, n)
		}
	}
	if s.due(1500) != 1500*time.Millisecond {
		t.Errorf("tick 1500 due at %v", s.due(1500))
	}
	// A rate the tick does not divide is spread without drift: 22560/s is
	// 22 or 23 per tick and exactly 22560 over any whole second.
	s = schedule{rate: 22560, tick: time.Millisecond}
	for sec := 0; sec < 3; sec++ {
		if n := s.upTo(1000*sec+999) - s.upTo(1000*sec-1); n != 22560 {
			t.Errorf("second %d carries %d queries, want 22560", sec, n)
		}
	}
	for i := 0; i < 1000; i++ {
		if n := s.upTo(i) - s.upTo(i-1); n != 22 && n != 23 {
			t.Errorf("tick %d carries %d queries, want 22 or 23", i, n)
		}
	}
	if got := interestRate(47, 64, live.DefaultConfig()); got != 22560 {
		t.Errorf("interest rate for 47x64 pairs at TTL 400ms = %d, want 22560", got)
	}
}

func TestRefusedAttemptIsRetriedNotFailed(t *testing.T) {
	// Every third query is refused twice before it is answered, as a lane
	// with a full control queue refuses.
	attempts := map[[2]int]int{}
	g := &generator{query: func(node, key int) (int, bool) {
		attempts[[2]int{node, key}]++
		if node%3 == 0 && attempts[[2]int{node, key}] <= 2 {
			return 0, false
		}
		return node % 2, true
	}}
	l := &load{}
	for node := 0; node < 9; node++ {
		g.issue(l, node, 1, time.Now())
	}
	if l.done != 9 || l.failed != 0 || l.retries != 6 {
		t.Errorf("done %d failed %d retries %d, want 9 0 6", l.done, l.failed, l.retries)
	}
	if len(l.hitUS)+len(l.missMS) != 9 {
		t.Errorf("%d hits + %d misses timed, want 9", len(l.hitUS), len(l.missMS))
	}
}

func TestMsgsPerQueryArithmetic(t *testing.T) {
	var a, b live.Stats
	a.Queries, b.Queries = 1000, 3000
	a.QueryHops, b.QueryHops = 100, 600 // 500 request hops, 500 reply hops
	a.Pushes, b.Pushes = 50, 450
	a.Subscribes, b.Subscribes = 10, 110
	a.Substitutes, b.Substitutes = 5, 55
	a.AcksByKind[proto.KindUnsubscribe], b.AcksByKind[proto.KindUnsubscribe] = 1, 51
	// Not part of the paper's cost: acks of other kinds, keep-alives, beacons.
	b.Acks, b.KeepAlives, b.RootAnnounces = 9999, 9999, 9999
	b.AcksByKind[proto.KindPush] = 9999
	d := statsDelta(a, b)
	want := float64(2*500+400+100+50+50) / 2000
	if got := msgsPerQuery(d); got != want {
		t.Errorf("msgsPerQuery = %v, want %v", got, want)
	}
	if got := msgsPerQuery(live.Stats{}); got != 0 {
		t.Errorf("msgsPerQuery with no queries = %v, want 0", got)
	}
}

func TestStealRatio(t *testing.T) {
	s0, t0 := parseCPULine("cpu  100 0 50 800 10 0 5 35 0 0")
	s1, t1 := parseCPULine("cpu  150 0 70 1500 10 0 5 65 7 0") // guest columns are not added again
	if s0 != 35 || t0 != 1000 || s1 != 65 || t1 != 1800 {
		t.Fatalf("parsed (%d,%d) (%d,%d)", s0, t0, s1, t1)
	}
	got := stealRatio(usage{steal: s0, total: t0}, usage{steal: s1, total: t1})
	if want := 30.0 / 800; got != want {
		t.Errorf("steal ratio = %v, want %v", got, want)
	}
	if s, tot := parseCPULine("intr 1 2 3"); s != 0 || tot != 0 {
		t.Errorf("non-cpu line parsed as (%d,%d)", s, tot)
	}
}

func writeRun(t *testing.T, dir, name string, metrics map[string]float64) string {
	t.Helper()
	r := newResult("fanout-tcp", 1)
	for k, v := range metrics {
		r.set(k, v)
	}
	path := filepath.Join(dir, name)
	if err := writeResults(path, r); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAgree(t *testing.T) {
	dir := t.TempDir()
	base := map[string]float64{"push_resolve_p50_ms": 10, "cpu_us_per_op": 30, "allocs_per_op": 11, "fail_ratio": 0, "live.msgs_per_push": 1}
	a := writeRun(t, dir, "a.json", base)

	near := map[string]float64{"push_resolve_p50_ms": 10.9, "cpu_us_per_op": 27.5, "allocs_per_op": 11.5, "fail_ratio": 0.0009, "live.msgs_per_push": 9}
	var out bytes.Buffer
	if code := agree(&out, a, writeRun(t, dir, "near.json", near)); code != 0 {
		t.Errorf("files within every bound: exit %d\n%s", code, out.String())
	}

	for metric, v := range map[string]float64{
		"push_resolve_p50_ms": 11.2,  // +12% against 10%
		"allocs_per_op":       10.0,  // -9% against 8%: better, but the sets disagree
		"fail_ratio":          0.002, // +0.002 against +0.001 absolute
	} {
		far := map[string]float64{}
		for k, x := range base {
			far[k] = x
		}
		far[metric] = v
		out.Reset()
		if code := agree(&out, a, writeRun(t, dir, "far.json", far)); code != 1 {
			t.Errorf("%s at %v: exit %d, want 1\n%s", metric, v, code, out.String())
		}
		flagged := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "DIFFERS") {
				if !strings.HasPrefix(line, metric) {
					t.Errorf("%s at %v: flagged the wrong metric: %s", metric, v, line)
				}
				flagged = true
			}
		}
		if !flagged {
			t.Errorf("%s at %v: not named in the output\n%s", metric, v, out.String())
		}
	}

	out.Reset()
	if code := agree(&out, a, filepath.Join(dir, "missing.json")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

// TestContractMatchesTables pins BENCHMARK.json to the benchmark's own
// table: every end-to-end metric the driver bounds is one -agree bounds,
// no more tightly than the driver does.
func TestContractMatchesTables(t *testing.T) {
	spec, err := loadContract(filepath.Join("..", contractPath))
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[string]float64{}
	for _, e := range endToEnd {
		bounds[e.name] = e.bound
	}
	setup := 0.0
	for _, m := range spec.EndToEnd {
		b, ok := bounds[m.Name]
		if !ok {
			t.Errorf("BENCHMARK.json end-to-end metric %s is not in the endToEnd table", m.Name)
		} else if b != m.Bound {
			t.Errorf("%s: bound %v in BENCHMARK.json, %v in the endToEnd table", m.Name, m.Bound, b)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s has a larger bound (%v) than setup_s (%v)", m.Name, m.Bound, setup)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
}

// TestSmokeFanoutOverChan boots fanout-tcp's cluster on the in-process
// transport (no sockets) for one short traced epoch and checks that both
// last lines carry exactly the metric names of BENCHMARK.json, each once.
func TestSmokeFanoutOverChan(t *testing.T) {
	spec, err := loadContract(filepath.Join("..", contractPath))
	if err != nil {
		t.Fatal(err)
	}
	w := *findLive("fanout-tcp")
	w.spec.tcp = false
	opt := options{seed: 1, epochs: 1, window: 300 * time.Millisecond, traced: true, settle: 20 * time.Millisecond, outDir: t.TempDir()}
	res, err := runLive(&w, opt)
	if err != nil {
		t.Fatal(err)
	}
	res.set("peak_rss_mb", 1)
	for _, f := range res.Failures {
		// A 300 ms window sees one refresh; timing-sensitive checks may trip
		// on a loaded test machine, a double emission may not.
		if strings.Contains(f, "emitted twice") {
			t.Error(f)
		} else {
			t.Log("smoke:", f)
		}
	}
	for _, traced := range []bool{false, true} {
		res.Traced = traced
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		line, err := res.lastLine(spec)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   *bool            `json:"correct"`
			Attempted int64            `json:"attempted"`
			Failed    *int64           `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("last line does not parse: %v\n%s", err, line)
		}
		if got.Correct == nil || got.Failed == nil || got.Attempted < 1 {
			t.Errorf("last line lacks correct/attempted/failed: %s", line)
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics on the last line, BENCHMARK.json lists %d", traced, len(got.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := got.Metrics[m.Name]
			if !ok {
				t.Errorf("traced=%v: %s missing from the last line", traced, m.Name)
			} else if v.Unit != m.Unit {
				t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
			}
		}
	}
	// The layers this workload exercises were measured, not zero-filled;
	// the ones it bypasses were left out.
	for _, name := range []string{"push_resolve_p50_ms", "cpu_us_per_op", "driver.late_p50_us", "live.hop_turnaround_p50_us",
		"live.batch_members_mean", "transport.transit_p50_us", "transport.send_call_p50_us", "proto.new_release_ns"} {
		if v, ok := res.Metrics[name]; !ok || v.Value <= 0 {
			t.Errorf("%s not measured: %+v", name, v)
		}
	}
	for _, name := range []string{"store.record_p50_us", "replica.bump_commit_ns", "wire.encode_ns_per_msg", "transport.frames_per_msg", "failover_p50_ms"} {
		if _, ok := res.Metrics[name]; ok {
			t.Errorf("%s reported by a workload that bypasses its layer", name)
		}
	}
}
