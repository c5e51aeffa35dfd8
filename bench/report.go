package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// endToEnd lists the metrics a user of the system would see, with the
// share by which each may worsen before -agree calls it a regression.
// Every workload reports the ones that exist for it (README.md has the
// table). BENCHMARK.json's end_to_end is the subset every workload can
// report; bench_test.go pins the two to the same units and bounds.
var endToEnd = []struct {
	name   string
	higher bool    // better when higher
	bound  float64 // relative, except fail_ratio's, which is absolute
}{
	{"setup_s", false, 0.25},
	{"push_resolve_p50_ms", false, 0.10},
	{"query_miss_p50_ms", false, 0.10},
	{"query_hops_mean", false, 0.05},
	{"msgs_per_query", false, 0.05},
	{"frames_per_push", false, 0.05},
	{"cpu_us_per_op", false, 0.10},
	{"allocs_per_op", false, 0.08},
	{"fail_ratio", false, 0.001},
	{"failover_p50_ms", false, 0.10},
	{"events_per_cpu_s", true, 0.10},
	{"peak_rss_mb", false, 0.25},
}

// units maps every metric name to its unit. BENCHMARK.json is the one
// place units are written down; loadContract fills this from it.
var units = map[string]string{}

func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	return "count"
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run, as written to its result file.
type result struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Epochs   int     `json:"epochs"`
	WindowS  float64 `json:"window_s"`
	Traced   bool    `json:"traced"`
	// Comparable is false when -epochs or -window shortened the run.
	Comparable bool `json:"comparable"`
	// Noisy marks a run that kept an epoch over the steal limit after
	// running out of repeats.
	Noisy     bool             `json:"noisy"`
	Correct   bool             `json:"correct"`
	Failures  []string         `json:"failures,omitempty"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Notes     []string         `json:"notes,omitempty"`
}

func newResult(workload string, seed uint64) *result {
	return &result{Workload: workload, Seed: seed, Comparable: true, Correct: true, Metrics: map[string]value{}}
}

// set records a metric. Each name is set once per run; a second set is a
// bug in the benchmark and fails the run rather than overwriting silently.
func (r *result) set(name string, v float64) {
	if _, dup := r.Metrics[name]; dup {
		r.fail("metric %s emitted twice", name)
	}
	r.Metrics[name] = value{v, unitOf(name)}
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// print writes every metric by name and unit, end-to-end ones first.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed %d  %d epochs x %.1fs  traced=%v\n", r.Workload, r.Seed, r.Epochs, r.WindowS, r.Traced)
	printed := map[string]bool{}
	for _, e := range endToEnd {
		if v, ok := r.Metrics[e.name]; ok {
			fmt.Fprintf(w, "%-36s %14.4f %s\n", e.name, v.Value, v.Unit)
			printed[e.name] = true
		}
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		if !printed[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Fprintf(w, "%-36s %14.4f %s\n", n, v.Value, v.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if !r.Comparable {
		fmt.Fprintln(w, "warning: -epochs/-window shortened this run; its numbers are not comparable with full runs")
	}
	if r.Noisy {
		fmt.Fprintln(w, "warning: noisy run: an epoch over the steal limit was kept after 3 repeats")
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAIL: %s\n", f)
	}
}

// resultFile is the on-disk shape: one run, or all four.
type resultFile struct {
	Runs []*result `json:"runs"`
}

func writeResults(path string, runs ...*result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(resultFile{runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &f, nil
}

// contract is BENCHMARK.json, as far as the benchmark itself needs it: the
// metric names the driver expects on the last line of a run.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range append(c.EndToEnd, c.PerLayer...) {
		units[m.Name] = m.Unit
	}
	return &c, nil
}

// lastLine is the one JSON object the driver reads: every end-to-end
// metric of BENCHMARK.json for an untraced run, every per-layer metric
// for a traced one. A per-layer metric of a layer the workload bypasses
// reads 0 there: no work was done in it.
func (r *result) lastLine(c *contract) ([]byte, error) {
	want, strict := c.EndToEnd, true
	if r.Traced {
		want, strict = c.PerLayer, false
	}
	metrics := make(map[string]value, len(want))
	for _, m := range want {
		v, ok := r.Metrics[m.Name]
		if !ok {
			if strict {
				return nil, fmt.Errorf("workload %s did not measure end-to-end metric %s", r.Workload, m.Name)
			}
			v = value{0, m.Unit}
		}
		metrics[m.Name] = v
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, attempted, r.Failed, metrics})
}
