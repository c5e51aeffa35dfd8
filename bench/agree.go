package main

import (
	"fmt"
	"io"
	"math"
)

// agree compares two result files workload by workload: every end-to-end
// metric of b may differ from a's by at most its bound, as a share of a's
// value (fail_ratio: by its absolute bound). It is the check for "two run
// sets of one commit agree" and, with a the parent and b the change, the
// table that shows what moved. It returns the process exit code: 0 agree,
// 1 some metric does not, 2 unusable input.
func agree(w io.Writer, pathA, pathB string) int {
	fa, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	fb, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	byName := map[string]*result{}
	for _, r := range fb.Runs {
		byName[r.Workload] = r
	}
	code, compared := 0, 0
	for _, a := range fa.Runs {
		b := byName[a.Workload]
		if b == nil {
			continue
		}
		compared++
		if !a.Comparable || !b.Comparable {
			fmt.Fprintf(w, "warning: %s: a shortened run is being compared; its numbers are not comparable with full runs\n", a.Workload)
		}
		fmt.Fprintf(w, "== %s  (steal %.3f / %.3f, epochs discarded %.0f / %.0f)\n", a.Workload,
			a.Metrics["driver.steal_ratio"].Value, b.Metrics["driver.steal_ratio"].Value,
			a.Metrics["driver.epochs_discarded"].Value, b.Metrics["driver.epochs_discarded"].Value)
		for _, e := range endToEnd {
			va, okA := a.Metrics[e.name]
			vb, okB := b.Metrics[e.name]
			if !okA || !okB {
				continue
			}
			limit := e.bound * math.Abs(va.Value)
			how := fmt.Sprintf("%+.1f%% (bound %.0f%%)", 100*ratio(vb.Value-va.Value, va.Value), 100*e.bound)
			if e.name == "fail_ratio" {
				limit = e.bound
				how = fmt.Sprintf("%+.4f (bound +%.3f)", vb.Value-va.Value, e.bound)
			}
			verdict := "ok"
			if diff := vb.Value - va.Value; math.Abs(diff) > limit {
				verdict = "DIFFERS: worse"
				if (diff > 0) == e.higher {
					verdict = "DIFFERS: better"
				}
				code = 1
			}
			fmt.Fprintf(w, "%-24s %14.4f %14.4f %-8s %s  %s\n", e.name, va.Value, vb.Value, va.Unit, how, verdict)
		}
	}
	if compared == 0 {
		fmt.Fprintln(w, "bench: the two files share no workload")
		return 2
	}
	return code
}
