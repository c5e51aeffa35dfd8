// Command bench is the repository benchmark. `go run ./bench` runs the
// four workloads of BENCHMARK.json, each in its own process, prints every
// metric by name and unit, checks the outputs for correctness and writes
// one JSON result per run under bench/out. README.md has the definitions.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

const (
	outDir       = "bench/out"
	contractPath = "BENCHMARK.json"
	// epochs is how many fresh boots one run measures. Timings are the
	// median over epochs of each epoch's percentile; a single epoch's p50
	// spread ±15% in prototyping (README, hazard 4).
	epochs = 4
	// stealLimit is the share of host CPU the hypervisor may withhold
	// during an epoch before the epoch is discarded and repeated.
	stealLimit = 0.05
	maxRepeats = 3
)

// options are one run's settings.
type options struct {
	seed    uint64
	epochs  int
	window  time.Duration
	settle  time.Duration // idle time between boot and first query
	traced  bool
	full    bool   // neither -epochs nor -window shortened the run
	outDir  string // where journals and trace files go
	outPath string // the result file
	// updateGolden makes sim-paper rewrite its golden values.
	updateGolden bool
}

var workloadNames = []string{"fanout-tcp", "interest-shift-tcp", "replicated-chan", "sim-paper"}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "run one workload in this process (default: all four, one process each)")
	seed := flag.Uint64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 16, "seconds measured per run, split evenly over the epochs")
	trace := flag.Int("trace", 0, "1: traced run (one untraced reference epoch, one traced epoch), per-layer metrics on the last line")
	nEpochs := flag.Int("epochs", 0, "override the epoch count (quick loops; not comparable)")
	window := flag.Duration("window", 0, "override the measured window per epoch (quick loops; not comparable)")
	out := flag.String("out", "", "result file (default bench/out/<workload>.json, or bench/out/all.json)")
	agreeMode := flag.Bool("agree", false, "compare two result files: bench -agree a.json b.json")
	updateGolden := flag.Bool("update-golden", false, "sim-paper: rewrite bench/golden_sim.json from this run (default seed only)")
	flag.Parse()

	if *agreeMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -agree a.json b.json")
			return 2
		}
		return agree(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	spec, err := loadContract(contractPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *nEpochs < 0 || *window < 0 {
		fmt.Fprintln(os.Stderr, "bench: need -seconds >= 1, -trace 0 or 1, -epochs and -window >= 0")
		return 2
	}
	opt := options{
		seed: *seed, epochs: epochs, settle: settle, traced: *trace == 1,
		full: *nEpochs == 0 && *window == 0, outDir: outDir, outPath: *out, updateGolden: *updateGolden,
	}
	if opt.traced {
		opt.epochs = 2 // the untraced reference epoch, then the traced one
	}
	if *nEpochs > 0 {
		opt.epochs = *nEpochs
	}
	opt.window = time.Duration(*seconds) * time.Second / time.Duration(opt.epochs)
	if *window > 0 {
		opt.window = *window
	}

	if *workload == "" {
		return runAll(opt, *seconds, *trace)
	}
	if opt.outPath == "" {
		name := *workload
		if opt.traced {
			name += ".traced"
		}
		opt.outPath = filepath.Join(outDir, name+".json")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var res *result
	switch {
	case *workload == "sim-paper":
		res, err = runSim(opt)
	default:
		w := findLive(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *workload, workloadNames)
			return 2
		}
		res, err = runLive(w, opt)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	res.Comparable = opt.full
	if rss, err := peakRSSMB(); err != nil {
		res.fail("peak_rss_mb: %v", err)
	} else {
		res.set("peak_rss_mb", rss)
	}
	res.print(os.Stdout)
	if err := writeResults(opt.outPath, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := res.lastLine(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func findLive(name string) *liveWorkload {
	for i := range liveWorkloads {
		if liveWorkloads[i].name == name {
			return &liveWorkloads[i]
		}
	}
	return nil
}

// runAll runs every workload in a process of its own, so CPU, allocation
// and resident-set numbers are per workload, then gathers the result files
// into one.
func runAll(opt options, seconds, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	var runs []*result
	for _, name := range workloadNames {
		path := filepath.Join(outDir, name+".part.json")
		args := []string{
			"-workload", name, "-out", path,
			"-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace),
		}
		if !opt.full {
			args = append(args, "-epochs", fmt.Sprint(opt.epochs), "-window", opt.window.String())
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			code = 1
		}
		if f, err := readResults(path); err == nil {
			runs = append(runs, f.Runs...)
		}
		os.Remove(path)
	}
	if opt.outPath == "" {
		opt.outPath = filepath.Join(outDir, "all.json")
		if opt.traced {
			opt.outPath = filepath.Join(outDir, "all.traced.json")
		}
	}
	if err := writeResults(opt.outPath, runs...); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("results: %s\n", opt.outPath)
	return code
}
