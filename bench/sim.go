package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"dup/internal/rng"
	"dup/internal/scheme"
	"dup/internal/scheme/cup"
	"dup/internal/scheme/dupscheme"
	"dup/internal/sim"
	"dup/internal/topology"
)

const goldenPath = "bench/golden_sim.json"

// simJob is one simulator run of the sim-paper workload.
type simJob struct {
	name string
	cfg  func(base sim.Config) sim.Config
	new  func() scheme.Scheme
}

// simBase is the paper's Table I defaults (4096 nodes, θ 1.2, c 6) at
// λ = 50 for ten TTL cycles, one of them warm-up.
func simBase(seed uint64, tree *topology.Tree) sim.Config {
	cfg := sim.Default()
	cfg.Lambda = 50
	cfg.Duration = 10 * cfg.TTL
	cfg.Warmup = cfg.TTL
	cfg.Seed = seed
	cfg.Tree = tree
	return cfg
}

var simJobs = []simJob{
	{"dup", func(c sim.Config) sim.Config { return c }, func() scheme.Scheme { return dupscheme.New() }},
	{"cup", func(c sim.Config) sim.Config { return c }, func() scheme.Scheme { return cup.New() }},
	{"pcx", func(c sim.Config) sim.Config { c.Lead = 0; return c }, func() scheme.Scheme { return scheme.NewPCX() }},
	{"churn", func(c sim.Config) sim.Config {
		c.FailRate, c.DetectDelay, c.DownTime, c.RetryTimeout = 0.02, 30, 600, 5
		return c
	}, func() scheme.Scheme { return dupscheme.New() }},
	{"rotate", func(c sim.Config) sim.Config { c.HotspotRotate = c.TTL; return c }, func() scheme.Scheme { return dupscheme.New() }},
}

// simGolden is what one job must reproduce bit for bit.
type simGolden struct {
	Events      uint64  `json:"events"`
	Queries     int64   `json:"queries"`
	MeanCost    float64 `json:"mean_cost"`
	MeanLatency float64 `json:"mean_latency"`
}

type goldenFile struct {
	Seed uint64               `json:"seed"`
	Jobs map[string]simGolden `json:"jobs"`
}

// setupReps is how many times each round builds its inputs; set-up is a
// few milliseconds, so one build is mostly timer noise.
const setupReps = 5

// minRounds is the fewest rounds a run reports medians over.
const minRounds = 3

// runSim runs the sim-paper workload: rounds of the five jobs until the
// measured time is used up. It is a batch job: the job list fixes the work
// per round, -seconds only how many rounds there are.
func runSim(opt options) (*result, error) {
	res := newResult("sim-paper", opt.seed)
	res.Traced = opt.traced
	budget := time.Duration(opt.epochs) * opt.window
	started := time.Now()
	var (
		setups, genMS       []float64
		first               = map[string]simGolden{}
		events              = map[string]uint64{}
		cpu                 = map[string]time.Duration{}
		allEvents           uint64
		allCPU              time.Duration
		allMallocs          uint64
		dupCost, dupLatency float64
	)
	round := 0
	for ; round < minRounds || time.Since(started) < budget; round++ {
		// Start every round from a collected heap, so the resident-set
		// high-water mark is one round's garbage, not however many rounds
		// happened to fit between two collections.
		runtime.GC()
		var tree *topology.Tree
		var engines []*sim.Engine
		for rep := 0; rep < setupReps; rep++ {
			t0 := time.Now()
			tree = topology.Generate(4096, 4, rng.New(treeSeed).Split())
			genMS = append(genMS, float64(time.Since(t0))/1e6)
			engines = engines[:0]
			for _, j := range simJobs {
				e, err := sim.New(j.cfg(simBase(opt.seed, tree)), j.new())
				if err != nil {
					return nil, fmt.Errorf("%s: %w", j.name, err)
				}
				engines = append(engines, e)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		for i, j := range simJobs {
			before := readUsage()
			r, err := engines[i].Run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", j.name, err)
			}
			after := readUsage()
			got := simGolden{r.Events, r.Queries, r.MeanCost, r.MeanLatency}
			if round == 0 {
				first[j.name] = got
			} else if got != first[j.name] {
				res.fail("%s is not deterministic: round %d gave %+v, round 0 %+v", j.name, round, got, first[j.name])
			}
			events[j.name] += r.Events
			cpu[j.name] += after.cpu - before.cpu
			allEvents += r.Events
			allCPU += after.cpu - before.cpu
			allMallocs += after.mallocs - before.mallocs
			if j.name == "dup" {
				dupCost, dupLatency = r.MeanCost, r.MeanLatency
			}
		}
	}
	if opt.updateGolden {
		if err := writeGolden(opt.seed, first); err != nil {
			return nil, err
		}
	}
	if err := checkGolden(res, opt.seed, first); err != nil {
		return nil, err
	}

	res.Epochs, res.WindowS = round, time.Since(started).Seconds()/float64(round)
	res.Attempted = int64(round * len(simJobs))
	res.set("setup_s", medianOf(setups))
	res.set("msgs_per_query", dupCost)
	res.set("cpu_us_per_op", float64(allCPU.Microseconds())/float64(allEvents))
	res.set("allocs_per_op", 1000*float64(allMallocs)/float64(allEvents))
	res.set("fail_ratio", 0)
	res.set("events_per_cpu_s", float64(allEvents)/allCPU.Seconds())
	for _, j := range simJobs {
		res.set("sim."+j.name+"_events_per_cpu_s", float64(events[j.name])/cpu[j.name].Seconds())
	}
	res.set("sim.allocs_per_kevent", 1000*float64(allMallocs)/float64(allEvents))
	res.set("sim.dup_mean_cost", dupCost)
	res.set("sim.dup_mean_latency_hops", dupLatency)
	res.set("topology.generate_ms", medianOf(genMS))
	res.set("driver.epochs_discarded", 0)
	return res, nil
}

// checkGolden compares the default seed's results with the stored ones;
// any other seed has only the round-to-round determinism check above.
func checkGolden(res *result, seed uint64, got map[string]simGolden) error {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return fmt.Errorf("%s: %w", goldenPath, err)
	}
	if seed != g.Seed {
		res.Notes = append(res.Notes, fmt.Sprintf("seed %d is not the golden seed %d: golden values not checked", seed, g.Seed))
		return nil
	}
	for _, j := range simJobs {
		if got[j.name] != g.Jobs[j.name] {
			res.fail("%s differs from %s: got %+v, want %+v", j.name, goldenPath, got[j.name], g.Jobs[j.name])
		}
	}
	return nil
}

func writeGolden(seed uint64, got map[string]simGolden) error {
	data, err := json.MarshalIndent(goldenFile{seed, got}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
