package sim_test

import (
	"runtime"
	"testing"

	"dup/internal/raceflag"
	"dup/internal/scheme"
	"dup/internal/scheme/cup"
	"dup/internal/scheme/dupscheme"
	"dup/internal/sim"
)

// TestSimRunAllocs pins the simulator core's allocation pressure: pooled
// messages, the event heap and the schemes' per-node state keep a run at a
// few allocations per thousand events. The bounds are 3x the recorded
// steady state (2.44, 2.14 and 10.9 per thousand events for DUP, CUP and
// churn; PCX, now at 1.95, keeps the bound set when it read 1.74), so they
// catch a per-event allocation creeping back in, not noise.
func TestSimRunAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	// 1024 nodes, three TTL cycles: the configuration the root package's
	// BenchmarkSimulatorThroughput uses.
	throughput := func() sim.Config {
		cfg := sim.Default()
		cfg.Nodes = 1024
		cfg.Duration = 3 * cfg.TTL
		cfg.Warmup = cfg.TTL
		cfg.Seed = 12
		cfg.Lambda = 50
		return cfg
	}
	pcx := throughput()
	pcx.Lead = 0 // PCX has no push schedule
	churn := throughput()
	churn.Lambda = 10
	churn.FailRate = 0.02
	churn.DetectDelay = 30
	churn.DownTime = 600
	churn.RetryTimeout = 5
	newDUP := func() scheme.Scheme { return dupscheme.New() }

	for _, tc := range []struct {
		name         string
		cfg          sim.Config
		newScheme    func() scheme.Scheme
		maxPerKEvent float64
	}{
		{"throughput-dup", throughput(), newDUP, 7.3},
		{"throughput-cup", throughput(), func() scheme.Scheme { return cup.New() }, 6.4},
		{"throughput-pcx", pcx, func() scheme.Scheme { return scheme.NewPCX() }, 5.2},
		{"churn-dup", churn, newDUP, 32.9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			r, err := sim.Run(tc.cfg, tc.newScheme())
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if r.Events == 0 {
				t.Fatal("run processed no events")
			}
			got := float64(after.Mallocs-before.Mallocs) / float64(r.Events) * 1000
			t.Logf("%.2f allocs per 1000 events over %d events", got, r.Events)
			if got > tc.maxPerKEvent {
				t.Errorf("%.2f allocs per 1000 events over %d events, want <= %.1f",
					got, r.Events, tc.maxPerKEvent)
			}
		})
	}
}
