package dup

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func testConfig(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Nodes = 256
	cfg.TTL = 600
	cfg.Lead = 10
	cfg.Duration = 9000
	cfg.Warmup = 600
	cfg.Lambda = 5
	cfg.Seed = seed
	return cfg
}

func TestParseScheme(t *testing.T) {
	for _, s := range Schemes() {
		got, err := ParseScheme(string(s))
		if err != nil || got != s {
			t.Fatalf("ParseScheme(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Fatal("ParseScheme accepted bogus scheme")
	}
}

func TestRunEachScheme(t *testing.T) {
	for _, s := range Schemes() {
		r, err := Run(testConfig(1), s)
		if err != nil {
			t.Fatalf("Run(%s): %v", s, err)
		}
		if r.Queries == 0 || r.MeanCost <= 0 {
			t.Fatalf("Run(%s): degenerate result %v", s, r)
		}
	}
}

func TestCompareDefaultsAndOrdering(t *testing.T) {
	rs, err := Compare(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("Compare default returned %d results", len(rs))
	}
	pcx, dupR := rs[0], rs[2]
	if pcx.Scheme != "PCX" || rs[1].Scheme != "CUP" || dupR.Scheme != "DUP" {
		t.Fatalf("unexpected scheme order: %v %v %v", rs[0].Scheme, rs[1].Scheme, rs[2].Scheme)
	}
	if pcx.Config.Lead != 0 {
		t.Fatal("Compare did not zero PCX's push lead")
	}
	if dupR.MeanCost >= pcx.MeanCost {
		t.Fatalf("DUP cost %.3f not below PCX %.3f", dupR.MeanCost, pcx.MeanCost)
	}
	if dupR.MeanLatency >= pcx.MeanLatency {
		t.Fatalf("DUP latency %.3f not below PCX %.3f", dupR.MeanLatency, pcx.MeanLatency)
	}
}

func TestSchemeTextRoundTrip(t *testing.T) {
	for _, s := range Schemes() {
		if s.String() != string(s) {
			t.Fatalf("String(%q) = %q", string(s), s.String())
		}
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %q: %v", s, err)
		}
		var back Scheme
		if err := json.Unmarshal(blob, &back); err != nil || back != s {
			t.Fatalf("round-trip %q: got %q, %v", s, back, err)
		}
	}
	if _, err := Scheme("bogus").MarshalText(); err == nil {
		t.Fatal("marshalled an unknown scheme")
	}
	var s Scheme
	if err := s.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("unmarshalled an unknown scheme")
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	r, err := RunContext(ctx, DefaultConfig(), DUP)
	if r != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunContext: %v, %v", r, err)
	}
	if elapsed := time.Since(start); elapsed >= 100*time.Millisecond {
		t.Fatalf("cancelled full-scale run took %v, want < 100ms", elapsed)
	}
	if _, err := CompareContext(ctx, testConfig(4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled CompareContext: %v", err)
	}
}

func TestRunReplicatedAcrossRunCI(t *testing.T) {
	agg, err := RunReplicated(testConfig(5), DUP, 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 3 || agg.Scheme != "DUP" {
		t.Fatalf("aggregate %+v", agg)
	}
	if agg.MeanLatency() <= 0 || agg.MeanCost() <= 0 {
		t.Fatalf("degenerate aggregate: latency %v cost %v", agg.MeanLatency(), agg.MeanCost())
	}
	if agg.LatencyCI95() <= 0 || agg.CostCI95() <= 0 {
		t.Fatal("replicated aggregate reported no across-run CI")
	}
	if _, err := RunReplicated(testConfig(5), Scheme("nope"), 2); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := RunReplicatedContext(canceledCtx(), testConfig(5), DUP, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunReplicatedContext: %v", err)
	}
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := testConfig(3)
	cfg.Lambda = -1
	if _, err := Run(cfg, DUP); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := Run(testConfig(3), Scheme("nope")); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestNodeStateReplayPaperExample(t *testing.T) {
	// Quick sanity that the re-exported protocol state machine behaves:
	// the Figure 2 (a) virtual path, at the API level.
	root := NewNodeState(0, true)
	n6 := NewNodeState(5, false)
	acts := n6.BecomeInterested()
	if len(acts) != 1 {
		t.Fatalf("BecomeInterested emitted %v", acts)
	}
	root.HandleSubscribe(5)
	if got := root.PushTargets(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("root push targets = %v", got)
	}
}

func TestExperimentRegistryAccessible(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 8 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	title, err := ExperimentTitle("fig4")
	if err != nil || !strings.Contains(title, "Figure 4") {
		t.Fatalf("ExperimentTitle: %q, %v", title, err)
	}
	if _, err := ExperimentTitle("nope"); err == nil {
		t.Fatal("unknown experiment title accepted")
	}
	var b strings.Builder
	opts := ExperimentOptions{Scale: QuickScale, Seed: 1}
	if err := RunExperimentWith(&b, "table1", opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Table I") {
		t.Fatalf("experiment output: %s", b.String())
	}
	if err := RunExperimentWith(&b, "nope", opts); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestPubSubReexport(t *testing.T) {
	p, err := NewPubSub(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes := p.Nodes()
	if _, err := p.Subscribe(nodes[10], "t"); err != nil {
		t.Fatal(err)
	}
	d, err := p.Publish("t", "x")
	if err != nil || d.Subscribers != 1 {
		t.Fatalf("publish: %+v, %v", d, err)
	}
}

func TestDirectoryReexport(t *testing.T) {
	d, err := NewDirectory(DefaultDirectoryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Register("k", "h", 0); err != nil {
		t.Fatal(err)
	}
	r, err := d.Lookup(d.Nodes()[9], "k", 1)
	if err != nil || r.Value != "h" {
		t.Fatalf("lookup: %+v, %v", r, err)
	}
}
