package chaos

import (
	"flag"
	"testing"
	"time"
)

// Flags so `make chaos` can scale the run without recompiling; zero
// values fall back to DefaultConfig.
var (
	flagSeed      = flag.Uint64("chaos.seed", 0, "chaos schedule seed")
	flagNodes     = flag.Int("chaos.nodes", 0, "cluster size")
	flagSteps     = flag.Int("chaos.steps", 0, "schedule steps")
	flagChurn     = flag.Int("chaos.churn", 0, "membership churn percent (-1 disables)")
	flagKeys      = flag.Int("chaos.keys", 0, "keyed index trees (0 means 1)")
	flagQuorum    = flag.Bool("chaos.quorum", false, "run the replicated-authority quorum scenario")
	flagReplicas  = flag.Int("chaos.replicas", 0, "authority replication factor (0 means 3 with -chaos.quorum)")
	flagRootChurn = flag.Bool("chaos.rootchurn", false, "run the stale-root-path beacon scenario")
	flagReconfig  = flag.Bool("chaos.reconfig", false, "run the permanent-failure reconfiguration scenario")
)

func TestScheduleIsDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 42
	a, b := Schedule(cfg), Schedule(cfg)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
	cfg.Seed = 43
	c := Schedule(cfg)
	same := len(c) == len(a)
	for i := 0; same && i < len(a); i++ {
		same = c[i] == a[i]
	}
	if same {
		t.Fatal("different seeds produced the identical schedule")
	}
}

// TestScheduleCleansUpAfterItself replays a schedule's bookkeeping and
// asserts every fault it opens is healed by the cleanup tail, and that
// the membership churn respects its own rules: joins use fresh ids and
// are capped, leaves hit only live members and never shrink the roster
// below three quarters of the initial cluster, reboots and faults touch
// only current members.
func TestScheduleCleansUpAfterItself(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		members := map[int]bool{}
		for id := 0; id < cfg.Nodes; id++ {
			members[id] = true
		}
		joins := 0
		open := map[string]int{}
		for _, e := range Schedule(cfg) {
			if e.Op != OpJoin && !members[e.A] {
				t.Fatalf("seed %d: %s targets non-member %d", seed, e.Op, e.A)
			}
			if (e.Op == OpPartition || e.Op == OpHeal) && !members[e.B] {
				t.Fatalf("seed %d: %s targets non-member %d", seed, e.Op, e.B)
			}
			switch e.Op {
			case OpPartition:
				open["partition"]++
			case OpHeal:
				open["partition"]--
			case OpCrash:
				open["crash"]++
			case OpRestart:
				open["crash"]--
			case OpKill:
				open["kill"]++
			case OpRevive:
				open["kill"]--
			case OpLoss:
				open["loss"]++
			case OpCalm:
				open["loss"]--
			case OpJoin:
				if members[e.A] {
					t.Fatalf("seed %d joins existing node %d", seed, e.A)
				}
				members[e.A] = true
				if joins++; joins > cfg.Nodes/2 {
					t.Fatalf("seed %d exceeds the join cap", seed)
				}
			case OpLeave:
				if !members[e.A] {
					t.Fatalf("seed %d departs non-member %d", seed, e.A)
				}
				if e.A == 0 {
					t.Fatalf("seed %d departs the designated authority", seed)
				}
				delete(members, e.A)
				if len(members) < cfg.Nodes-cfg.Nodes/4 {
					t.Fatalf("seed %d shrinks the roster below its floor", seed)
				}
			}
		}
		for what, n := range open {
			if n != 0 {
				t.Fatalf("seed %d leaves %d unhealed %s faults", seed, n, what)
			}
		}
	}
}

// TestScheduleChurnDisabled asserts Churn = -1 restores the fixed-roster
// schedules: no membership operation appears for any seed.
func TestScheduleChurnDisabled(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Churn = -1
		for _, e := range Schedule(cfg) {
			switch e.Op {
			case OpJoin, OpLeave, OpReboot:
				t.Fatalf("seed %d schedules %s with churn disabled", seed, e.Op)
			}
		}
	}
}

// TestScheduleHasChurn asserts the default churn rate actually produces
// membership operations across a handful of seeds.
func TestScheduleHasChurn(t *testing.T) {
	churned := 0
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		for _, e := range Schedule(cfg) {
			switch e.Op {
			case OpJoin, OpLeave, OpReboot:
				churned++
			}
		}
	}
	if churned == 0 {
		t.Fatal("20 seeds at default churn produced no membership operations")
	}
}

// TestChaosReproducible is the harness's core promise: two runs from the
// same seed produce byte-identical reports, and the invariants hold.
func TestChaosReproducible(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Passed {
		t.Fatalf("chaos run failed:\n%s", first)
	}
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Passed {
		t.Fatalf("second chaos run failed:\n%s", second)
	}
	if first.String() != second.String() {
		t.Fatalf("same seed, different reports:\n--- first\n%s--- second\n%s", first, second)
	}
}

// goldenSeed7 is the verbatim report of `Run(DefaultConfig with Seed 7)`
// as produced by the pre-replica harness. The replicated-authority work
// must not perturb default runs in any way — same schedule, same
// invariant verdicts, same text, byte for byte. Regenerate only on a
// deliberate harness change.
const goldenSeed7 = `chaos seed=7 nodes=12 steps=12 churn=25 members=13 epoch=4
  step  0: crash 10
  step  1: loss 20% at 9
  step  2: leave 2
  step  3: loss 60% at 11
  step  4: restart 10
  step  5: calm 9
  step  6: kill 1
  step  7: join 12
  step  8: loss 50% at 4
  step  9: revive 1
  step 10: join 13
  step 11: crash 7
  step 12: restart 7
  step 12: calm 11
  step 12: calm 4
invariant convergence      ok   all 13 members reached the authority version within 8 TTLs
invariant tree-consistency ok   subscriber lists agree with the repaired tree
invariant no-leak          ok   every pooled message was returned
PASS
`

// TestChaosEquivalencePreReplica pins the unreplicated harness to its
// pre-replica behaviour: a default seed-7 run must reproduce the golden
// report byte for byte. The report is verdict text, not frame bytes (the
// in-process Chan transport never encodes messages), so it also holds
// across wire format changes; the wire package's golden vectors pin the
// bytes separately.
func TestChaosEquivalencePreReplica(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.String(); got != goldenSeed7 {
		t.Fatalf("default seed-7 report drifted from the pre-replica harness:\n--- got\n%s--- want\n%s",
			got, goldenSeed7)
	}
}

// TestChaosQuorumPartition plays the scripted quorum scenario: the
// leaseholder is partitioned from its quorum mid-push, then killed; the
// promoted successor must floor its versions above everything the old
// one served, and no query site may ever see the stream go backwards.
func TestChaosQuorumPartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Quorum = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if !rep.Passed {
		t.Fatalf("quorum scenario violated invariants:\n%s", rep)
	}
	found := false
	for _, iv := range rep.Invariants {
		if iv.Name == "monotone-versions" {
			found = true
			if !iv.OK {
				t.Fatalf("resolved versions regressed across fail-over: %s", iv.Detail)
			}
		}
	}
	if !found {
		t.Fatal("quorum run did not report the monotone-versions invariant")
	}
	// Two runs of the scripted scenario from the same seed must agree.
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.String() != rep.String() {
		t.Fatalf("same seed, different quorum reports:\n--- first\n%s--- second\n%s", rep, second)
	}
}

// TestChaosReconfig plays the scripted permanent-failure scenario: one
// replica-set member is killed forever mid-traffic and never heals. The
// leaseholder must notice the silence passing the permanent-failure
// horizon, state-transfer a replacement from the directory, and drive the
// two-phase reconfiguration to a new full-strength stable set — the
// quorum-restored invariant asserts it did, and monotone-versions asserts
// no query site ever saw the resolved stream go backwards while the set
// changed under it. Two runs from the same seed must agree byte for byte:
// the CI smoke relies on that as its seed-reproducibility check.
func TestChaosReconfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Reconfig = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if !rep.Passed {
		t.Fatalf("reconfig scenario violated invariants:\n%s", rep)
	}
	for _, name := range []string{"quorum-restored", "monotone-versions"} {
		found := false
		for _, iv := range rep.Invariants {
			if iv.Name == name {
				found = true
				if !iv.OK {
					t.Fatalf("%s failed: %s", name, iv.Detail)
				}
			}
		}
		if !found {
			t.Fatalf("reconfig run did not report the %s invariant", name)
		}
	}
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.String() != rep.String() {
		t.Fatalf("same seed, different reconfig reports:\n--- first\n%s--- second\n%s", rep, second)
	}
}

// TestChaosRootChurn plays the scripted stale-root-path scenario: the
// root is partitioned from one inner child at a time, held past the
// root-path expiry. The child's subtree keeps a live, acking parent the
// whole time, so only the sequence beacon going quiet can trigger the
// repair — the stale-expiry invariant asserts it did. A second run from
// the same seed must agree byte for byte, and the beacon must not make
// delivery worse: the run's give-up count stays within generous slack of
// the same schedule played with the beacon off.
func TestChaosRootChurn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.RootChurn = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if !rep.Passed {
		t.Fatalf("rootchurn scenario violated invariants:\n%s", rep)
	}
	found := false
	for _, iv := range rep.Invariants {
		if iv.Name == "stale-expiry" {
			found = true
			if !iv.OK {
				t.Fatalf("no stale root path ever expired: %s", iv.Detail)
			}
		}
	}
	if !found {
		t.Fatal("rootchurn run did not report the stale-expiry invariant")
	}
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.String() != rep.String() {
		t.Fatalf("same seed, different rootchurn reports:\n--- first\n%s--- second\n%s", rep, second)
	}
	// Announce-off baseline: the identical scripted schedule without the
	// beacon. The beacon-driven repairs must not inflate give-ups — the
	// bound is deliberately loose (2x + 12) because both counts wobble
	// with scheduling.
	base := cfg
	base.noAnnounce = true
	baseline, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if !baseline.Passed {
		t.Fatalf("announce-off baseline failed:\n%s", baseline)
	}
	if rep.GiveUps > 2*baseline.GiveUps+12 {
		t.Fatalf("beacon repairs inflated give-ups: %d with announce vs %d baseline",
			rep.GiveUps, baseline.GiveUps)
	}
}

// TestChaosRun is the `make chaos` entry point: one run at whatever scale
// the -chaos.* flags request, report logged, invariants fatal on failure.
func TestChaosRun(t *testing.T) {
	cfg := DefaultConfig()
	if *flagSeed != 0 {
		cfg.Seed = *flagSeed
	}
	if *flagNodes != 0 {
		cfg.Nodes = *flagNodes
	}
	if *flagSteps != 0 {
		cfg.Steps = *flagSteps
		cfg.StepEvery = 50 * time.Millisecond
	}
	if *flagChurn != 0 {
		cfg.Churn = *flagChurn
	}
	if *flagKeys != 0 {
		cfg.Keys = *flagKeys
	}
	if *flagQuorum {
		cfg.Quorum = true
	}
	if *flagReplicas != 0 {
		cfg.Replicas = *flagReplicas
	}
	if *flagRootChurn {
		cfg.RootChurn = true
	}
	if *flagReconfig {
		cfg.Reconfig = true
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if !rep.Passed {
		t.Fatalf("invariants violated:\n%s", rep)
	}
}
