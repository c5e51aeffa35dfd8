#!/usr/bin/env bash
# check.sh is the one-command pre-commit gate: vet, build, the full test
# suite under the race detector (with the concurrency-heavy wire,
# transport, faults, live, store and chaos packages forced uncached), a
# fixed-seed chaos smoke plus replicated-authority quorum, soft-state
# rootchurn and online-reconfiguration chaos smokes (the reconfig test
# asserts two same-seed runs byte-identical, so seed reproducibility of
# the new scenario is part of the gate), a short fuzz smoke of the wire
# codec, a grep
# gate keeping internal callers off the deprecated *Key wrappers, the
# perf regression guard against the newest BENCH_sim.json entry (run
# without -race, where its bounds are meaningful), a quick pass of
# the performance harness (print-only, so it never mutates
# BENCH_sim.json), the read path's concurrency test ten times under the
# race detector, the allocation guards without it, and a two-second run
# of the repository benchmark for its own correctness checks.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== go test -race -count=1 (wire, transport, faults, live, store, chaos) =="
go test -race -count=1 ./internal/wire/ ./internal/transport/ ./internal/faults/ ./internal/live/ ./internal/store/ ./internal/chaos/

echo "== read-path concurrency (inline hits vs. republish, crash, key churn, fail-over; race x10) =="
go test -race -count=10 -run 'TestConcurrentHotKeyReads' ./internal/live/

echo "== allocation guards (no race: sync.Pool sheds items under -race) =="
go test -count=1 -run 'Allocs' ./internal/live ./internal/core ./internal/transport

echo "== chaos smoke (fixed seed, race) =="
go test -race -count=1 -run 'TestChaosReproducible' ./internal/chaos/

echo "== quorum chaos smoke (replicated authority, fixed seed, race) =="
go test -race -count=1 -run 'TestChaosQuorumPartition' ./internal/chaos/

echo "== rootchurn chaos smoke (soft-state tree beacon, fixed seed, race) =="
go test -race -count=1 -run 'TestChaosRootChurn' ./internal/chaos/

echo "== reconfig chaos smoke (online membership change, fixed seed, race) =="
go test -race -count=1 -run 'TestChaosReconfig' ./internal/chaos/

echo "== fuzz smoke (wire codec) =="
go test -run '^$' -fuzz 'FuzzDecodeEncode' -fuzztime 5s ./internal/wire/
go test -run '^$' -fuzz 'FuzzFrameReader' -fuzztime 5s ./internal/wire/
go test -run '^$' -fuzz 'FuzzReadBurst' -fuzztime 5s ./internal/wire/

echo "== deprecated *Key wrapper gate =="
# The Key(k) handle replaced the QueryKey/StatsKey/InspectKey/JoinKey/
# LeaveKey surface; the wrappers exist only for external compatibility.
# internal/live may reference them (definitions + the compat test that
# pins their equivalence) — nowhere else in the repo may call them.
if grep -rnE '\.(QueryKey|StatsKey|InspectKey|JoinKey|LeaveKey)\(' \
    --include='*.go' . | grep -v '^\./internal/live/'; then
  echo "check.sh: deprecated *Key method called outside internal/live — use Network.Key(k)" >&2
  exit 1
fi

echo "== perf regression guard (no race, vs newest BENCH_sim.json entry) =="
go test -count=1 -run 'TestNoRegressionAgainstBaseline' ./internal/perf/

echo "== perf smoke (quick, print-only) =="
make perf-smoke

echo "== benchmark smoke (exit code only: tree intact, versions monotone, proto.in_use_end = 0) =="
go run ./bench -workload fanout-tcp -epochs 1 -window 2s >/dev/null

echo "check.sh: all green"
