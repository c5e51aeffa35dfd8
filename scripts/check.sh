#!/usr/bin/env bash
# check.sh is the one-command pre-commit gate; each step echoes its name.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed:"
	echo "$unformatted"
	exit 1
fi

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
go test -count=1 -run 'Alloc' ./internal/live ./internal/core ./internal/transport ./internal/sim ./internal/wire ./internal/replica ./internal/store

echo "== fuzz smoke (wire codec) =="
go test -run '^$' -fuzz 'FuzzDecodeEncode' -fuzztime 5s ./internal/wire/
go test -run '^$' -fuzz 'FuzzFrameReader' -fuzztime 5s ./internal/wire/
go test -run '^$' -fuzz 'FuzzReadBurst' -fuzztime 5s ./internal/wire/

echo "== benchmark smoke (exit code only: tree intact, versions monotone, proto.in_use_end = 0) =="
go run ./bench -workload fanout-tcp -epochs 1 -window 2s >/dev/null

echo "== simulator golden (exit code only: sim-paper bit-identical to bench/golden_sim.json and deterministic) =="
go run ./bench -workload sim-paper -epochs 1 -window 1s >/dev/null

echo "check.sh: all green"
