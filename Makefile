# Convenience targets; scripts/check.sh is the canonical pre-commit gate.

.PHONY: check test bench cluster-demo chaos

check:
	scripts/check.sh

test:
	go test ./...

# Boot a three-process, nine-node DUP cluster on loopback TCP for ~10s
# and assert queries resolve across the socket fabric.
cluster-demo:
	scripts/cluster_demo.sh

# Play a seeded fault-and-churn schedule (partitions, crashes, kills,
# loss bursts, joins, leaves, recovery reboots) against a live cluster
# under the race detector and check the convergence / tree-consistency /
# no-leak invariants over the changed membership. Scale, reseed or tune
# the churn rate (-chaos.churn, percent; -1 disables membership ops):
#   make chaos CHAOS_FLAGS="-chaos.nodes 20 -chaos.steps 24 -chaos.seed 9 -chaos.churn 40"
# Scripted scenarios: -chaos.quorum (replicated-authority fail-over),
# -chaos.rootchurn (stale root paths expired by the sequence beacon),
# -chaos.reconfig (a quorum member killed forever and replaced online):
#   make chaos CHAOS_FLAGS="-chaos.rootchurn"
chaos:
	go test -race -count=1 -v -run 'TestChaosRun' ./internal/chaos/ -args $(CHAOS_FLAGS)

bench:
	go test -bench . -benchmem -benchtime 3x
