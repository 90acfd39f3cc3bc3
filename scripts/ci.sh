#!/bin/sh
# CI gate: vet, build, full test suite with a coverage report, then the
# race detector on the packages that do real concurrency (the parallel
# experiment grid, the cluster message loop, and the chaos suite in
# internal/cluster/check). Run from the repository root.
set -eux

# Formatting gate: gofmt must have nothing to rewrite.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needs to run on:"
	echo "$unformatted"
	exit 1
fi

go vet ./...
# staticcheck is optional tooling: run it when the host has it, never
# install it from CI (the gate must work offline and unprivileged).
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping (install locally for the extra lint pass)"
fi
go build ./...
go test -cover ./...

# The ./internal/cluster/... pattern includes internal/cluster/check, so
# the seeded chaos runs (crash/recover cycles under injected faults) go
# through the race detector here. CHAOS_SHARDS pins the striped hot path
# (shards > 1) rather than relying on the suite's default.
CHAOS_SHARDS=4 go test -race ./internal/experiments/... ./internal/cluster/...

# Multicore chaos: the checker suite once per P count, uncached (-count),
# so a race that only shows when the wire taps of a request and its reply
# run on different cores — or only on one — cannot hide behind the test
# cache or the host's core count.
for procs in 1 2 4; do
	GOMAXPROCS=$procs go test -count=1 ./internal/cluster/check/
done

# Link-flap smoke: three asymmetric partition/heal cycles against a live
# pair with writers running, durability-checked after every heal, under
# the race detector. Replays with CHAOS_SEED=<seed>.
CHAOS_FLAPS=3 go test -race -run 'TestChaosLinkFlap' ./internal/cluster/check/

# Ring-churn smoke: the 3-node membership-churn suite once more at a
# pinned seed (the race sweep above already ran it at the default), so
# every CI run covers at least one deterministic, replayable churn
# script in addition to the suite's own per-run seeds.
CHAOS_SEED=42 go test -race -run 'TestChaosMembershipChurn' ./internal/cluster/check/

# Disk-fault smoke: the torn-write/power-cut/fsyncgate drill once more at
# a pinned seed (same rationale as the ring smoke above) — the injector's
# crash schedule, the scrub-and-repair convergence, and the poison-latch
# degrade all replay deterministically from it.
CHAOS_SEED=42 go test -race -run 'TestChaosTornWriteRepair' ./internal/cluster/check/
# The same drill on one P: it is the only suite that faults fsyncs, and a
# single P serializes the evictors' sync stages against the poison latch
# and the scrubber in orders the host's core count may never produce.
CHAOS_SEED=42 GOMAXPROCS=1 go test -race -count=1 -run 'TestChaosTornWriteRepair' ./internal/cluster/check/
# Ring churn on one P as well: the receiver's synchronous SetMembers plus
# re-protect competes with the joiner's bulk-call timeout, and one P is
# where that race between them is tightest.
CHAOS_SEED=42 GOMAXPROCS=1 go test -race -count=1 -run 'TestChaosMembershipChurn' ./internal/cluster/check/

# Fuzz smoke: a short budget per target catches frame-decoder and trace-
# parser regressions without benchmark-length time. Each invocation fuzzes
# exactly one target (-run '^$' skips the unit tests, already run above).
# -fuzzminimizetime is bounded so fresh corpora don't spend the whole
# budget minimizing their first interesting inputs.
go test -run '^$' -fuzz '^FuzzReadFrameV2$' -fuzztime 10s -fuzzminimizetime 20x ./internal/cluster/
go test -run '^$' -fuzz '^FuzzReadFrameReuse$' -fuzztime 10s -fuzzminimizetime 20x ./internal/cluster/
go test -run '^$' -fuzz '^FuzzDecodeMessage$' -fuzztime 10s -fuzzminimizetime 20x ./internal/cluster/
go test -run '^$' -fuzz '^FuzzDecodeResync$' -fuzztime 10s -fuzzminimizetime 20x ./internal/cluster/
go test -run '^$' -fuzz '^FuzzDecodeMembership$' -fuzztime 10s -fuzzminimizetime 20x ./internal/cluster/
go test -run '^$' -fuzz '^FuzzDecodeEpoch$' -fuzztime 10s -fuzzminimizetime 20x ./internal/cluster/
go test -run '^$' -fuzz '^FuzzDecodeSlot$' -fuzztime 10s -fuzzminimizetime 20x ./internal/cluster/
go test -run '^$' -fuzz '^FuzzDecodeVictimSegment$' -fuzztime 10s -fuzzminimizetime 20x ./internal/victim/
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s -fuzzminimizetime 20x ./internal/trace/

# Smoke-test the live write path end to end: a small loadgen run over a
# localhost pair exercises the pipelined forwarder, batching, and the
# latency histograms without taking benchmark-length time (both legs: the
# pipelined run and the synchronous batch=1/inflight=1 one); the ring rung
# does the same for consistent-hash partner selection and the split
# forwarder set (too few ops to be a measurement — the gate below is).
go run ./cmd/loadgen -writers 4 -ops 2000
go run ./cmd/loadgen -ring-scale 2,3 -writers 4 -ops 2000 -reps 1

# Sharded hot-path smoke: a few iterations of the parallel write/read
# benchmarks and of the LAR and simulator-replay layer benchmarks
# (correctness under the benchmark harness, not a perf measurement), then
# one tiny shard-scale rung to exercise the fsync-on-flush evictor
# pipeline end to end.
go test -run '^$' -bench 'LiveWriteParallel|LiveReadParallel|LARAccess|NodeReplayFin1' -benchtime 100x ./internal/cluster/ ./internal/buffer/ ./internal/core/
go run ./cmd/loadgen -shard-scale 4 -writers 4 -ops 1000 -buffer 256 -evict-queue 1 -reps 1

# Multi-stream smoke: a short run of the flash-wear A/B exercises tagged
# eviction, the per-stream wear counters, and the -streams=off ablation
# path end to end. Too few ops for the erase-reduction number to mean
# anything — `make bench-streams` is the measured run.
go run ./cmd/loadgen -stream-scale -writers 4 -ops 6000

# Victim-tier smoke: a short run of the read-tier A/B exercises the
# flash victim cache end to end — ghost-gated fill admission, the
# off-lock probe/fill path, whole-segment reclamation, and the
# -victim-segments=0 ablation leg — at a pinned workload. Too few ops
# for the p99 separation to mean anything — `make bench-victim` is the
# measured run.
go run ./cmd/loadgen -victim-scale -writers 4 -ops 6000 -readfrac 0.9 -zipf 1.5 -victim-segments 64

# Bench regression gate: the same script `make bench-gate` runs (shard
# ladder, victim A/B and ring ladder, fresh reports, one retry each).
# Skip entirely with CI_SKIP_BENCHGATE=1 on hosts too noisy for
# throughput numbers.
if [ -z "${CI_SKIP_BENCHGATE:-}" ]; then
	./scripts/bench-gate.sh
fi
