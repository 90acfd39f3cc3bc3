# Developer entry points. `make ci` is the gate scripts/ci.sh runs in CI;
# the bench targets regenerate the paper figures and perf records.

GO ?= go

.PHONY: all build test race vet ci chaos chaos-flap chaos-ring chaos-disk fuzz cover bench bench-grid bench-cluster bench-shard bench-streams bench-victim bench-gate profile

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the two packages with real concurrency: the parallel
# experiment grid and the cluster message loop.
race:
	$(GO) test -race ./internal/experiments/... ./internal/cluster/...

vet:
	$(GO) vet ./...

ci:
	./scripts/ci.sh

# Seeded fault-injection runs against a live localhost pair, under the
# race detector. Reproduce a failure with CHAOS_SEED=<seed> make chaos.
chaos:
	$(GO) test -race -v -run 'TestChaos' ./internal/cluster/check/

# The link-flap drill alone: repeated asymmetric partition/heal cycles
# against a live pair with writers running, durability-checked after every
# heal. CHAOS_FLAPS=<n> raises the cycle count, CHAOS_SEED=<seed> replays.
chaos-flap:
	$(GO) test -race -v -run 'TestChaosLinkFlap' ./internal/cluster/check/

# The membership-churn suite alone: a live 3-node ring under write load
# through join, leave (stale frames against the epoch gate), crash
# mid-resync with replacement, rejoin, and primary crash/recovery, with
# durability invariants checked at every quiescent point. Three seeds per
# run; CHAOS_SEED=<seed> make chaos-ring replays.
chaos-ring:
	$(GO) test -race -v -run 'TestChaosMembershipChurn' ./internal/cluster/check/

# The disk-fault drill alone: a live pair whose primary store runs over
# the seeded faultfs injector — torn writes at a power cut mid-eviction,
# restart over the damaged files, scrub-and-repair from the partner's
# backups to zero checksum mismatches, then the fsyncgate drill (a failed
# fsync must degrade the node, not ack unsyncable writes). Three pinned
# seeds per run; CHAOS_SEED=<seed> make chaos-disk replays.
chaos-disk:
	$(GO) test -race -v -run 'TestChaosTornWriteRepair' ./internal/cluster/check/

# Short fuzz budgets for the wire-format and trace-parser fuzz targets.
# The bounded -fuzzminimizetime keeps fresh corpora from spending the
# whole budget minimizing their first interesting inputs.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrameV2$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMessage$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResync$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMembership$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEpoch$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSlot$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeVictimSegment$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/victim/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s -fuzzminimizetime 20x ./internal/trace/

cover:
	$(GO) test -cover ./...

# Regenerate every paper table/figure; grid cells fan out over all CPUs.
bench:
	$(GO) run ./cmd/benchrunner

# Measure the live replication path: sync vs pipelined throughput and
# latency percentiles over a localhost pair, then the ring-scale ladder
# (one driven member, 2-node pair vs 3-node ring), both recorded into
# BENCH_cluster.json (writeReport merges the sections).
bench-cluster:
	$(GO) run ./cmd/loadgen -writers 32 -ops 32000 -json BENCH_cluster.json
	$(GO) run ./cmd/loadgen -ring-scale 2,3 -reps 3 -json BENCH_cluster.json

# Shard-scaling ladder: the eviction-bound write mix against a file-backed
# fsync-on-flush store at 1, 4, and 16 shards, recorded as BENCH_shard.json.
# Small erase blocks + queue depth 1 keep every rung fsync-bound; the large
# device keeps simulated GC out of the measurement; each rung reports the
# median of three reps to ride out host fsync jitter. Each rung's pg/sync
# column is the group commit's amortization: pages covered per coalesced
# fsync pass.
bench-shard:
	$(GO) run ./cmd/loadgen -shard-scale 1,4,16 -writers 32 -ops 24000 \
		-buffer 1024 -remote 32768 -evict-queue 1 -ppb 2 -blocks 65536 \
		-reps 3 -json BENCH_shard.json
	$(GO) run ./cmd/loadgen -stream-scale -writers 8 -ops 60000 -hotfrac 0.7 \
		-json BENCH_shard.json

# Multi-stream flash-wear A/B alone: the mixed hot/cold workload replayed
# with eviction stream tagging on and then with -streams=off at equal ops,
# over a high-utilization device (2% spare), reporting total erases, GC
# copies, and the per-temperature wear split. Its workload flags differ
# from the shard ladder's (fewer, hotter writers; more ops so GC reaches
# steady state), which is why bench-shard records it with a second loadgen
# invocation — writeReport merges sections into the existing report.
bench-streams:
	$(GO) run ./cmd/loadgen -stream-scale -writers 8 -ops 60000 -hotfrac 0.7

# Read-tier A/B: the read-heavy zipfian mix replayed with the flash victim
# cache on and then off at equal ops, against a capacity-filled home device
# with a tight spare pool (GC live in the measured window). Seed and warmup
# run unpaced; the measured window runs under device pacing, so the read
# percentiles are the modeled medium's — misses queueing behind home
# writes and GC versus victim-log hits that skip that queue entirely. The
# victim_scale section lands in BENCH_shard.json and the gate holds its
# read-p99 and flash write-amp ratios.
bench-victim:
	$(GO) run ./cmd/loadgen -victim-scale -writers 8 -ops 60000 -reps 3 \
		-readfrac 0.9 -zipf 1.5 -victim-segments 512 -json BENCH_shard.json

# Rerun the committed shard ladder, victim A/B and ring ladder and gate
# them against BENCH_shard.json and BENCH_cluster.json (see the script for
# the bounds and the retry rule). This is the tail of `make ci`; run it
# alone after perf-sensitive changes.
bench-gate:
	GO=$(GO) ./scripts/bench-gate.sh

# Just the grid-backed figures plus the per-cell perf record.
bench-grid:
	$(GO) run ./cmd/benchrunner -experiment fig6 -gridjson BENCH_grid.json

# Full run with CPU and heap profiles for pprof.
profile:
	$(GO) run ./cmd/benchrunner -cpuprofile cpu.pprof -memprofile mem.pprof
