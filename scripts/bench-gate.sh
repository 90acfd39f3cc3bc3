#!/bin/sh
# Bench regression gate, the one definition behind both `make bench-gate`
# and scripts/ci.sh. Run from the repository root.
#
# Shard gate: rerun the committed shard ladder and the victim-tier A/B
# with identical workload parameters (benchgate pairs rungs by shards,
# writers and ops, and treats a missing rung or section as a failure),
# then fail if any rung's throughput drops more than 10% below
# BENCH_shard.json or the victim tier misses its read-p99 or write-amp
# bound. Ring gate: rerun the ring-scale ladder (nodes 2 and 3) and hold
# both the per-rung tolerance and the absolute 0.75 per-node floor.
#
# Every attempt writes fresh report files: loadgen merges the sections it
# did not run from an existing report at its -json path, so a stale file
# could otherwise carry an old section past the gate. The workloads are
# fsync-bound and shared-disk hosts drift minutes-scale, so each gate gets
# one retry: bad weather fails one attempt, a code-level slowdown fails
# both.
set -eu

GO=${GO:-go}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# Each gate chains its steps with && because errexit is off inside a
# function called from an || list.
shard_gate() {
	rm -f "$out/BENCH_shard.json" &&
		$GO run ./cmd/loadgen -shard-scale 1,4,16 -writers 32 -ops 24000 \
			-buffer 1024 -remote 32768 -evict-queue 1 -ppb 2 -blocks 65536 \
			-reps 3 -json "$out/BENCH_shard.json" &&
		$GO run ./cmd/loadgen -victim-scale -writers 8 -ops 60000 -reps 3 \
			-readfrac 0.9 -zipf 1.5 -victim-segments 512 -json "$out/BENCH_shard.json" &&
		$GO run ./cmd/benchgate -committed BENCH_shard.json -current "$out/BENCH_shard.json"
}

ring_gate() {
	rm -f "$out/BENCH_cluster.json" &&
		$GO run ./cmd/loadgen -ring-scale 2,3 -reps 3 -json "$out/BENCH_cluster.json" &&
		$GO run ./cmd/benchgate -committed BENCH_cluster.json -current "$out/BENCH_cluster.json"
}

shard_gate || { echo "benchgate: retrying once (host noise vs regression)"; shard_gate; }
ring_gate || { echo "benchgate: retrying once (host noise vs regression)"; ring_gate; }
