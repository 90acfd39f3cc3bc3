// Command benchgate is the CI regression gate for the scaling benchmarks:
// it compares a freshly generated report against the committed one and
// fails (exit 1) when any rung's write throughput regressed by more than
// the tolerance. Rungs are matched by their full workload identity
// (shards/nodes, writers, ops) so a ladder reshape can never silently
// compare unlike rungs; a committed rung with no match in the current run
// is itself a failure.
//
// Three report sections gate, each only when the committed baseline
// carries it: the shard-scaling ladder (BENCH_shard.json), the
// ring-scaling ladder (BENCH_cluster.json), and the victim-tier A/B
// (victim_scale in BENCH_shard.json), whose legs gate like rungs and
// whose headline ratios additionally hold absolute bounds — the tier
// must keep delivering at least -victim-p99-floor of read-tail speedup
// at no more than -victim-amp-ceil extra flash write-amplification, no
// matter what the committed baseline drifted to. Ring reports
// additionally gate on an
// absolute floor: the largest ring rung's per-node throughput must stay
// within -ring-floor of the 2-node pair rung's (per_node_ratio), so ring
// membership can never quietly tax a member's own write path no matter
// what the committed baseline drifted to.
//
// Only regressions gate. Improvements pass (and should be committed by
// regenerating the baseline). Besides throughput, each rung's p99 write
// latency gates under the same fractional tolerance (a rung whose
// baseline recorded no p99 is skipped); p50 is reported for eyeballing
// only.
//
// Usage:
//
//	benchgate -committed BENCH_shard.json -current /tmp/BENCH_shard.ci.json [-tolerance 0.10]
//	benchgate -committed BENCH_cluster.json -current /tmp/BENCH_cluster.ci.json [-ring-floor 0.75]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type shardRun struct {
	Shards       int     `json:"shards"`
	Writers      int     `json:"writers"`
	Ops          int     `json:"ops"`
	WritesPerSec float64 `json:"writes_per_sec"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
}

type ringRun struct {
	Nodes        int     `json:"nodes"`
	Writers      int     `json:"writers"`
	Ops          int     `json:"ops"`
	WritesPerSec float64 `json:"writes_per_sec"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
}

// victimRun mirrors the loadgen victim-tier A/B leg fields the gate
// reads; the full leg carries more (hit ratios, admission counters).
type victimRun struct {
	Victim        bool    `json:"victim"`
	Writers       int     `json:"writers"`
	Ops           int     `json:"ops"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	ReadP50Ms     float64 `json:"read_p50_ms"`
	ReadP99Ms     float64 `json:"read_p99_ms"`
	FlashWriteAmp float64 `json:"flash_write_amp"`
}

type victimScale struct {
	ReadFrac      float64   `json:"readfrac"`
	Zipf          float64   `json:"zipf"`
	On            victimRun `json:"on"`
	Off           victimRun `json:"off"`
	ReadP99Ratio  float64   `json:"read_p99_ratio"`
	WriteAmpRatio float64   `json:"write_amp_ratio"`
}

type report struct {
	CPUs       int `json:"cpus"`
	ShardScale *struct {
		Ladder []shardRun `json:"ladder"`
	} `json:"shard_scale"`
	RingScale *struct {
		Ladder       []ringRun `json:"ladder"`
		PerNodeRatio float64   `json:"per_node_ratio"`
	} `json:"ring_scale"`
	VictimScale *victimScale `json:"victim_scale"`
}

func load(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	hasShard := r.ShardScale != nil && len(r.ShardScale.Ladder) > 0
	hasRing := r.RingScale != nil && len(r.RingScale.Ladder) > 0
	hasVictim := r.VictimScale != nil && r.VictimScale.On.Ops > 0
	if !hasShard && !hasRing && !hasVictim {
		return r, fmt.Errorf("%s: no shard_scale, ring_scale, or victim_scale section", path)
	}
	return r, nil
}

func main() {
	committed := flag.String("committed", "BENCH_shard.json", "committed baseline report")
	current := flag.String("current", "", "freshly generated report to gate (required)")
	tolerance := flag.Float64("tolerance", 0.10, "maximum allowed fractional throughput regression per rung")
	ringFloor := flag.Float64("ring-floor", 0.75, "minimum ring per_node_ratio (largest ring rung's per-node throughput over the 2-node pair rung's)")
	victimP99Floor := flag.Float64("victim-p99-floor", 2.0, "minimum victim_scale read_p99_ratio (tier-off read p99 over tier-on; the read-tail speedup the tier must keep delivering)")
	victimAmpCeil := flag.Float64("victim-amp-ceil", 1.10, "maximum victim_scale write_amp_ratio (tier-on flash write-amp over tier-off; the extra wear budget)")
	flag.Parse()
	if *current == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		os.Exit(2)
	}
	base, err := load(*committed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if base.CPUs != cur.CPUs {
		fmt.Printf("note: baseline recorded on %d CPUs, current host has %d — throughput comparison is indicative only\n",
			base.CPUs, cur.CPUs)
	}

	failed := false
	if base.ShardScale != nil && len(base.ShardScale.Ladder) > 0 {
		if cur.ShardScale == nil || len(cur.ShardScale.Ladder) == 0 {
			fmt.Println("FAIL shard_scale: section missing from current run")
			failed = true
		} else if gateShards(base.ShardScale.Ladder, cur.ShardScale.Ladder, *tolerance) {
			failed = true
		}
	}
	if base.RingScale != nil && len(base.RingScale.Ladder) > 0 {
		if cur.RingScale == nil || len(cur.RingScale.Ladder) == 0 {
			fmt.Println("FAIL ring_scale: section missing from current run")
			failed = true
		} else {
			if gateRing(base.RingScale.Ladder, cur.RingScale.Ladder, *tolerance) {
				failed = true
			}
			// Absolute floor, independent of the baseline: the ring must
			// never cost a member more than (1 - floor) of its 2-member-ring
			// write throughput.
			if r := cur.RingScale.PerNodeRatio; r > 0 && r < *ringFloor {
				fmt.Printf("FAIL ring per_node_ratio %.2f below floor %.2f\n", r, *ringFloor)
				failed = true
			} else if r > 0 {
				fmt.Printf("ok   ring per_node_ratio %.2f (floor %.2f)\n", r, *ringFloor)
			}
		}
	}
	if base.VictimScale != nil && base.VictimScale.On.Ops > 0 {
		if cur.VictimScale == nil || cur.VictimScale.On.Ops == 0 {
			fmt.Println("FAIL victim_scale: section missing from current run")
			failed = true
		} else if gateVictim(*base.VictimScale, *cur.VictimScale, *tolerance, *victimP99Floor, *victimAmpCeil) {
			failed = true
		}
	}
	if failed {
		fmt.Printf("benchgate: throughput, p99 latency, or a floor/ceiling ratio regressed beyond tolerance\n")
		os.Exit(1)
	}
	fmt.Println("benchgate: all rungs within tolerance")
}

// gateRung applies the shared throughput + p99 rule to one matched rung
// pair and prints its verdict line. Higher is worse for latency, so the
// p99 check mirrors the throughput one around 1+tolerance.
func gateRung(label string, baseW, curW, baseP50, curP50, baseP99, curP99, tolerance float64) bool {
	ratio := 0.0
	if baseW > 0 {
		ratio = curW / baseW
	}
	bad := ratio < 1-tolerance
	if baseP99 > 0 && curP99 > baseP99*(1+tolerance) {
		bad = true
	}
	verdict := "ok  "
	if bad {
		verdict = "FAIL"
	}
	fmt.Printf("%s %s %9.1f -> %9.1f w/s (%+.1f%%)  p50 %.2f->%.2f ms  p99 %.2f->%.2f ms\n",
		verdict, label, baseW, curW, (ratio-1)*100, baseP50, curP50, baseP99, curP99)
	return bad
}

func gateShards(base, cur []shardRun, tolerance float64) bool {
	index := make(map[[3]int]shardRun, len(cur))
	for _, r := range cur {
		index[[3]int{r.Shards, r.Writers, r.Ops}] = r
	}
	failed := false
	for _, b := range base {
		c, ok := index[[3]int{b.Shards, b.Writers, b.Ops}]
		if !ok {
			fmt.Printf("FAIL shards=%d writers=%d ops=%d: rung missing from current run\n", b.Shards, b.Writers, b.Ops)
			failed = true
			continue
		}
		if gateRung(fmt.Sprintf("shards=%-3d", b.Shards),
			b.WritesPerSec, c.WritesPerSec, b.P50Ms, c.P50Ms, b.P99Ms, c.P99Ms, tolerance) {
			failed = true
		}
	}
	return failed
}

// gateVictim holds the read-tier A/B to both its baseline and its
// absolute bargain: each leg's throughput and read p99 gate against the
// committed leg under the shared tolerance (legs matched by workload
// identity — readfrac, zipf, writers, ops — so a reshaped A/B never
// silently compares unlike runs), and the two headline ratios gate
// against absolute bounds independent of baseline drift: the tier must
// keep shortening the read tail by at least the floor while costing at
// most the ceiling in extra flash wear.
func gateVictim(base, cur victimScale, tolerance, p99Floor, ampCeil float64) bool {
	if base.ReadFrac != cur.ReadFrac || base.Zipf != cur.Zipf ||
		base.On.Writers != cur.On.Writers || base.On.Ops != cur.On.Ops {
		fmt.Printf("FAIL victim_scale: workload identity changed (readfrac %.2f->%.2f zipf %.2f->%.2f writers %d->%d ops %d->%d)\n",
			base.ReadFrac, cur.ReadFrac, base.Zipf, cur.Zipf,
			base.On.Writers, cur.On.Writers, base.On.Ops, cur.On.Ops)
		return true
	}
	failed := false
	if gateRung("victim=off", base.Off.OpsPerSec, cur.Off.OpsPerSec,
		base.Off.ReadP50Ms, cur.Off.ReadP50Ms, base.Off.ReadP99Ms, cur.Off.ReadP99Ms, tolerance) {
		failed = true
	}
	if gateRung("victim=on ", base.On.OpsPerSec, cur.On.OpsPerSec,
		base.On.ReadP50Ms, cur.On.ReadP50Ms, base.On.ReadP99Ms, cur.On.ReadP99Ms, tolerance) {
		failed = true
	}
	if r := cur.ReadP99Ratio; r < p99Floor {
		fmt.Printf("FAIL victim read_p99_ratio %.2fx below floor %.2fx\n", r, p99Floor)
		failed = true
	} else {
		fmt.Printf("ok   victim read_p99_ratio %.2fx (floor %.2fx)\n", r, p99Floor)
	}
	if r := cur.WriteAmpRatio; r > ampCeil {
		fmt.Printf("FAIL victim write_amp_ratio %.3fx above ceiling %.3fx\n", r, ampCeil)
		failed = true
	} else {
		fmt.Printf("ok   victim write_amp_ratio %.3fx (ceiling %.3fx)\n", r, ampCeil)
	}
	return failed
}

func gateRing(base, cur []ringRun, tolerance float64) bool {
	index := make(map[[3]int]ringRun, len(cur))
	for _, r := range cur {
		index[[3]int{r.Nodes, r.Writers, r.Ops}] = r
	}
	failed := false
	for _, b := range base {
		c, ok := index[[3]int{b.Nodes, b.Writers, b.Ops}]
		if !ok {
			fmt.Printf("FAIL nodes=%d writers=%d ops=%d: rung missing from current run\n", b.Nodes, b.Writers, b.Ops)
			failed = true
			continue
		}
		if gateRung(fmt.Sprintf("nodes=%-3d ", b.Nodes),
			b.WritesPerSec, c.WritesPerSec, b.P50Ms, c.P50Ms, b.P99Ms, c.P99Ms, tolerance) {
			failed = true
		}
	}
	return failed
}
