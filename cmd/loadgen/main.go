// Command loadgen measures the live cluster write path: it brings up a
// cooperative pair on localhost TCP, drives it with N concurrent writers,
// and reports replicated-write throughput plus client-observed latency
// percentiles. With -compare (the default) it runs the workload twice —
// once with the forwarder degenerated to one synchronous round trip per
// write (the pre-pipeline behavior) and once with batching + pipelining —
// and reports the speedup, recording both runs as JSON so the perf
// trajectory is tracked like the experiment grid.
//
// Usage:
//
//	loadgen [-writers 8] [-ops 40000] [-pages 1] [-span 256] [-policy lar]
//	        [-buffer 16384] [-remote 16384] [-blocks 8192]
//	        [-batch 64] [-inflight 4] [-compare] [-json BENCH_cluster.json]
//
// With -flap N the workload changes to a resilience drill instead: the
// writer node's transport runs through a seeded fault injector, and the
// link to the partner is cut and healed N times while the writers run.
// The drill reports how many writes were acked, shed (ErrOverloaded), and
// failed, plus the failover/rejoin/resync counters, so the cost of a
// flapping link is tracked the same way raw throughput is:
//
//	loadgen -flap 3 [-flap-seed 1] [-writers 8] [-json BENCH_cluster.json]
//
// With -shard-scale the workload becomes a hot-path scaling ladder
// instead: the same eviction-bound write mix runs once per shard count,
// against a file-backed, fsync-on-flush page store, so throughput is
// gated by the flush pipeline the way a real SSD-backed node is. More
// shards mean more concurrent evictors — and more overlapping fsync
// streams — so writes/sec should climb with the ladder even on one core.
// Each rung runs -reps times and reports the median repetition:
//
//	loadgen -shard-scale 1,4,16 [-writers 32] [-ops 24000] [-buffer 1024]
//	        [-evict-queue 1] [-ppb 2] [-blocks 65536] [-reps 3]
//	        [-json BENCH_shard.json]
//
// With -ring-scale the workload becomes a cooperative-ring scaling
// ladder instead: one rung per listed member count, each a fresh
// consistent-hash ring with the cache-resident writer pool driving one
// member, whose backups hash across its partners. The 2-node rung is the
// classic pair; larger rungs split the member's backup stream over more
// forwarders, and the report carries the per-node ratio of the largest
// rung over the pair rung, which cmd/benchgate holds to a floor (the
// bench host is one machine, so one member is driven per rung — a
// multi-host ring would see roughly N times the per-node number):
//
//	loadgen -ring-scale 2,3 [-writers 8] [-ops 40000] [-reps 3]
//	        [-json BENCH_cluster.json]
//
// With -stream-scale the workload becomes a flash-wear A/B instead: a
// deterministic mixed hot/cold trace (single-page rewrites into a small
// hot region, full-block sequential streams over the cold rest, total
// volume a small multiple of device capacity so GC runs hot) is replayed
// twice through fresh pairs at equal ops — once with temperature-tagged
// multi-stream eviction and once with -streams=off — and the erase and
// GC-copy counts are compared. The trace's skew is classified once up
// front (workload.ClassifyHeat), not per-op:
//
//	loadgen -stream-scale [-hotfrac 0.5] [-ops 40000] [-writers 8]
//	        [-json BENCH_shard.json]
//
// With -victim-scale the workload becomes a read-tier A/B instead: a
// deterministic read-heavy zipfian mix (single-page reads plus half-block
// writes over a span far larger than the buffer) is replayed twice
// through fresh file-backed pairs at equal ops — once with the flash
// victim-cache tier on and once off — and the read percentiles, hit
// ratio, and flash write-amplification are compared:
//
//	loadgen -victim-scale [-readfrac 0.9] [-zipf 1.3] [-victim-segments 128]
//	        [-seed 1] [-ops 40000] [-writers 8] [-json BENCH_shard.json]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"math/rand"

	"flashcoop"
	"flashcoop/internal/faultnet"
	"flashcoop/internal/metrics"
	"flashcoop/internal/stream"
	"flashcoop/internal/trace"
	"flashcoop/internal/workload"
)

type options struct {
	writers    int
	ops        int
	pages      int
	span       int
	policy     string
	buffer     int
	remote     int
	blocks     int
	batch      int
	inflight   int
	evictQueue int
	ppb        int
	reps       int
	hotfrac    float64
	streams    bool
}

// runResult is one benchmark run, JSON-serialized into BENCH_cluster.json.
type runResult struct {
	Name           string  `json:"name"`
	Writers        int     `json:"writers"`
	Ops            int     `json:"ops"`
	PagesPerOp     int     `json:"pages_per_op"`
	MaxBatchPages  int     `json:"max_batch_pages"`
	MaxInflight    int     `json:"max_inflight"`
	Seconds        float64 `json:"seconds"`
	WritesPerSec   float64 `json:"writes_per_sec"`
	MBPerSec       float64 `json:"mb_per_sec"`
	P50Ms          float64 `json:"p50_ms"`
	P95Ms          float64 `json:"p95_ms"`
	P99Ms          float64 `json:"p99_ms"`
	Forwards       int64   `json:"forwards"`
	FwdFrames      int64   `json:"fwd_frames"`
	BatchingFactor float64 `json:"batching_factor"`
}

// flapResult is one -flap drill: N partition/heal cycles under load.
type flapResult struct {
	Cycles        int     `json:"cycles"`
	Seed          int64   `json:"seed"`
	Writers       int     `json:"writers"`
	Seconds       float64 `json:"seconds"`
	Acked         int64   `json:"acked"`
	Shed          int64   `json:"shed"`
	Failed        int64   `json:"failed"`
	Failovers     int64   `json:"failovers"`
	Rejoins       int64   `json:"rejoins"`
	ResyncedPages int64   `json:"resynced_pages"`
	Overloads     int64   `json:"overloads"`
	BreakerTrips  int64   `json:"breaker_trips"`
}

// shardRun is one rung of the -shard-scale ladder.
type shardRun struct {
	Shards        int     `json:"shards"`
	Writers       int     `json:"writers"`
	Ops           int     `json:"ops"`
	Seconds       float64 `json:"seconds"`
	WritesPerSec  float64 `json:"writes_per_sec"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	P999Ms        float64 `json:"p999_ms"`
	Persists      int64   `json:"persists"`
	EvictorStalls int64   `json:"evictor_stalls"`
	// GroupCommitBatches counts coalesced fsync passes; PagesPerSync is
	// how many persisted pages each pass covered on average — the group
	// commit's amortization factor.
	GroupCommitBatches int64   `json:"group_commit_batches"`
	PagesPerSync       float64 `json:"pages_per_sync,omitempty"`
}

// shardScale is the whole ladder plus the headline ratio. Each ladder
// entry is the median-throughput repetition of its rung.
type shardScale struct {
	EvictQueue int        `json:"evict_queue"`
	Reps       int        `json:"reps"`
	Ladder     []shardRun `json:"ladder"`
	// Speedup is writes/sec at the largest shard count over the 1-shard
	// rung (0 when the ladder does not include 1).
	Speedup float64 `json:"speedup,omitempty"`
}

// streamRun is one leg of the -stream-scale A/B: the mixed hot/cold
// trace replayed with multi-stream eviction either on or off.
type streamRun struct {
	Streams      bool    `json:"streams"`
	Writers      int     `json:"writers"`
	Ops          int     `json:"ops"`
	PagesWritten int64   `json:"pages_written"`
	Seconds      float64 `json:"seconds"`
	PagesPerSec  float64 `json:"pages_per_sec"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	// Erases / GCCopies are the device-wide totals; the per-stream maps
	// attribute them to the temperature class each erase block was
	// serving (plus "untagged" for blocks never host-written).
	Erases           int64            `json:"erases"`
	GCCopies         int64            `json:"gc_copies"`
	StreamPrograms   map[string]int64 `json:"stream_programs,omitempty"`
	StreamErases     map[string]int64 `json:"stream_erases,omitempty"`
	StreamCopies     map[string]int64 `json:"stream_copies,omitempty"`
	DrainDeferrals   int64            `json:"drain_deferrals"`
	DiscardDeferrals int64            `json:"discard_deferrals"`
}

// streamScale is the whole -stream-scale section: the workload's shape,
// its once-per-trace skew classification, both legs, and the headline
// erase reduction of tagged eviction over the untagged baseline.
type streamScale struct {
	HotFrac       float64   `json:"hotfrac"`
	PagesPerBlock int       `json:"pages_per_block"`
	UserPages     int64     `json:"user_pages"`
	HotPages      int64     `json:"hot_pages"`
	BufferPages   int       `json:"buffer_pages"`
	HotBlocks     int       `json:"hot_blocks"`
	ColdBlocks    int       `json:"cold_blocks"`
	HotWriteShare float64   `json:"hot_write_share"`
	Tagged        streamRun `json:"tagged"`
	Untagged      streamRun `json:"untagged"`
	// EraseReduction is 1 - tagged.Erases/untagged.Erases: the fraction
	// of erases the stream segregation avoided at equal ops.
	EraseReduction float64 `json:"erase_reduction"`
}

// ringRun is one rung of the -ring-scale ladder: an N-member
// consistent-hash ring with the full writer pool driving ONE member, so
// the rung measures what ring membership costs a single member's own
// replicated-write path. The bench host is one machine — members share
// its cores, so driving every member at once would only measure CPU
// splitting; a multi-host ring would see roughly N times the per-node
// number reported here. The 2-node rung is the classic pair (the driven
// member's only possible partner is the other); larger rungs hash the
// member's erase blocks across more successors, splitting its backup
// stream over several forwarders.
type ringRun struct {
	Nodes       int     `json:"nodes"`
	Replication int     `json:"replication"`
	Writers     int     `json:"writers"`
	Ops         int     `json:"ops"`
	Seconds     float64 `json:"seconds"`
	// WritesPerSec is the driven member's throughput — the per-node
	// number the gate compares across rungs.
	WritesPerSec   float64 `json:"writes_per_sec"`
	P50Ms          float64 `json:"p50_ms"`
	P95Ms          float64 `json:"p95_ms"`
	P99Ms          float64 `json:"p99_ms"`
	Forwards       int64   `json:"forwards"`
	FwdFrames      int64   `json:"fwd_frames"`
	BatchingFactor float64 `json:"batching_factor"`
	// Partners is how many distinct holders actually received backups —
	// proof the rung exercised a real ring split, not a de-facto pair.
	Partners int `json:"partners"`
}

// ringScale is the whole -ring-scale ladder plus the headline ratio. Each
// rung is the median-throughput repetition.
type ringScale struct {
	Reps   int       `json:"reps"`
	Ladder []ringRun `json:"ladder"`
	// PerNodeRatio is the largest ring rung's per-node throughput over the
	// 2-node pair rung's (0 when the ladder has no 2-node rung). The ring
	// earns its keep when this stays near 1: adding members must not tax
	// a member's own write path.
	PerNodeRatio float64 `json:"per_node_ratio,omitempty"`
}

type report struct {
	GeneratedAt string      `json:"generated_at"`
	GoVersion   string      `json:"go_version"`
	CPUs        int         `json:"cpus"`
	Runs        []runResult `json:"runs,omitempty"`
	// Speedup is pipelined writes/sec over sync writes/sec (0 when only
	// one run was requested).
	Speedup     float64      `json:"speedup,omitempty"`
	Flap        *flapResult  `json:"flap,omitempty"`
	ShardScale  *shardScale  `json:"shard_scale,omitempty"`
	StreamScale *streamScale `json:"stream_scale,omitempty"`
	RingScale   *ringScale   `json:"ring_scale,omitempty"`
	VictimScale *victimScale `json:"victim_scale,omitempty"`
}

func main() {
	var (
		opt         options
		compare     = flag.Bool("compare", true, "also run the synchronous (batch=1, inflight=1) configuration and report speedup")
		jsonPath    = flag.String("json", "", "write results to this JSON file (e.g. BENCH_cluster.json)")
		flap        = flag.Int("flap", 0, "run a link-flap drill with this many partition/heal cycles instead of the throughput runs (0 = off)")
		flapSeed    = flag.Int64("flap-seed", 1, "fault-injector seed for -flap (drills are reproducible per seed)")
		shardScale  = flag.String("shard-scale", "", "run the eviction-bound shard-scaling ladder over these comma-separated shard counts (e.g. 1,4,16) instead of the throughput runs")
		streamBench = flag.Bool("stream-scale", false, "run the mixed hot/cold multi-stream flash-wear A/B (tagged vs -streams=off at equal ops) instead of the throughput runs")
		ringScaleF  = flag.String("ring-scale", "", "run the cooperative-ring scaling ladder over these comma-separated member counts (e.g. 2,3) instead of the throughput runs; every member takes client writes")
		victimBench = flag.Bool("victim-scale", false, "run the read-heavy zipfian victim-tier A/B (tier on vs off at equal ops) instead of the throughput runs")
		victimSegs  = flag.Int("victim-segments", 128, "victim log segments for the -victim-scale on-leg (each VictimSegmentPages pages)")
		readfrac    = flag.Float64("readfrac", 0.9, "fraction of -victim-scale ops that are reads")
		zipfS       = flag.Float64("zipf", 1.3, "zipf skew for the -victim-scale block distribution (>1; 0 = uniform)")
		seed        = flag.Int64("seed", 1, "workload-generator seed for -victim-scale (runs are reproducible per seed)")
		streamsFlag = flag.String("streams", "on", "temperature-tagged multi-stream eviction: on|off (off forces every flush onto the default stream)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile")
	)
	flag.IntVar(&opt.writers, "writers", 8, "concurrent writer goroutines")
	flag.IntVar(&opt.ops, "ops", 40000, "total writes, split across writers")
	flag.IntVar(&opt.pages, "pages", 1, "pages per write")
	flag.IntVar(&opt.span, "span", 256, "distinct write locations per writer (cache-resident working set)")
	flag.StringVar(&opt.policy, "policy", flashcoop.PolicyLAR, "buffer policy")
	flag.IntVar(&opt.buffer, "buffer", 16384, "local buffer pages")
	flag.IntVar(&opt.remote, "remote", 16384, "remote buffer pages")
	flag.IntVar(&opt.blocks, "blocks", 8192, "SSD erase blocks")
	flag.IntVar(&opt.batch, "batch", 64, "max pages group-committed per forward frame")
	flag.IntVar(&opt.inflight, "inflight", 4, "max unacked frames on the wire")
	flag.IntVar(&opt.evictQueue, "evict-queue", 4, "per-shard eviction queue depth for -shard-scale (small = tight backpressure)")
	flag.IntVar(&opt.ppb, "ppb", 2, "pages per erase block for -shard-scale (small blocks keep flush units small, so the ladder stays fsync-bound)")
	flag.IntVar(&opt.reps, "reps", 3, "repetitions per -shard-scale rung (the median-throughput rep is kept)")
	flag.Float64Var(&opt.hotfrac, "hotfrac", 0.7, "fraction of page-write volume aimed at the hot region (for -stream-scale)")
	flag.Parse()
	// Validate up front: a bad knob should name itself and its range, not
	// surface later as a divide-by-zero or a run that silently did nothing.
	if opt.writers <= 0 {
		log.Fatalf("bad -writers value %d (want a positive goroutine count)", opt.writers)
	}
	if opt.ops <= 0 {
		log.Fatalf("bad -ops value %d (want a positive write count)", opt.ops)
	}
	if opt.pages <= 0 {
		log.Fatalf("bad -pages value %d (want a positive pages-per-write count)", opt.pages)
	}
	if opt.span <= 0 {
		log.Fatalf("bad -span value %d (want a positive working-set size)", opt.span)
	}
	if opt.buffer <= 0 || opt.remote <= 0 || opt.blocks <= 0 {
		log.Fatalf("bad buffer geometry -buffer=%d -remote=%d -blocks=%d (all must be positive)",
			opt.buffer, opt.remote, opt.blocks)
	}
	if opt.batch <= 0 || opt.inflight <= 0 {
		log.Fatalf("bad pipeline shape -batch=%d -inflight=%d (both must be positive; use 1,1 for synchronous)",
			opt.batch, opt.inflight)
	}
	if opt.evictQueue < 0 {
		log.Fatalf("bad -evict-queue value %d (want 0 for the default or a positive depth)", opt.evictQueue)
	}
	if opt.ppb <= 0 {
		log.Fatalf("bad -ppb value %d (want a positive pages-per-block count)", opt.ppb)
	}
	if opt.reps <= 0 {
		log.Fatalf("bad -reps value %d (want a positive repetition count)", opt.reps)
	}
	if opt.hotfrac < 0 || opt.hotfrac > 1 {
		log.Fatalf("bad -hotfrac value %g (want a fraction in [0, 1])", opt.hotfrac)
	}
	if *flap < 0 {
		log.Fatalf("bad -flap value %d (want 0 for off or a positive cycle count)", *flap)
	}
	if *readfrac < 0 || *readfrac > 1 {
		log.Fatalf("bad -readfrac value %g (want a fraction in [0, 1])", *readfrac)
	}
	if *zipfS != 0 && *zipfS <= 1 {
		log.Fatalf("bad -zipf value %g (want 0 for uniform or a skew > 1)", *zipfS)
	}
	if *victimSegs < 2 {
		log.Fatalf("bad -victim-segments value %d (want >= 2: one open segment plus one reclaim target)", *victimSegs)
	}
	switch strings.ToLower(*streamsFlag) {
	case "on", "true", "1":
		opt.streams = true
	case "off", "false", "0":
		opt.streams = false
	default:
		log.Fatalf("bad -streams value %q (want on or off)", *streamsFlag)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}
	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		CPUs:        runtime.NumCPU(),
	}
	if *flap > 0 {
		fr, err := runFlap(opt, *flap, *flapSeed)
		if err != nil {
			log.Fatal(err)
		}
		rep.Flap = &fr
		fmt.Printf("link-flap drill: %d cycles in %.2fs (seed %d, %d writers)\n",
			fr.Cycles, fr.Seconds, fr.Seed, fr.Writers)
		fmt.Printf("  writes: %d acked, %d shed (ErrOverloaded), %d failed\n", fr.Acked, fr.Shed, fr.Failed)
		fmt.Printf("  lifecycle: %d failovers, %d rejoins, %d pages resynced, %d overloads, %d breaker trips\n",
			fr.Failovers, fr.Rejoins, fr.ResyncedPages, fr.Overloads, fr.BreakerTrips)
		writeReport(rep, *jsonPath)
		return
	}
	if *shardScale != "" || *streamBench || *ringScaleF != "" || *victimBench {
		if *ringScaleF != "" {
			rs, err := runRingScale(opt, *ringScaleF)
			if err != nil {
				log.Fatal(err)
			}
			rep.RingScale = &rs
			printRingScale(rs)
		}
		if *shardScale != "" {
			sc, err := runShardScale(opt, *shardScale)
			if err != nil {
				log.Fatal(err)
			}
			rep.ShardScale = &sc
			printShardScale(sc)
		}
		if *streamBench {
			ss, err := runStreamScale(opt)
			if err != nil {
				log.Fatal(err)
			}
			rep.StreamScale = &ss
			printStreamScale(ss)
		}
		if *victimBench {
			vs, err := runVictimScale(opt, *readfrac, *zipfS, *victimSegs, *seed)
			if err != nil {
				log.Fatal(err)
			}
			rep.VictimScale = &vs
			printVictimScale(vs)
		}
		writeReport(rep, *jsonPath)
		return
	}
	if *compare {
		sync, err := runOnce("sync", opt, 1, 1)
		if err != nil {
			log.Fatal(err)
		}
		rep.Runs = append(rep.Runs, sync)
		// Collect the first pair's buffers now so the GC doesn't tax the
		// second run with the first run's garbage.
		runtime.GC()
	}
	piped, err := runOnce("pipelined", opt, opt.batch, opt.inflight)
	if err != nil {
		log.Fatal(err)
	}
	rep.Runs = append(rep.Runs, piped)
	if *compare && rep.Runs[0].WritesPerSec > 0 {
		rep.Speedup = piped.WritesPerSec / rep.Runs[0].WritesPerSec
	}

	tbl := metrics.Table{
		Title:   "Replicated-write throughput (localhost pair)",
		Headers: []string{"run", "writers", "ops", "writes/s", "MB/s", "p50 ms", "p95 ms", "p99 ms", "frames", "batch x"},
	}
	for _, r := range rep.Runs {
		tbl.AddRow(r.Name, r.Writers, r.Ops, r.WritesPerSec, r.MBPerSec,
			r.P50Ms, r.P95Ms, r.P99Ms, fmt.Sprintf("%d", r.FwdFrames), r.BatchingFactor)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if rep.Speedup > 0 {
		fmt.Printf("\npipelined/sync speedup: %.2fx\n", rep.Speedup)
	}
	writeReport(rep, *jsonPath)
}

func printShardScale(sc shardScale) {
	tbl := metrics.Table{
		Title:   "Shard-scaling ladder (eviction-bound, fsync-on-flush store)",
		Headers: []string{"shards", "writers", "ops", "writes/s", "p50 ms", "p95 ms", "p99 ms", "p999 ms", "persists", "stalls", "pg/sync"},
	}
	for _, r := range sc.Ladder {
		tbl.AddRow(r.Shards, r.Writers, r.Ops, r.WritesPerSec,
			r.P50Ms, r.P95Ms, r.P99Ms, r.P999Ms,
			fmt.Sprintf("%d", r.Persists), fmt.Sprintf("%d", r.EvictorStalls), r.PagesPerSync)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if sc.Speedup > 0 {
		fmt.Printf("\n%d-shard/1-shard write throughput: %.2fx\n",
			sc.Ladder[len(sc.Ladder)-1].Shards, sc.Speedup)
	}
}

func printStreamScale(ss streamScale) {
	tbl := metrics.Table{
		Title: fmt.Sprintf("\nMulti-stream eviction A/B (hotfrac %.2f, %d hot / %d cold blocks, hot set absorbs %.0f%% of writes)",
			ss.HotFrac, ss.HotBlocks, ss.ColdBlocks, ss.HotWriteShare*100),
		Headers: []string{"streams", "ops", "pages", "pages/s", "p50 ms", "p99 ms", "erases", "gc copies", "drain defers", "discard defers"},
	}
	for _, r := range []streamRun{ss.Tagged, ss.Untagged} {
		mode := "on"
		if !r.Streams {
			mode = "off"
		}
		tbl.AddRow(mode, r.Ops, fmt.Sprintf("%d", r.PagesWritten), r.PagesPerSec,
			r.P50Ms, r.P99Ms, fmt.Sprintf("%d", r.Erases), fmt.Sprintf("%d", r.GCCopies),
			fmt.Sprintf("%d", r.DrainDeferrals), fmt.Sprintf("%d", r.DiscardDeferrals))
	}
	if err := tbl.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nerase reduction (tagged vs -streams=off, equal ops): %.1f%%\n", ss.EraseReduction*100)
}

// writeReport writes rep to jsonPath. Sections this invocation did not run
// are carried over from an existing report at the same path, so sections
// that need different workload flags — the shard ladder and the stream
// A/B, say — can be recorded by separate invocations into one file; each
// run refreshes only what it measured.
func writeReport(rep report, jsonPath string) {
	if jsonPath == "" {
		return
	}
	if prev, err := os.ReadFile(jsonPath); err == nil {
		var old report
		if json.Unmarshal(prev, &old) == nil {
			if rep.Runs == nil {
				rep.Runs, rep.Speedup = old.Runs, old.Speedup
			}
			if rep.Flap == nil {
				rep.Flap = old.Flap
			}
			if rep.ShardScale == nil {
				rep.ShardScale = old.ShardScale
			}
			if rep.StreamScale == nil {
				rep.StreamScale = old.StreamScale
			}
			if rep.RingScale == nil {
				rep.RingScale = old.RingScale
			}
			if rep.VictimScale == nil {
				rep.VictimScale = old.VictimScale
			}
		}
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(jsonPath, append(out, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", jsonPath)
}

// runOnce brings up a fresh pair and pushes the whole workload through it.
func runOnce(name string, opt options, batch, inflight int) (runResult, error) {
	backup, err := flashcoop.NewLiveNode(flashcoop.LiveConfig{
		Name: "backup", ListenAddr: "127.0.0.1:0",
		Policy: opt.policy, BufferPages: opt.buffer, RemotePages: opt.remote,
		SSD: flashcoop.DefaultSSD("bast", opt.blocks),
	})
	if err != nil {
		return runResult{}, err
	}
	defer backup.Close()
	writer, err := flashcoop.NewLiveNode(flashcoop.LiveConfig{
		Name: "writer", ListenAddr: "127.0.0.1:0", PeerAddr: backup.Addr(),
		Policy: opt.policy, BufferPages: opt.buffer, RemotePages: opt.remote,
		SSD:           flashcoop.DefaultSSD("bast", opt.blocks),
		MaxBatchPages: batch, MaxInflight: inflight,
		DisableStreams: !opt.streams,
	})
	if err != nil {
		return runResult{}, err
	}
	defer writer.Close()
	if err := writer.ConnectPeer(); err != nil {
		return runResult{}, err
	}

	ps := writer.Device().PageSize()
	user := writer.Device().UserPages()
	// Each writer rewrites a private, cache-resident span so the run
	// measures the replication path (the paper's RAM-speed ack claim),
	// not eviction or heap growth. Spans shrink if they would not fit
	// the device or the buffer.
	span := int64(opt.span) * int64(opt.pages)
	if max := user / int64(opt.writers); span > max {
		span = max
	}
	if max := int64(opt.buffer) / int64(opt.writers); span > max {
		span = max
	}
	perWriter := opt.ops / opt.writers
	hists := make(chan *metrics.LatencyHist, opt.writers)
	errs := make(chan error, opt.writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opt.writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var h metrics.LatencyHist
			buf := make([]byte, opt.pages*ps)
			for i := range buf {
				buf[i] = byte(w + 1)
			}
			base := int64(w) * span
			for i := 0; i < perWriter; i++ {
				lpn := base + (int64(i)*int64(opt.pages))%span
				t0 := time.Now()
				if err := writer.Write(lpn, buf); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				h.Add(float64(time.Since(t0)) / float64(time.Millisecond))
			}
			hists <- &h
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	close(errs)
	for err := range errs {
		return runResult{}, err
	}
	close(hists)
	var all metrics.LatencyHist
	for h := range hists {
		all.Merge(h)
	}
	st := writer.Stats()
	ops := opt.writers * perWriter
	r := runResult{
		Name: name, Writers: opt.writers, Ops: ops, PagesPerOp: opt.pages,
		MaxBatchPages: batch, MaxInflight: inflight,
		Seconds:      elapsed,
		WritesPerSec: float64(ops) / elapsed,
		MBPerSec:     float64(ops*opt.pages*ps) / elapsed / (1 << 20),
		P50Ms:        all.P50(), P95Ms: all.P95(), P99Ms: all.P99(),
		Forwards: st.Forwards, FwdFrames: st.FwdFrames,
	}
	if st.FwdFrames > 0 {
		r.BatchingFactor = float64(st.Forwards) / float64(st.FwdFrames)
	}
	return r, nil
}

// runRingScale runs the symmetric write workload once per rung of the
// comma-separated member-count ladder and reports how per-node throughput
// holds as the ring grows. Each rung runs -reps times and keeps the
// median-aggregate repetition, like the shard ladder.
func runRingScale(opt options, ladder string) (ringScale, error) {
	var counts []int
	for _, f := range strings.Split(ladder, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 2 {
			return ringScale{}, fmt.Errorf("bad -ring-scale entry %q (member counts must be >= 2)", f)
		}
		counts = append(counts, n)
	}
	reps := opt.reps
	if reps < 1 {
		reps = 1
	}
	rs := ringScale{Reps: reps}
	for _, nodes := range counts {
		var runs []ringRun
		for rep := 0; rep < reps; rep++ {
			r, err := runRingOnce(opt, nodes)
			if err != nil {
				return ringScale{}, fmt.Errorf("nodes=%d: %w", nodes, err)
			}
			runs = append(runs, r)
			runtime.GC()
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].WritesPerSec < runs[j].WritesPerSec })
		rs.Ladder = append(rs.Ladder, runs[len(runs)/2])
	}
	for _, r := range rs.Ladder {
		if r.Nodes == 2 && r.WritesPerSec > 0 {
			rs.PerNodeRatio = rs.Ladder[len(rs.Ladder)-1].WritesPerSec / r.WritesPerSec
			break
		}
	}
	return rs, nil
}

// runRingOnce drives one rung: a fresh n-member ring with the writer pool
// hammering member 0, whose backups hash across its n-1 partners.
func runRingOnce(opt options, n int) (ringRun, error) {
	cfgs := make([]flashcoop.LiveConfig, n)
	for i := range cfgs {
		cfgs[i] = flashcoop.LiveConfig{
			Name: fmt.Sprintf("ring%d", i), ListenAddr: "127.0.0.1:0",
			Policy: opt.policy, BufferPages: opt.buffer, RemotePages: opt.remote,
			SSD:           flashcoop.DefaultSSD("bast", opt.blocks),
			MaxBatchPages: opt.batch, MaxInflight: opt.inflight,
			DisableStreams: !opt.streams,
		}
	}
	nodes, err := flashcoop.NewLiveRing(cfgs, 1)
	if err != nil {
		return ringRun{}, err
	}
	defer func() {
		for _, m := range nodes {
			m.Close()
		}
	}()
	for _, m := range nodes {
		if err := m.ConnectPeer(); err != nil {
			return ringRun{}, err
		}
	}

	driven := nodes[0]
	ps := driven.Device().PageSize()
	user := driven.Device().UserPages()
	// Same cache-resident span discipline as runOnce: the rung measures
	// the replication path, not eviction.
	span := int64(opt.span) * int64(opt.pages)
	if max := user / int64(opt.writers); span > max {
		span = max
	}
	if max := int64(opt.buffer) / int64(opt.writers); span > max {
		span = max
	}
	perWriter := opt.ops / opt.writers
	hists := make(chan *metrics.LatencyHist, opt.writers)
	errs := make(chan error, opt.writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opt.writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var h metrics.LatencyHist
			buf := make([]byte, opt.pages*ps)
			for i := range buf {
				buf[i] = byte(w + 1)
			}
			base := int64(w) * span
			for i := 0; i < perWriter; i++ {
				lpn := base + (int64(i)*int64(opt.pages))%span
				t0 := time.Now()
				if err := driven.Write(lpn, buf); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				h.Add(float64(time.Since(t0)) / float64(time.Millisecond))
			}
			hists <- &h
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	close(errs)
	for err := range errs {
		return ringRun{}, err
	}
	close(hists)
	var all metrics.LatencyHist
	for h := range hists {
		all.Merge(h)
	}
	partners := 0
	for _, m := range nodes[1:] {
		if len(m.SnapshotRemoteFor(driven.Addr())) > 0 {
			partners++
		}
	}
	st := driven.Stats()
	ops := opt.writers * perWriter
	r := ringRun{
		Nodes: n, Replication: 1,
		Writers: opt.writers, Ops: ops,
		Seconds:      elapsed,
		WritesPerSec: float64(ops) / elapsed,
		P50Ms:        all.P50(), P95Ms: all.P95(), P99Ms: all.P99(),
		Forwards: st.Forwards, FwdFrames: st.FwdFrames,
		Partners: partners,
	}
	if st.FwdFrames > 0 {
		r.BatchingFactor = float64(st.Forwards) / float64(st.FwdFrames)
	}
	return r, nil
}

func printRingScale(rs ringScale) {
	tbl := metrics.Table{
		Title:   "Ring-scaling ladder (one driven member; 2 nodes = the classic pair)",
		Headers: []string{"nodes", "writers", "ops", "writes/s", "p50 ms", "p95 ms", "p99 ms", "batch x", "partners"},
	}
	for _, r := range rs.Ladder {
		tbl.AddRow(r.Nodes, r.Writers, r.Ops, r.WritesPerSec,
			r.P50Ms, r.P95Ms, r.P99Ms, r.BatchingFactor, r.Partners)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if rs.PerNodeRatio > 0 {
		fmt.Printf("\n%d-node/2-node per-node throughput: %.2fx\n",
			rs.Ladder[len(rs.Ladder)-1].Nodes, rs.PerNodeRatio)
	}
}

// runFlap cuts and heals the writer→backup link cycles times while the
// writers keep running, and reports how the pair rode it out. A fast
// heartbeat makes the failover/rejoin walk visible in seconds rather than
// the production-scale defaults.
func runFlap(opt options, cycles int, seed int64) (flapResult, error) {
	nw := faultnet.New(seed)
	backup, err := flashcoop.NewLiveNode(flashcoop.LiveConfig{
		Name: "backup", ListenAddr: "127.0.0.1:0",
		Policy: opt.policy, BufferPages: opt.buffer, RemotePages: opt.remote,
		SSD: flashcoop.DefaultSSD("bast", opt.blocks),
	})
	if err != nil {
		return flapResult{}, err
	}
	defer backup.Close()
	writer, err := flashcoop.NewLiveNode(flashcoop.LiveConfig{
		Name: "writer", ListenAddr: "127.0.0.1:0", PeerAddr: backup.Addr(),
		Policy: opt.policy, BufferPages: opt.buffer, RemotePages: opt.remote,
		SSD:           flashcoop.DefaultSSD("bast", opt.blocks),
		MaxBatchPages: opt.batch, MaxInflight: opt.inflight,
		HeartbeatInterval: 25 * time.Millisecond,
		FailureThreshold:  2,
		CallTimeout:       250 * time.Millisecond,
		Dialer:            nw.Dial,
		Listener:          nw.Listen,
	})
	if err != nil {
		return flapResult{}, err
	}
	defer writer.Close()
	if err := writer.ConnectPeer(); err != nil {
		return flapResult{}, err
	}
	writer.StartHeartbeat()

	ps := writer.Device().PageSize()
	span := int64(opt.span) * int64(opt.pages)
	if max := writer.Device().UserPages() / int64(opt.writers); span > max {
		span = max
	}
	var acked, shed, failed int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < opt.writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, opt.pages*ps)
			for i := range buf {
				buf[i] = byte(w + 1)
			}
			base := int64(w) * span
			for i := int64(0); ; i++ {
				select {
				case <-done:
					return
				default:
				}
				err := writer.Write(base+(i*int64(opt.pages))%span, buf)
				switch {
				case err == nil:
					atomic.AddInt64(&acked, 1)
				case errors.Is(err, flashcoop.ErrOverloaded):
					atomic.AddInt64(&shed, 1)
				default:
					atomic.AddInt64(&failed, 1)
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	start := time.Now()
	for c := 0; c < cycles; c++ {
		before := writer.Stats().Rejoins
		nw.SetPartitioned(true)
		if err := waitUntil(10*time.Second, func() bool { return !writer.PeerAlive() }); err != nil {
			return flapResult{}, fmt.Errorf("cycle %d: failover: %w", c+1, err)
		}
		time.Sleep(150 * time.Millisecond) // degraded writes fill the resync journal
		nw.SetPartitioned(false)
		if err := waitUntil(20*time.Second, func() bool {
			return writer.PeerAlive() && writer.Stats().Rejoins > before
		}); err != nil {
			return flapResult{}, fmt.Errorf("cycle %d: rejoin: %w", c+1, err)
		}
		time.Sleep(100 * time.Millisecond) // cooperative traffic resumes
	}
	elapsed := time.Since(start).Seconds()
	close(done)
	wg.Wait()

	st := writer.Stats()
	return flapResult{
		Cycles: cycles, Seed: seed, Writers: opt.writers,
		Seconds:       elapsed,
		Acked:         atomic.LoadInt64(&acked),
		Shed:          atomic.LoadInt64(&shed),
		Failed:        atomic.LoadInt64(&failed),
		Failovers:     st.Failovers,
		Rejoins:       st.Rejoins,
		ResyncedPages: st.ResyncedPages,
		Overloads:     st.Overloads,
		BreakerTrips:  st.BreakerTrips,
	}, nil
}

// runShardScale runs the eviction-bound workload per rung of the
// comma-separated shard ladder and reports how write throughput scales
// with the number of concurrent flush streams. Each rung runs -reps times
// and keeps the median-throughput repetition: a rung lasts only a few
// seconds, and on shared hosts fsync latency drifts on that same scale,
// so a single sample can swing a rung by 2x in either direction.
func runShardScale(opt options, ladder string) (shardScale, error) {
	var counts []int
	for _, f := range strings.Split(ladder, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return shardScale{}, fmt.Errorf("bad -shard-scale entry %q", f)
		}
		counts = append(counts, n)
	}
	reps := opt.reps
	if reps < 1 {
		reps = 1
	}
	medianOf := func(shards int) (shardRun, error) {
		var runs []shardRun
		for rep := 0; rep < reps; rep++ {
			r, err := runShardOnce(opt, shards)
			if err != nil {
				return shardRun{}, fmt.Errorf("shards=%d: %w", shards, err)
			}
			runs = append(runs, r)
			runtime.GC()
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].WritesPerSec < runs[j].WritesPerSec })
		return runs[len(runs)/2], nil
	}
	sc := shardScale{EvictQueue: opt.evictQueue, Reps: reps}
	for _, shards := range counts {
		r, err := medianOf(shards)
		if err != nil {
			return shardScale{}, err
		}
		sc.Ladder = append(sc.Ladder, r)
	}
	for _, r := range sc.Ladder {
		if r.Shards == 1 && r.WritesPerSec > 0 {
			sc.Speedup = sc.Ladder[len(sc.Ladder)-1].WritesPerSec / r.WritesPerSec
			break
		}
	}
	return sc, nil
}

// runShardOnce drives one rung: a fresh pair whose writer persists to a
// throwaway on-disk store with fsync-on-flush, under a working set far
// larger than the buffer. Every write evicts, so throughput is gated by
// how many flush streams the shard layer can keep in flight at once.
func runShardOnce(opt options, shards int) (shardRun, error) {
	dir, err := os.MkdirTemp("", "flashcoop-shard-")
	if err != nil {
		return shardRun{}, err
	}
	defer os.RemoveAll(dir)
	// Small erase blocks keep each flush unit (and so each fsync) to a few
	// pages: the rung then measures how many persist streams the shard
	// layer keeps in flight, not how well one stream amortizes a batch.
	geom := flashcoop.TableIIFlash()
	geom.PagesPerBlock = opt.ppb
	geom.BlocksPerPlane = opt.blocks
	geom.PlanesPerDie = 1
	// Page-mapped FTL with generous over-provisioning: tiny erase blocks
	// would drown a block-mapped scheme in merges (and a tight spare pool
	// in victim scans), and the rung measures the flush pipeline, not
	// simulated garbage collection.
	ssdCfg := flashcoop.SSDConfig{Scheme: "page", FTL: flashcoop.FTLConfig{Flash: geom, OPRatio: 0.5}}
	backup, err := flashcoop.NewLiveNode(flashcoop.LiveConfig{
		Name: "backup", ListenAddr: "127.0.0.1:0",
		Policy: opt.policy, BufferPages: opt.buffer, RemotePages: opt.remote,
		SSD:    ssdCfg,
		Shards: shards,
	})
	if err != nil {
		return shardRun{}, err
	}
	defer backup.Close()
	writer, err := flashcoop.NewLiveNode(flashcoop.LiveConfig{
		Name: "writer", ListenAddr: "127.0.0.1:0", PeerAddr: backup.Addr(),
		Policy: opt.policy, BufferPages: opt.buffer, RemotePages: opt.remote,
		SSD:           ssdCfg,
		MaxBatchPages: opt.batch, MaxInflight: opt.inflight,
		Shards: shards, EvictQueue: opt.evictQueue,
		DataDir: dir, SyncWrites: true,
		DisableStreams: !opt.streams,
	})
	if err != nil {
		return shardRun{}, err
	}
	defer writer.Close()
	if err := writer.ConnectPeer(); err != nil {
		return shardRun{}, err
	}

	ps := writer.Device().PageSize()
	ppb := int64(writer.Device().PagesPerBlock())
	// Writers own disjoint block ranges and stride block-by-block, so
	// every shard sees traffic and eviction churns continuously instead
	// of settling into a cache-resident span.
	blocks := writer.Device().UserPages() / ppb
	span := blocks / int64(opt.writers)
	if span < 1 {
		span = 1
	}
	perWriter := opt.ops / opt.writers
	hists := make(chan *metrics.LatencyHist, opt.writers)
	errs := make(chan error, opt.writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opt.writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var h metrics.LatencyHist
			buf := make([]byte, ps)
			for i := range buf {
				buf[i] = byte(w + 1)
			}
			base := int64(w) * span
			for i := 0; i < perWriter; i++ {
				lpn := (base + int64(i)%span) * ppb
				t0 := time.Now()
				if err := writer.Write(lpn, buf); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				h.Add(float64(time.Since(t0)) / float64(time.Millisecond))
			}
			hists <- &h
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	close(errs)
	for err := range errs {
		return shardRun{}, err
	}
	close(hists)
	var all metrics.LatencyHist
	for h := range hists {
		all.Merge(h)
	}
	st := writer.Stats()
	ops := opt.writers * perWriter
	r := shardRun{
		Shards: shards, Writers: opt.writers, Ops: ops,
		Seconds:      elapsed,
		WritesPerSec: float64(ops) / elapsed,
		P50Ms:        all.P50(), P95Ms: all.P95(), P99Ms: all.P99(), P999Ms: all.P999(),
		Persists:           st.Persists,
		EvictorStalls:      st.EvictorStalls,
		GroupCommitBatches: st.GroupCommitBatches,
	}
	if st.GroupCommitBatches > 0 {
		r.PagesPerSync = float64(st.PagesSynced) / float64(st.GroupCommitBatches)
	}
	return r, nil
}

// Stream-bench geometry. Small enough that the default op count writes
// the device over several times (so simulated GC runs hot), big enough
// that the hot region dwarfs the buffer (so hot rewrites actually reach
// flash instead of dying in cache — a hot set that fits the buffer never
// pollutes an erase block and the A/B would measure nothing).
const (
	streamPPB      = 32   // pages per erase block
	streamBlocks   = 512  // erase blocks (one plane)
	streamOPRatio  = 0.02 // tight spare pool: GC runs at high utilization
	streamBufPages = 512  // local buffer: a small fraction of the hot region
	streamHotPages = 6144 // hot region: 12x the buffer, so rewrites reach flash
)

// streamOp is one generated request of the mixed hot/cold trace.
type streamOp struct {
	lpn   int64
	pages int
}

// genStreamOps builds each writer's deterministic op list: with
// probability pHot a single-page rewrite of a random hot-region page,
// otherwise the writer's next cold block written whole in one request
// (one sequential stream per writer, wrapping its private range).
// pHot is chosen so hot PAGES (not ops) make up hotfrac of the volume —
// a cold op carries a whole block's worth of pages. The combined trace
// is returned alongside for the once-per-trace skew classification.
func genStreamOps(writers int, totalPages int64, hotfrac float64, user int64, ppb int) ([][]streamOp, []trace.Request) {
	coldBlocks := (user - streamHotPages) / int64(ppb)
	perCold := coldBlocks / int64(writers)
	if perCold < 1 {
		perCold = 1
	}
	pHot := hotfrac * float64(ppb) / (hotfrac*float64(ppb) + (1 - hotfrac))
	perWriter := totalPages / int64(writers)
	lists := make([][]streamOp, writers)
	var all []trace.Request
	for w := 0; w < writers; w++ {
		rng := rand.New(rand.NewSource(int64(w)*7919 + 12345))
		base := streamHotPages + int64(w)*perCold*int64(ppb)
		var next, pages int64
		for pages < perWriter {
			op := streamOp{pages: 1}
			if rng.Float64() < pHot {
				op.lpn = rng.Int63n(streamHotPages)
			} else {
				op.lpn = base + (next%perCold)*int64(ppb)
				op.pages = ppb
				next++
			}
			lists[w] = append(lists[w], op)
			pages += int64(op.pages)
			all = append(all, trace.Request{Op: trace.Write, LPN: op.lpn, Pages: op.pages})
		}
	}
	return lists, all
}

// runStreamScale replays the same mixed hot/cold trace through two fresh
// pairs — multi-stream eviction on, then off — and reports the flash
// wear (erases, GC copies) each mode paid for identical host traffic.
func runStreamScale(opt options) (streamScale, error) {
	geom := flashcoop.TableIIFlash()
	geom.PagesPerBlock = streamPPB
	geom.BlocksPerPlane = streamBlocks
	geom.PlanesPerDie = 1
	ssdCfg := flashcoop.SSDConfig{Scheme: "page", FTL: flashcoop.FTLConfig{Flash: geom, OPRatio: streamOPRatio}}

	newPair := func(streamsOn bool) (*flashcoop.LiveNode, *flashcoop.LiveNode, error) {
		backup, err := flashcoop.NewLiveNode(flashcoop.LiveConfig{
			Name: "backup", ListenAddr: "127.0.0.1:0",
			Policy: flashcoop.PolicyLAR, BufferPages: streamBufPages, RemotePages: streamBufPages,
			SSD: ssdCfg,
		})
		if err != nil {
			return nil, nil, err
		}
		writer, err := flashcoop.NewLiveNode(flashcoop.LiveConfig{
			Name: "writer", ListenAddr: "127.0.0.1:0", PeerAddr: backup.Addr(),
			Policy: flashcoop.PolicyLAR, BufferPages: streamBufPages, RemotePages: streamBufPages,
			SSD:           ssdCfg,
			MaxBatchPages: opt.batch, MaxInflight: opt.inflight,
			DisableStreams: !streamsOn,
		})
		if err != nil {
			backup.Close()
			return nil, nil, err
		}
		if err := writer.ConnectPeer(); err != nil {
			writer.Close()
			backup.Close()
			return nil, nil, err
		}
		return backup, writer, nil
	}

	var ss streamScale
	var lists [][]streamOp
	runLeg := func(streamsOn bool) (streamRun, error) {
		backup, writer, err := newPair(streamsOn)
		if err != nil {
			return streamRun{}, err
		}
		defer backup.Close()
		defer writer.Close()
		if lists == nil {
			// The device exists now, so the generator can size the cold
			// region from the real user capacity; both legs replay these
			// exact lists, so the A/B is at equal ops by construction.
			user := writer.Device().UserPages()
			var reqs []trace.Request
			lists, reqs = genStreamOps(opt.writers, int64(opt.ops), opt.hotfrac, user, streamPPB)
			heat := workload.ClassifyHeat(reqs, streamPPB, 0.5)
			ss.HotFrac = opt.hotfrac
			ss.PagesPerBlock = streamPPB
			ss.UserPages = user
			ss.HotPages = streamHotPages
			ss.BufferPages = streamBufPages
			ss.HotBlocks = heat.HotBlocks
			ss.ColdBlocks = heat.ColdBlocks
			ss.HotWriteShare = heat.HotWriteShare
		}
		ps := writer.Device().PageSize()
		hists := make(chan *metrics.LatencyHist, opt.writers)
		errs := make(chan error, opt.writers)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < opt.writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var h metrics.LatencyHist
				buf := make([]byte, streamPPB*ps)
				for i := range buf {
					buf[i] = byte(w + 1)
				}
				for _, op := range lists[w] {
					t0 := time.Now()
					if err := writer.Write(op.lpn, buf[:op.pages*ps]); err != nil {
						errs <- fmt.Errorf("writer %d: %w", w, err)
						return
					}
					h.Add(float64(time.Since(t0)) / float64(time.Millisecond))
				}
				hists <- &h
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		close(errs)
		for err := range errs {
			return streamRun{}, err
		}
		close(hists)
		var all metrics.LatencyHist
		for h := range hists {
			all.Merge(h)
		}
		st := writer.Stats()
		fs := writer.StreamStats()
		var ops int
		var pages int64
		for _, l := range lists {
			ops += len(l)
			for _, op := range l {
				pages += int64(op.pages)
			}
		}
		r := streamRun{
			Streams: streamsOn, Writers: opt.writers, Ops: ops, PagesWritten: pages,
			Seconds:     elapsed,
			PagesPerSec: float64(pages) / elapsed,
			P50Ms:       all.P50(), P99Ms: all.P99(),
			StreamPrograms:   make(map[string]int64),
			StreamErases:     make(map[string]int64),
			StreamCopies:     make(map[string]int64),
			DrainDeferrals:   st.DrainDeferrals,
			DiscardDeferrals: st.DiscardDeferrals,
		}
		for i, n := range fs.Programs {
			r.StreamPrograms[stream.Stream(i).String()] = n
		}
		for i := range fs.Erases {
			name := "untagged"
			if i < int(stream.NumStreams) {
				name = stream.Stream(i).String()
			}
			r.StreamErases[name] = fs.Erases[i]
			r.StreamCopies[name] = fs.Copies[i]
			r.Erases += fs.Erases[i]
			r.GCCopies += fs.Copies[i]
		}
		return r, nil
	}

	tagged, err := runLeg(true)
	if err != nil {
		return streamScale{}, err
	}
	runtime.GC()
	untagged, err := runLeg(false)
	if err != nil {
		return streamScale{}, err
	}
	ss.Tagged, ss.Untagged = tagged, untagged
	if untagged.Erases > 0 {
		ss.EraseReduction = 1 - float64(tagged.Erases)/float64(untagged.Erases)
	}
	return ss, nil
}

func waitUntil(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("condition not reached within %v", timeout)
}
