package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"flashcoop"
	"flashcoop/internal/metrics"
)

// The -victim-scale A/B replays one deterministic read-heavy zipfian mix
// through two fresh pairs at equal ops — once with the flash victim-cache
// tier on and once with it off — against a file-backed fsync-on-flush
// store, so a read miss pays a real pread that can queue behind the flush
// pipeline's section locks and fsyncs. The tier absorbs evicted-but-warm
// pages, so the zipf band that is too big for the buffer but reused often
// enough to earn admission is served from the victim log instead; the
// report carries both legs' read percentiles, hit ratios, and flash
// write-amplification so the gate can hold the tier to its bargain:
// faster read tails at bounded extra flash wear.

// Victim-bench geometry: a buffer a small fraction of the zipf span, so
// the mid-band of the distribution churns through eviction, and a victim
// log a few times the buffer, so that band stays flash-resident.
const (
	victimPPB      = 8    // pages per erase block (home and victim segments)
	victimBlocks   = 2112 // home erase blocks: user capacity == span, spare pool tight
	victimOPRatio  = 0.03 // tight spare pool: home GC runs hot, so misses queue behind it
	victimBufPages = 512
	victimSpan     = 2048 // zipf span in BLOCKS (16k pages: 32x the buffer)
	// victimReadPage is the read-hot payload page within each block, in
	// the half the 4-page updates never rewrite (see genVictimOps).
	victimReadPage = 4
)

// victimOp is one generated request of the mixed read/write trace.
type victimOp struct {
	lpn   int64
	pages int
	read  bool
}

// victimRun is one leg of the -victim-scale A/B.
type victimRun struct {
	Victim       bool    `json:"victim"`
	Segments     int     `json:"segments,omitempty"`
	SegmentPages int     `json:"segment_pages,omitempty"`
	Writers      int     `json:"writers"`
	Ops          int     `json:"ops"`
	Reads        int     `json:"reads"`
	Writes       int     `json:"writes"`
	Seconds      float64 `json:"seconds"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	ReadP50Ms    float64 `json:"read_p50_ms"`
	ReadP95Ms    float64 `json:"read_p95_ms"`
	ReadP99Ms    float64 `json:"read_p99_ms"`
	WriteP50Ms   float64 `json:"write_p50_ms"`
	WriteP99Ms   float64 `json:"write_p99_ms"`
	// ReadHitRatio is the fraction of host-read pages NOT charged to the
	// home device: buffer hits plus (tier on) victim hits.
	ReadHitRatio float64 `json:"read_hit_ratio"`
	VictimHits   int64   `json:"victim_hits,omitempty"`
	VictimMisses int64   `json:"victim_misses,omitempty"`
	VictimAdmits int64   `json:"victim_admits,omitempty"`
	// VictimFillAdmits is the share of admits earned on the read-miss fill
	// path (repeat-miss ghost proof) rather than at dirty-eviction time.
	VictimFillAdmits int64 `json:"victim_fill_admits,omitempty"`
	VictimReject     int64 `json:"victim_rejects,omitempty"`
	// HomePrograms / VictimPrograms are flash page programs (GC copies
	// included) on each array; FlashWriteAmp is their sum over the pages
	// the host actually submitted.
	HomePrograms   int64   `json:"home_programs"`
	VictimPrograms int64   `json:"victim_programs,omitempty"`
	PagesWritten   int64   `json:"pages_written"`
	FlashWriteAmp  float64 `json:"flash_write_amp"`
}

// victimScale is the whole -victim-scale section plus the two headline
// ratios the gate holds.
type victimScale struct {
	ReadFrac    float64   `json:"readfrac"`
	Zipf        float64   `json:"zipf"`
	SpanBlocks  int64     `json:"span_blocks"`
	BufferPages int       `json:"buffer_pages"`
	Reps        int       `json:"reps"`
	On          victimRun `json:"on"`
	Off         victimRun `json:"off"`
	// ReadP99Ratio is off/on read p99: >1 means the tier shortened the
	// read tail (2 = halved it).
	ReadP99Ratio float64 `json:"read_p99_ratio,omitempty"`
	// WriteAmpRatio is on/off flash write-amplification: the extra flash
	// wear the tier cost at equal host ops (1.1 = 10% more programs).
	WriteAmpRatio float64 `json:"write_amp_ratio,omitempty"`
}

// genVictimOps builds each writer's deterministic op list: readfrac of
// the ops are single-page reads of a zipf-chosen block's payload page
// (victimReadPage, in the block's second half), the rest are half-block
// (4-page) writes rewriting a zipf-chosen block's first half. The block
// models an object whose header/log region is update-hot while its
// payload is read-hot: the writes churn the flush pipeline and the home
// device's spare pool without invalidating the read band's victim
// entries on every update, so the tier can actually converge. Admission
// still has to be earned — a payload page enters the victim only after
// a repeat read miss proves reuse (fill path), or a warm dirty eviction
// demonstrates it; one-shot tail blocks stay out.
func genVictimOps(writers, ops int, readfrac, zipfS float64, seed int64) [][]victimOp {
	perWriter := ops / writers
	lists := make([][]victimOp, writers)
	for w := 0; w < writers; w++ {
		rng := rand.New(rand.NewSource(seed + int64(w)*0x9E3779B9))
		var zipf *rand.Zipf
		if zipfS > 1 {
			zipf = rand.NewZipf(rng, zipfS, 1, victimSpan-1)
		}
		block := func() int64 {
			if zipf != nil {
				return int64(zipf.Uint64())
			}
			return rng.Int63n(victimSpan)
		}
		for i := 0; i < perWriter; i++ {
			blk := block()
			var op victimOp
			if rng.Float64() < readfrac {
				op = victimOp{lpn: blk*victimPPB + victimReadPage, pages: 1, read: true}
			} else {
				op = victimOp{lpn: blk * victimPPB, pages: 4}
			}
			lists[w] = append(lists[w], op)
		}
	}
	return lists
}

// runVictimScale runs both legs of the A/B at equal ops and computes the
// headline ratios. Each leg runs opt.reps times and keeps the median
// read-p99 repetition — the tail is the gated metric, so it picks the rep.
// Both legs replay an identical unmeasured warmup trace first (same mix,
// disjoint seed), so the measured window is steady state: the buffer and
// (tier on) the victim log have converged, and the tier's one-time
// admission cost is not billed against the steady-state ratios the gate
// holds.
func runVictimScale(opt options, readfrac, zipfS float64, segments int, seed int64) (victimScale, error) {
	reps := opt.reps
	if reps < 1 {
		reps = 1
	}
	lists := genVictimOps(opt.writers, opt.ops, readfrac, zipfS, seed)
	// Warmup is a longer pull from the same distribution (disjoint seed):
	// the zipf tail converges slowly, and the measured window should pay
	// for steady-state misses, not for first sightings of the band.
	warm := genVictimOps(opt.writers, 5*opt.ops, readfrac, zipfS, seed^0x5eed11fe)
	medianOf := func(victimOn bool) (victimRun, error) {
		var runs []victimRun
		for rep := 0; rep < reps; rep++ {
			r, err := runVictimOnce(opt, warm, lists, victimOn, segments)
			if err != nil {
				return victimRun{}, err
			}
			runs = append(runs, r)
			runtime.GC()
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].ReadP99Ms < runs[j].ReadP99Ms })
		return runs[len(runs)/2], nil
	}
	off, err := medianOf(false)
	if err != nil {
		return victimScale{}, err
	}
	on, err := medianOf(true)
	if err != nil {
		return victimScale{}, err
	}
	vs := victimScale{
		ReadFrac: readfrac, Zipf: zipfS,
		SpanBlocks: victimSpan, BufferPages: victimBufPages, Reps: reps,
		On: on, Off: off,
	}
	if on.ReadP99Ms > 0 {
		vs.ReadP99Ratio = off.ReadP99Ms / on.ReadP99Ms
	}
	if off.FlashWriteAmp > 0 {
		vs.WriteAmpRatio = on.FlashWriteAmp / off.FlashWriteAmp
	}
	return vs, nil
}

// runVictimOnce replays the shared op lists through one fresh pair. The
// writer node persists to a throwaway on-disk store with fsync-on-flush;
// the victim tier (when on) runs over its own erase-block-sized segments.
// The warm lists replay unmeasured first; every counter reported is the
// measured window's delta over the post-warmup baseline.
func runVictimOnce(opt options, warm, lists [][]victimOp, victimOn bool, segments int) (victimRun, error) {
	dir, err := os.MkdirTemp("", "flashcoop-victim-")
	if err != nil {
		return victimRun{}, err
	}
	defer os.RemoveAll(dir)
	geom := flashcoop.TableIIFlash()
	geom.PagesPerBlock = victimPPB
	geom.BlocksPerPlane = victimBlocks
	geom.PlanesPerDie = 1
	ssdCfg := flashcoop.SSDConfig{Scheme: "page", FTL: flashcoop.FTLConfig{Flash: geom, OPRatio: victimOPRatio}}
	backup, err := flashcoop.NewLiveNode(flashcoop.LiveConfig{
		Name: "backup", ListenAddr: "127.0.0.1:0",
		Policy: flashcoop.PolicyLAR, BufferPages: victimBufPages, RemotePages: victimSpan * victimPPB,
		SSD: ssdCfg,
	})
	if err != nil {
		return victimRun{}, err
	}
	defer backup.Close()
	cfg := flashcoop.LiveConfig{
		Name: "writer", ListenAddr: "127.0.0.1:0", PeerAddr: backup.Addr(),
		Policy: flashcoop.PolicyLAR, BufferPages: victimBufPages, RemotePages: victimSpan * victimPPB,
		SSD:           ssdCfg,
		MaxBatchPages: opt.batch, MaxInflight: opt.inflight,
		EvictQueue: opt.evictQueue,
		DataDir:    dir, SyncWrites: true,
	}
	if victimOn {
		cfg.VictimSegments = segments
		// Read-heavy mix: hold eviction-path admission to a high reuse bar
		// (update-churned pages earn a program only via repeat evictions or
		// the ghost gate) and let the read-miss fill path, which is
		// ghost-gated regardless of this floor, do the admitting. Fewer
		// wasted programs on pages the next rewrite would invalidate.
		cfg.AdmissionMinReuse = 4
	}
	writer, err := flashcoop.NewLiveNode(cfg)
	if err != nil {
		return victimRun{}, err
	}
	defer writer.Close()
	if err := writer.ConnectPeer(); err != nil {
		return victimRun{}, err
	}

	ps := writer.Device().PageSize()
	// Seed every block in the span once (a cold sequential pass: one-shot
	// blocks bypass the victim tier by design) and flush it durable. This
	// fills the home device to capacity, so the timed phase's eviction
	// writes run against the tight spare pool with GC live — the regime
	// the tier is for — and it gives every read below a real page to hit.
	seedBuf := make([]byte, victimPPB*ps)
	for i := range seedBuf {
		seedBuf[i] = 0xA5
	}
	for blk := int64(0); blk < victimSpan; blk++ {
		if err := writer.Write(blk*victimPPB, seedBuf); err != nil {
			return victimRun{}, fmt.Errorf("seed block %d: %w", blk, err)
		}
	}
	if err := writer.FlushAll(); err != nil {
		return victimRun{}, fmt.Errorf("seed flush: %w", err)
	}

	type legHists struct{ read, write metrics.LatencyHist }
	replay := func(ops [][]victimOp) (metrics.LatencyHist, metrics.LatencyHist, float64, error) {
		hists := make(chan *legHists, opt.writers)
		errs := make(chan error, opt.writers)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < opt.writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var h legHists
				buf := make([]byte, 4*ps)
				for i := range buf {
					buf[i] = byte(w + 1)
				}
				for _, op := range ops[w] {
					t0 := time.Now()
					if op.read {
						if _, err := writer.Read(op.lpn, op.pages); err != nil {
							errs <- fmt.Errorf("reader %d: %w", w, err)
							return
						}
						h.read.Add(float64(time.Since(t0)) / float64(time.Millisecond))
					} else {
						if err := writer.Write(op.lpn, buf[:op.pages*ps]); err != nil {
							errs <- fmt.Errorf("writer %d: %w", w, err)
							return
						}
						h.write.Add(float64(time.Since(t0)) / float64(time.Millisecond))
					}
				}
				hists <- &h
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		close(errs)
		for err := range errs {
			return metrics.LatencyHist{}, metrics.LatencyHist{}, 0, err
		}
		close(hists)
		var reads, writes metrics.LatencyHist
		for h := range hists {
			reads.Merge(&h.read)
			writes.Merge(&h.write)
		}
		return reads, writes, elapsed, nil
	}

	// Warmup: converge the buffer and (tier on) the victim log's admitted
	// band, unmeasured, then baseline every counter. Seed and warmup run
	// unpaced (host speed), which leaves the device model's queue with a
	// virtual backlog far ahead of the wall clock — re-anchor it, then
	// pace the measured window so its read latencies are the modeled
	// medium's, queueing included, not the host page cache's.
	if _, _, _, err := replay(warm); err != nil {
		return victimRun{}, fmt.Errorf("warmup: %w", err)
	}
	writer.ResetDeviceMeasurement()
	writer.SetDevicePacing(true)
	baseDev := *writer.Device().Stats()
	baseHome := writer.Device().FTL().Flash().Stats()
	baseStats := writer.Stats()
	baseVictim := writer.VictimFlashStats()

	reads, writes, elapsed, err := replay(lists)
	if err != nil {
		return victimRun{}, err
	}

	var nReads, nWrites int
	var readPages, pagesWritten int64
	for _, l := range lists {
		for _, op := range l {
			if op.read {
				nReads++
				readPages += int64(op.pages)
			} else {
				nWrites++
				pagesWritten += int64(op.pages)
			}
		}
	}
	st := writer.Stats()
	dev := writer.Device().Stats()
	home := writer.Device().FTL().Flash().Stats()
	// Charge the timed phase only: the seed pass filled the device, but its
	// programs and reads belong to setup, not the measured mix.
	devReadPages := dev.ReadPages - baseDev.ReadPages
	homePrograms := home.Programs - baseHome.Programs
	r := victimRun{
		Victim:  victimOn,
		Writers: opt.writers, Ops: nReads + nWrites, Reads: nReads, Writes: nWrites,
		Seconds:   elapsed,
		OpsPerSec: float64(nReads+nWrites) / elapsed,
		ReadP50Ms: reads.P50(), ReadP95Ms: reads.P95(), ReadP99Ms: reads.P99(),
		WriteP50Ms: writes.P50(), WriteP99Ms: writes.P99(),
		HomePrograms: homePrograms,
		PagesWritten: pagesWritten,
	}
	if victimOn {
		r.Segments = segments
		r.SegmentPages = victimPPB
		r.VictimHits = st.VictimHits - baseStats.VictimHits
		r.VictimMisses = st.VictimMisses - baseStats.VictimMisses
		r.VictimAdmits = st.VictimAdmits - baseStats.VictimAdmits
		r.VictimFillAdmits = st.VictimFillAdmits - baseStats.VictimFillAdmits
		r.VictimReject = st.VictimRejects - baseStats.VictimRejects
		r.VictimPrograms = st.VictimPrograms - baseVictim.Programs
	}
	if readPages > 0 {
		hr := 1 - float64(devReadPages)/float64(readPages)
		if hr < 0 {
			hr = 0
		}
		r.ReadHitRatio = hr
	}
	if pagesWritten > 0 {
		r.FlashWriteAmp = float64(homePrograms+r.VictimPrograms) / float64(pagesWritten)
	}
	return r, nil
}

func printVictimScale(vs victimScale) {
	tbl := metrics.Table{
		Title: fmt.Sprintf("\nVictim-tier A/B (readfrac %.2f, zipf %.2f over %d blocks, buffer %d pages)",
			vs.ReadFrac, vs.Zipf, vs.SpanBlocks, vs.BufferPages),
		Headers: []string{"victim", "ops", "ops/s", "rd p50 ms", "rd p95 ms", "rd p99 ms", "hit ratio", "wr p99 ms", "write amp", "admits(fill)", "hits"},
	}
	for _, r := range []victimRun{vs.Off, vs.On} {
		mode := "off"
		if r.Victim {
			mode = "on"
		}
		tbl.AddRow(mode, r.Ops, r.OpsPerSec,
			r.ReadP50Ms, r.ReadP95Ms, r.ReadP99Ms, r.ReadHitRatio,
			r.WriteP99Ms, r.FlashWriteAmp,
			fmt.Sprintf("%d(%d)", r.VictimAdmits, r.VictimFillAdmits), fmt.Sprintf("%d", r.VictimHits))
	}
	if err := tbl.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nread p99 off/on: %.2fx   flash write-amp on/off: %.3fx\n",
		vs.ReadP99Ratio, vs.WriteAmpRatio)
}
