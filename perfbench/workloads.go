package main

import (
	"fmt"
	"math"
	"time"

	"flashcoop/internal/buffer"
	"flashcoop/internal/core"
	"flashcoop/internal/flash"
	"flashcoop/internal/ftl"
	"flashcoop/internal/ssd"
)

// streamLen is how many ops a live run generates; the capacity leg wraps
// around the stream if it gets through all of them.
const streamLen = 1 << 18

// liveSetups is how many times a live run sets up a pair; setup_s is
// their median and the last pair is the one measured.
const liveSetups = 3

// latWindow is the latency leg's interval: lat_p50_ms, lat_p90_ms and
// lat_p99_ms are medians over the calm quarter of the intervals of each
// interval's percentile (see interval).
const latWindow = 500 * time.Millisecond

// capShare is the share of the measured seconds the capacity leg gets;
// the latency leg gets the rest.
const capShare = 0.4

// smallFlash is Table II NAND timing on a single plane of blocks erase
// blocks of ppb pages.
func smallFlash(blocks, ppb int) flash.Params {
	p := flash.TableII()
	p.PagesPerBlock = ppb
	p.BlocksPerPlane = blocks
	p.PlanesPerDie = 1
	return p
}

// The frozen open-loop rates are about 30% of the best capacity-leg
// ops_s each workload reached on a 2-vCPU host when the benchmark was
// defined: at half of it, a run on a host losing CPU to steal sits near
// saturation. They are constants so a parent commit and a change face the
// same offered load; they are never derived from a run.
var liveSpecs = map[string]*liveSpec{
	// Everything the keys touch fits in RAM: after set-up nothing evicts,
	// so the acknowledgement path (admission, shard lock, LAR, forward
	// batch, v2 framing, partner apply, ack) does all the work.
	"ack-resident": {
		name:     "ack-resident",
		bufPages: 4096,
		ssd:      ssd.Config{Scheme: "page", FTL: ftl.Config{Flash: smallFlash(512, 64)}},
		span:     2048,
		prefill:  true,
		warmOps:  20000,
		rate:     8000,
		gen: func(seed int64, n int) ([]op, error) {
			return genAckResident(seed, n, 2048, 1.1, 16, 0.8), nil
		},
	},
	// Every write eventually costs an eviction, a persist, an fsync and a
	// modeled program or merge, on a BAST device preconditioned to 85%.
	"flush-bound": {
		name:       "flush-bound",
		bufPages:   1024,
		ssd:        ssd.Config{Scheme: "bast", FTL: ftl.Config{Flash: smallFlash(344, 64)}},
		fileBacked: true,
		precond:    0.85,
		span:       16384,
		warmOps:    6000,
		rate:       2500,
		gen: func(seed int64, n int) ([]op, error) {
			return genFlushBound(seed, n, 16384, 64)
		},
	},
	// Reads of a zipf band too big for RAM, served from RAM, the victim
	// tier, or the paced device queue behind flushes and GC.
	"read-zipf-paced": {
		name:       "read-zipf-paced",
		bufPages:   512,
		ssd:        ssd.Config{Scheme: "page", FTL: ftl.Config{Flash: smallFlash(2112, 8), OPRatio: 0.03}},
		fileBacked: true,
		victimSegs: 128,
		minReuse:   4,
		pacing:     true,
		span:       16384,
		prefill:    true,
		warmOps:    30000,
		rate:       4000,
		gen: func(seed int64, n int) ([]op, error) {
			return genReadZipf(seed, n, 2048, 8, 1.4, 0.9, 4), nil
		},
	},
}

// window is everything one measured window of a live run observed.
type window struct {
	capLeg, latLeg  legResult
	untraced        legResult // traced runs: the untraced first half of the capacity leg
	base, end       nodeSnap
	rt0, rt1        rtSample
	peakMB, gcPress float64
	wall            time.Duration
	flushAll        time.Duration
	durablePages    int
	devReadPages    int64
	devMeanWrite    float64
	devBusy         float64 // modeled device busy ns since the window began
	steal           float64 // share of host CPU time stolen by the hypervisor
}

// measure runs the measured window on a set-up pair: the capacity leg
// (closed loop), then the latency leg (open loop at the frozen rate).
// With sb set, the first half of the capacity leg runs untraced (for the
// tracing-overhead comparison) and everything after it records spans.
// After the window it flushes the writer, checks every written page's
// durable copy, and reads the device once the pair is quiescent.
func (s *liveSpec) measure(p *pair, ops []op, o options, sb *spanBuf) (*window, error) {
	w := &window{}
	capDur := time.Duration(o.seconds * capShare * float64(time.Second))
	latDur := time.Duration(o.seconds*float64(time.Second)) - capDur
	w.base = snapNode(p.writer)
	w.rt0 = readRuntime()
	p.writer.ResetDeviceMeasurement()
	if s.pacing {
		p.writer.SetDevicePacing(true)
	}
	smp := startSampler(20*time.Millisecond, p.writer.GCPressure)
	steal0 := readSteal()
	t0 := time.Now()
	if sb != nil {
		w.untraced = closedLoop(p, ops, o.clients, 0, capDur/2, nil)
		capDur -= capDur / 2
	}
	w.capLeg = closedLoop(p, ops, o.clients, 0, capDur, sb)
	w.latLeg = openLoop(p, ops, o.clients, s.rate, latDur, sb)
	w.end = snapNode(p.writer)
	w.rt1 = readRuntime()
	if s.pacing {
		p.writer.SetDevicePacing(false)
	}
	w.peakMB, w.gcPress = smp.finish()
	w.steal = readSteal().shareSince(steal0)
	ft := time.Now()
	sp := sb.begin("cluster.FlushAll", -1, -1)
	err := p.writer.FlushAll()
	sb.end(sp)
	w.flushAll = time.Since(ft)
	w.wall = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("flush after window: %w", err)
	}
	w.durablePages = p.chk.checkDurable(p.writer.DurableGet)
	// Clients have returned and FlushAll drained every shard, so the
	// device is quiescent and may be read directly.
	dev := p.writer.Device()
	w.devReadPages = dev.Stats().ReadPages
	w.devMeanWrite = dev.Stats().WriteLengths.Mean()
	// Utilization(now) is busy time over now, so at a now far past any
	// busy time it gives the busy time back exactly.
	const far = 1 << 62
	w.devBusy = dev.Utilization(far) * far
	return w, nil
}

// runLive sets a pair up liveSetups times (once when traced), measures
// the last one, and derives the run's metrics.
func runLive(s *liveSpec, o options) (*result, error) {
	ops, err := s.gen(o.seed, streamLen)
	if err != nil {
		return nil, err
	}
	warm, err := s.gen(o.seed^warmSalt, s.warmOps)
	if err != nil {
		return nil, err
	}
	root, err := scratchDir(o.root, s.name)
	if err != nil {
		return nil, err
	}
	setups := liveSetups
	if o.trace {
		setups = 1
	}
	var setupTimes []float64
	var p *pair
	for k := 0; k < setups; k++ {
		q, d, err := s.setup(root, o.clients, warm)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
		if k < setups-1 {
			q.close()
		} else {
			p = q
		}
	}
	defer p.close()
	var sb *spanBuf
	if o.trace {
		sb = newSpanBuf(time.Now())
	}
	w, err := s.measure(p, ops, o, sb)
	if err != nil {
		return nil, err
	}
	r := newResult()
	r.attempted = w.untraced.done + w.capLeg.done + w.latLeg.done
	r.failed = w.untraced.failed + w.capLeg.failed + w.latLeg.failed
	for _, e := range []error{w.untraced.firstErr, w.capLeg.firstErr, w.latLeg.firstErr} {
		if e != nil {
			r.note("first failed op: %v", e)
		}
	}
	r.problems = append(r.problems, p.chk.problems...)
	if n := p.chk.nProblem.Load(); n > int64(len(p.chk.problems)) {
		r.problems = append(r.problems, fmt.Sprintf("... %d problems in all", n))
	}
	r.note("op stream: %d ops, hash %016x", len(ops), streamHash(ops))
	r.note("checked %d reads against per-page high-water marks and %d written pages' durable copies", w.untraced.readPages+w.capLeg.readPages+w.latLeg.readPages, w.durablePages)

	latIvs := latencyIntervals(w.latLeg.lat, w.latLeg.marks, latWindow, 50, 90, 99)
	if len(latIvs) == 0 {
		return nil, fmt.Errorf("latency leg completed %d ops: no %v interval has enough for a p99 (%d needed)", len(w.latLeg.lat), latWindow, 100*minBeyond)
	}
	if o.trace {
		return r, s.layerMetrics(r, p, ops, w, sb, o)
	}
	userPages := w.capLeg.writePages + w.latLeg.writePages
	programs, copies, erases := flashWork(w.base, w.end)

	capIvs := capacityIntervals(w.capLeg.marks)
	capMeds, capSteal := calmMedians(capIvs, 3)
	pcts, latSteal := calmMedians(latIvs, 3)
	r.e2e["setup_s"] = median(setupTimes)
	r.e2e["ops_s"] = capMeds[0]
	r.e2e["lat_p50_ms"] = pcts[0]
	r.e2e["lat_p90_ms"] = pcts[1]
	r.extra["lat_p99_ms"] = pcts[2]
	r.e2e["cpu_us_per_op"] = capMeds[1]
	r.e2e["alloc_kb_per_op"] = capMeds[2]
	r.e2e["rss_peak_mb"] = w.peakMB
	r.extra["fail_frac"] = ratio(float64(r.failed), float64(r.attempted))
	for kind, isRead := range map[string]bool{"write": false, "read": true} {
		if xs := latencies(w.latLeg.lat, func(s sample) bool { return s.read == isRead }); percentileOK(len(xs), 99) {
			r.extra[kind+"_p50_ms"] = percentile(xs, 50)
			r.extra[kind+"_p99_ms"] = percentile(xs, 99)
		}
	}
	if programs+copies > 0 {
		r.extra["flash_wa"] = ratio(float64(programs+copies), float64(userPages))
		r.extra["erases_per_kpage"] = ratio(float64(erases)*1000, float64(userPages))
	}
	r.note("setup_s samples %v", setupTimes)
	all := latencies(w.latLeg.lat, func(sample) bool { return true })
	hp := highestPercentile(len(all), 50, 90, 99, 99.9, 99.99)
	r.note("host CPU steal during the window %.1f%%; in the calm quarter of the capacity intervals %.1f%%, of the latency intervals %.1f%%",
		100*w.steal, 100*capSteal, 100*latSteal)
	r.note("capacity leg: %d ops in %v; intervals [ops/s cpu_us alloc_kb steal]:%s", w.capLeg.done, w.capLeg.elapsed.Round(time.Millisecond), describe(capIvs))
	r.note("latency leg: %d ops at %.0f ops/s frozen rate; whole leg p99 %.4f ms, highest reportable p%v %.4f ms; intervals [p50 p90 p99 steal]:%s",
		len(all), s.rate, percentile(all, 99), hp, percentile(all, hp), describe(latIvs))
	r.note("generator lag p99 %.4f ms, %d ops sent after the schedule ended", lagP99(w.latLeg.lat), w.latLeg.backlogEnd)
	r.note("window: %d user pages written, %d flash programs, %d GC copies, %d erases, %d persists",
		userPages, programs, copies, erases, w.end.st.Persists-w.base.st.Persists)
	return r, nil
}

// layerMetrics derives the traced run's per-layer metrics from the pair's
// window (pairLayers) and from standalone replays of the run's ops.
func (s *liveSpec) layerMetrics(r *result, p *pair, ops []op, w *window, sb *spanBuf, o options) error {
	L := r.layers
	pairLayers(L, p, w, sb)
	ps := p.writer.Device().PageSize()
	ppb := p.writer.Device().PagesPerBlock()
	sh, err := buffer.NewSharded(buffer.PolicyLAR, s.bufPages, ppb, p.writer.NumShards())
	if err != nil {
		return err
	}
	br := replayBuffer("buffer.Sharded.Access", sh, ops, sb)
	L["buffer.access_ns"] = br.nsPerAccess
	L["buffer.hit_ratio"] = br.hitRatio
	L["buffer.pages_per_flush"] = br.pagesPerFlush
	if L["ssd.write_ns_per_page"], err = replaySSD(s.ssd, s.precond, br.units, ops, sb); err != nil {
		return err
	}
	if L["victim.get_ns"], L["victim.offer_ns"], err = replayVictim(128, ppb, ps, ops, sb); err != nil {
		return err
	}
	if L["cluster.frame_ns_per_page"], err = replayFrame(max(1, int(math.Round(L["cluster.fwd_pages_per_frame"]))), ps, sb); err != nil {
		return err
	}
	L["metrics.hist_add_ns"] = replayHist(latencies(w.latLeg.lat, func(sample) bool { return true }), sb)
	cc := core.Config{Name: "core", Policy: buffer.PolicyLAR, BufferPages: s.bufPages, RemotePages: s.bufPages, SSD: s.ssd}
	if L["core.access_ns"], err = replayCore(cc, s.precond, requestsOf(capOps(ops), ps, 100_000), sb); err != nil {
		return err
	}
	programs, _, _ := flashWork(w.base, w.end)
	r.note("bypass check: %d persists, %d flash programs, flash_wa %.4f inside the window",
		w.end.st.Persists-w.base.st.Persists, programs, L["ssd.flash_wa"])
	return finishTrace(r, sb, o)
}

// pairLayers fills the per-layer metrics measured on a pair: counter
// deltas over the window through the writer's locked accessors, the
// device once quiescent, and the traced legs' own spans and schedule.
func pairLayers(L map[string]float64, p *pair, w *window, sb *spanBuf) {
	a, b := w.base.st, w.end.st
	kop := float64(w.untraced.done+w.capLeg.done+w.latLeg.done) / 1000
	L["cluster.write_node_p99_ms"] = spanPercentile(sb, "cluster.Write", 99)
	L["cluster.fwd_p99_ms"] = p.writer.ForwardLatencyStats().P99
	L["cluster.fwd_pages_per_frame"] = ratio(float64(b.Forwards-a.Forwards), float64(b.FwdFrames-a.FwdFrames))
	L["cluster.sheds_per_kop"] = float64(b.Overloads-a.Overloads+b.BreakerTrips-a.BreakerTrips) / kop
	L["cluster.persists_per_kop"] = float64(b.Persists-a.Persists) / kop
	L["cluster.evictor_stalls_per_kop"] = float64(b.EvictorStalls-a.EvictorStalls) / kop
	L["cluster.pages_per_sync"] = ratio(float64(b.PagesSynced-a.PagesSynced), float64(b.GroupCommitBatches-a.GroupCommitBatches))
	L["cluster.drain_deferrals_per_kop"] = float64(b.DrainDeferrals-a.DrainDeferrals) / kop
	L["cluster.flushall_ms"] = float64(w.flushAll) / 1e6
	readPages := float64(w.untraced.readPages + w.capLeg.readPages + w.latLeg.readPages)
	vh, vm := float64(b.VictimHits-a.VictimHits), float64(b.VictimMisses-a.VictimMisses)
	L["cluster.read_victim_share"] = ratio(vh, readPages)
	L["cluster.read_device_share"] = ratio(float64(w.devReadPages), readPages)
	L["cluster.read_ram_share"] = 0
	if readPages > 0 {
		L["cluster.read_ram_share"] = math.Max(0, 1-L["cluster.read_victim_share"]-L["cluster.read_device_share"])
	}
	L["victim.hit_ratio"] = ratio(vh, vh+vm)
	admits := float64(b.VictimAdmits - a.VictimAdmits)
	L["victim.admit_ratio"] = ratio(admits, admits+float64(b.VictimRejects-a.VictimRejects))
	L["victim.programs_per_admit"] = ratio(float64(b.VictimPrograms-a.VictimPrograms), admits)

	programs, copies, erases := flashWork(w.base, w.end)
	userPages := float64(w.untraced.writePages + w.capLeg.writePages + w.latLeg.writePages)
	home := programs - (b.VictimPrograms - a.VictimPrograms)
	L["ssd.gc_copies_per_page"] = ratio(float64(copies), float64(home))
	L["ssd.flash_wa"] = ratio(float64(programs+copies), userPages)
	L["ssd.erases_per_kpage"] = ratio(float64(erases)*1000, userPages)
	L["ssd.mean_write_pages"] = w.devMeanWrite
	L["ssd.util"] = w.devBusy / float64(w.wall)
	L["ssd.gc_pressure"] = w.gcPress
	L["gen.lag_p99_ms"] = lagP99(w.latLeg.lat)
	L["gen.backlog_end"] = float64(w.latLeg.backlogEnd)
	L["runtime.gc_per_kop"] = float64(w.rt1.gcCycles-w.rt0.gcCycles) / kop
	L["runtime.gc_pause_ms"] = (w.rt1.pauseSec - w.rt0.pauseSec) * 1000
	L["trace.overhead_frac"] = 1 - opsPerSec(w.capLeg)/opsPerSec(w.untraced)
}

func opsPerSec(l legResult) float64 { return ratio(float64(l.done), l.elapsed.Seconds()) }

// lagP99 is the 99th percentile of how late the generator sent ops.
func lagP99(ss []sample) float64 {
	lags := make([]float64, len(ss))
	for i, s := range ss {
		lags[i] = s.lagMs
	}
	return percentile(sortedCopy(lags), 99)
}
