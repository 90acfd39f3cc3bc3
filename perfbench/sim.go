package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"flashcoop/internal/buffer"
	"flashcoop/internal/core"
	"flashcoop/internal/flash"
	"flashcoop/internal/ftl"
	"flashcoop/internal/sim"
	"flashcoop/internal/ssd"
	"flashcoop/internal/trace"
	"flashcoop/internal/workload"
)

// sim-fin1 replays a Fin1 trace through the virtual-time simulator the way
// the paper's evaluation does: a cooperative pair with LAR over BAST at
// Table II timing, the device preconditioned to 95%, one goroutine.
const (
	simRequests = 200_000
	simBuffer   = 4096
	simBlocks   = 2048
	simPrecond  = 0.95
)

func simSSD() ssd.Config {
	p := flash.TableII()
	p.PlanesPerDie = 8
	p.BlocksPerPlane = simBlocks / p.PlanesPerDie
	return ssd.Config{Scheme: "bast", FTL: ftl.Config{Flash: p}}
}

func simConfig(name string) core.Config {
	return core.Config{Name: name, Policy: buffer.PolicyLAR, BufferPages: simBuffer, RemotePages: simBuffer, SSD: simSSD()}
}

// simRequestsFor generates the Fin1 trace over half the device's user
// space, as the paper experiments size it.
func simRequestsFor(seed int64) ([]trace.Request, error) {
	dev, err := ssd.New(simSSD())
	if err != nil {
		return nil, err
	}
	p := workload.Fin1(simRequests, seed)
	p.AddrPages = dev.UserPages() / 2
	p.PagesPerBlock = dev.PagesPerBlock()
	return p.Generate()
}

// opsOf converts simulator requests to the benchmark's ops.
func opsOf(reqs []trace.Request) []op {
	ops := make([]op, len(reqs))
	for i, q := range reqs {
		ops[i] = op{lpn: q.LPN, pages: q.Pages, read: q.Op == trace.Read}
	}
	return ops
}

// simOutcome is what one replay computed in virtual time; replays of one
// seed must agree on all of it exactly.
type simOutcome struct {
	requests         int64
	respMean         float64
	erases           int64
	programs, copies int64
	hitRatio         float64
	meanWrite        float64
	util, gcPressure float64
}

// simReplay is one replay's outcome plus its wall-clock cost.
type simReplay struct {
	out      simOutcome
	setup    time.Duration
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64
	gcCycles uint64
	pauseSec float64
	steal    float64   // host CPU steal share during the replay
	pcts     []float64 // p50, p90, p99 of the wall ms per Access call
	lat      []float64 // the same calls' wall ms, sorted; kept by keepLat only
}

// replaySim sets up a fresh pair (setup is timed: construction, device
// preconditioning, and a runtime.GC() that closes it) and replays reqs through its first node, timing every
// Node.Access call. With sb set, each call is also a span.
func replaySim(reqs []trace.Request, sb *spanBuf, keepLat bool) (simReplay, error) {
	var r simReplay
	t0 := time.Now()
	a, _, err := core.NewPair(simConfig("s1"), simConfig("s2"))
	if err != nil {
		return r, err
	}
	if err := a.Device().Precondition(simPrecond); err != nil {
		return r, err
	}
	runtime.GC()
	r.setup = time.Since(t0)
	fl0 := a.Device().FTL().Flash().Stats()
	cpu0, rt0, steal0 := cpuTime(), readRuntime(), readSteal()
	lat := make([]float64, len(reqs))
	var end sim.VTime
	t1 := time.Now()
	for i, req := range reqs {
		sp := sb.begin("core.Node.Access", -1, int64(i))
		ts := time.Now()
		done, err := a.Access(req)
		lat[i] = float64(time.Since(ts)) / 1e6
		sb.end(sp)
		if err != nil {
			return r, fmt.Errorf("sim replay request %d: %w", i, err)
		}
		end = max(end, done)
	}
	r.wall = time.Since(t1)
	r.cpu = cpuTime() - cpu0
	r.steal = readSteal().shareSince(steal0)
	rt1 := readRuntime()
	r.alloc = rt1.allocBytes - rt0.allocBytes
	r.gcCycles = rt1.gcCycles - rt0.gcCycles
	r.pauseSec = rt1.pauseSec - rt0.pauseSec
	sort.Float64s(lat)
	r.pcts = []float64{percentile(lat, 50), percentile(lat, 90), percentile(lat, 99)}
	if keepLat {
		r.lat = lat
	}
	fl := a.Device().FTL().Flash().Stats()
	st := a.Stats()
	dev := a.Device()
	r.out = simOutcome{
		requests:   st.Reads + st.Writes,
		respMean:   st.Resp.Mean(),
		erases:     fl.Erases - fl0.Erases,
		programs:   fl.Programs - fl.CopyPrograms - (fl0.Programs - fl0.CopyPrograms),
		copies:     fl.CopyPrograms - fl0.CopyPrograms,
		hitRatio:   a.Buffer().Stats().HitRatio(),
		meanWrite:  dev.Stats().WriteLengths.Mean(),
		util:       dev.Utilization(end),
		gcPressure: dev.GCPressure(),
	}
	return r, nil
}

// runSim replays the seed's trace until the measured seconds are spent
// (at least twice, so the exact-repeat check always runs). Each replay
// sets up its own pair, so setup_s is the median of real set-ups; every
// other wall-clock figure is a median over the calm quarter of the replays
// (see interval).
func runSim(o options) (*result, error) {
	reqs, err := simRequestsFor(o.seed)
	if err != nil {
		return nil, err
	}
	var userPages int64
	for _, q := range reqs {
		if q.Op == trace.Write {
			userPages += int64(q.Pages)
		}
	}
	smp := startSampler(20*time.Millisecond, nil)
	var reps []simReplay
	var spent time.Duration
	budget := time.Duration(o.seconds * float64(time.Second))
	var sb *spanBuf
	if o.trace {
		sb = newSpanBuf(time.Now())
	}
	for len(reps) < 2 || spent < budget {
		// A traced run records a span per call of its second replay only;
		// the first is the untraced reference for the tracing overhead.
		var rsb *spanBuf
		if o.trace && len(reps) == 1 {
			rsb = sb
		}
		rep, err := replaySim(reqs, rsb, len(reps) == 0)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		spent += rep.wall
	}
	peakMB, _ := smp.finish()

	r := newResult()
	first := reps[0].out
	for i, rep := range reps {
		if rep.out != first {
			r.problems = append(r.problems, fmt.Sprintf("replay %d of seed %d differs from replay 0: %+v vs %+v", i, o.seed, rep.out, first))
		}
		if rep.out.requests != int64(len(reqs)) {
			r.problems = append(r.problems, fmt.Sprintf("replay %d served %d requests, want %d", i, rep.out.requests, len(reqs)))
		}
		r.attempted += rep.out.requests
	}
	var setups []float64
	var ivs []interval
	n := float64(len(reqs))
	for _, rep := range reps {
		setups = append(setups, rep.setup.Seconds())
		ivs = append(ivs, interval{steal: rep.steal, vals: []float64{
			n / rep.wall.Seconds(), rep.pcts[0], rep.pcts[1], rep.pcts[2],
			float64(rep.cpu) / 1e3 / n, float64(rep.alloc) / 1024 / n,
		}})
	}
	r.note("%d replays of %d requests (op stream hash %016x); exact-repeat check over all of them", len(reps), len(reqs), streamHash(opsOf(reqs)))
	r.note("sim: resp %.6f ms, %d erases, %d host programs, %d copies, hit ratio %.6f", first.respMean, first.erases, first.programs, first.copies, first.hitRatio)
	if o.trace {
		return r, simLayers(r, reqs, reps, sb, o)
	}
	meds, steal := calmMedians(ivs, 6)
	r.e2e["setup_s"] = median(setups)
	r.e2e["ops_s"] = meds[0]
	r.e2e["lat_p50_ms"] = meds[1]
	r.e2e["lat_p90_ms"] = meds[2]
	r.extra["lat_p99_ms"] = meds[3]
	r.e2e["cpu_us_per_op"] = meds[4]
	r.e2e["alloc_kb_per_op"] = meds[5]
	r.e2e["rss_peak_mb"] = peakMB
	r.extra["sim_resp_ms"] = first.respMean
	r.extra["flash_wa"] = ratio(float64(first.programs+first.copies), float64(userPages))
	r.extra["erases_per_kpage"] = ratio(float64(first.erases)*1000, float64(userPages))
	r.note("setup_s samples %v", setups)
	r.note("replays [ops/s p50 p90 p99 cpu_us alloc_kb steal]:%s; calm quarter's steal %.1f%%", describe(ivs), 100*steal)
	return r, nil
}

// The simulator has no live pair, so a traced sim-fin1 run measures the
// cluster and generator layers by replaying its Fin1 ops through a small
// in-memory pair for simPairSeconds, at simPairRate in the open-loop leg.
const (
	simPairSeconds = 4
	simPairRate    = 2000
)

// simLayers fills the per-layer metrics of a traced sim-fin1 run: the
// core, buffer, ssd and runtime layers from the replays and standalone
// replays of the trace, the cluster and generator layers from a short
// replay of the same ops through a live pair (pairLayers).
func simLayers(r *result, reqs []trace.Request, reps []simReplay, sb *spanBuf, o options) error {
	L := r.layers
	ops := opsOf(reqs)
	if err := simPairLayers(r, ops, sb, o); err != nil {
		return err
	}
	untraced, traced := reps[0], reps[1]
	out := untraced.out
	var userPages int64
	for _, o := range ops {
		if !o.read {
			userPages += int64(o.pages)
		}
	}
	L["core.access_ns"] = float64(untraced.wall) / float64(len(reqs))
	L["trace.overhead_frac"] = 1 - float64(untraced.wall)/float64(traced.wall)
	L["ssd.flash_wa"] = ratio(float64(out.programs+out.copies), float64(userPages))
	L["ssd.erases_per_kpage"] = ratio(float64(out.erases)*1000, float64(userPages))
	L["ssd.gc_copies_per_page"] = ratio(float64(out.copies), float64(out.programs))
	L["ssd.mean_write_pages"] = out.meanWrite
	L["ssd.util"] = out.util
	L["ssd.gc_pressure"] = out.gcPressure
	var gcs uint64
	var pause float64
	for _, rep := range reps {
		gcs += rep.gcCycles
		pause += rep.pauseSec
	}
	L["runtime.gc_per_kop"] = float64(gcs) / (float64(len(reps)*len(reqs)) / 1000)
	L["runtime.gc_pause_ms"] = pause * 1000

	lar, err := buffer.New(buffer.PolicyLAR, simBuffer, simSSD().FTL.Flash.PagesPerBlock)
	if err != nil {
		return err
	}
	br := replayBuffer("buffer.LAR.Access", lar, ops, sb)
	L["buffer.access_ns"] = br.nsPerAccess
	L["buffer.hit_ratio"] = br.hitRatio
	L["buffer.pages_per_flush"] = br.pagesPerFlush
	if L["ssd.write_ns_per_page"], err = replaySSD(simSSD(), simPrecond, br.units, ops, sb); err != nil {
		return err
	}
	ps := simSSD().FTL.Flash.PageSize
	if L["victim.get_ns"], L["victim.offer_ns"], err = replayVictim(128, simSSD().FTL.Flash.PagesPerBlock, ps, ops, sb); err != nil {
		return err
	}
	if L["cluster.frame_ns_per_page"], err = replayFrame(max(1, int(math.Round(L["cluster.fwd_pages_per_frame"]))), ps, sb); err != nil {
		return err
	}
	L["metrics.hist_add_ns"] = replayHist(untraced.lat, sb)
	return finishTrace(r, sb, o)
}

// simPairLayers replays ops through a fresh in-memory pair built like the
// simulated node (LAR, simBuffer pages, the same BAST device) and fills
// the pair-measured layers from it, checking its outputs like any live
// run.
func simPairLayers(r *result, ops []op, sb *spanBuf, o options) error {
	var span int64
	for _, op := range ops {
		span = max(span, op.lpn+int64(op.pages))
	}
	s := &liveSpec{name: "sim-fin1", bufPages: simBuffer, ssd: simSSD(), span: span, rate: simPairRate}
	root, err := scratchDir(o.root, s.name)
	if err != nil {
		return err
	}
	p, _, err := s.setup(root, o.clients, nil)
	if err != nil {
		return err
	}
	defer p.close()
	po := o
	po.seconds = simPairSeconds
	w, err := s.measure(p, ops, po, sb)
	if err != nil {
		return err
	}
	pairLayers(r.layers, p, w, sb)
	r.attempted += w.untraced.done + w.capLeg.done + w.latLeg.done
	r.failed += w.untraced.failed + w.capLeg.failed + w.latLeg.failed
	r.problems = append(r.problems, p.chk.problems...)
	r.note("pair replay of the trace's ops: %d ops, %d failed, %d written pages' durable copies checked",
		w.untraced.done+w.capLeg.done+w.latLeg.done, w.untraced.failed+w.capLeg.failed+w.latLeg.failed, w.durablePages)
	return nil
}
