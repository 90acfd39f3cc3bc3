package main

import (
	"bytes"
	"fmt"
	"time"

	"flashcoop/internal/buffer"
	"flashcoop/internal/cluster"
	"flashcoop/internal/core"
	"flashcoop/internal/metrics"
	"flashcoop/internal/sim"
	"flashcoop/internal/ssd"
	"flashcoop/internal/stream"
	"flashcoop/internal/trace"
	"flashcoop/internal/victim"
)

// Standalone replays time one layer's public functions on the run's own
// generated inputs, outside the pair, so a layer's cost is measured
// without the layers around it. Each replay is one span covering all its
// calls: a per-call timer would cost as much as the sub-microsecond calls
// it measures.

// replayCap bounds how many ops a standalone replay feeds a layer.
const replayCap = 100_000

func capOps(ops []op) []op {
	if len(ops) > replayCap {
		return ops[:replayCap]
	}
	return ops
}

// bufferReplay is the result of replaying ops through a fresh buffer.
type bufferReplay struct {
	nsPerAccess   float64
	hitRatio      float64
	pagesPerFlush float64
	units         []buffer.FlushUnit
}

// replayBuffer feeds ops to access (a fresh cache's Access) and reports
// its cost, hit ratio and the evictions it produced.
func replayBuffer(name string, c buffer.Cache, ops []op, sb *spanBuf) bufferReplay {
	ops = capOps(ops)
	var br bufferReplay
	flushPages := 0
	sp := sb.begin(name, -1, -1)
	t0 := time.Now()
	for _, o := range ops {
		res := c.Access(buffer.Request{LPN: o.lpn, Pages: o.pages, Write: !o.read})
		for _, u := range res.Flush {
			flushPages += u.Len()
		}
		br.units = append(br.units, res.Flush...)
	}
	br.nsPerAccess = float64(time.Since(t0)) / float64(len(ops))
	sb.endCalls(sp, len(ops))
	br.hitRatio = c.Stats().HitRatio()
	br.pagesPerFlush = ratio(float64(flushPages), float64(len(br.units)))
	return br
}

// replaySSD writes the buffer replay's flush units, in order and with
// their stream tags, to a fresh device built like the workload's, one
// WriteTagged per contiguous run. When the buffer evicted nothing (the
// workload fits in RAM) it writes the ops' own write requests instead, so
// the device layer is still timed. It returns ns per page written.
func replaySSD(cfg ssd.Config, precond float64, units []buffer.FlushUnit, ops []op, sb *spanBuf) (float64, error) {
	if len(units) == 0 {
		for _, o := range capOps(ops) {
			if o.read {
				continue
			}
			u := buffer.FlushUnit{Stream: stream.Warm}
			for p := o.lpn; p < o.lpn+int64(o.pages); p++ {
				u.Pages = append(u.Pages, p)
			}
			units = append(units, u)
		}
	}
	dev, err := ssd.New(cfg)
	if err != nil {
		return 0, err
	}
	if err := dev.Precondition(precond); err != nil {
		return 0, err
	}
	pages, calls := 0, 0
	sp := sb.begin("ssd.WriteTagged", -1, -1)
	t0 := time.Now()
	for _, u := range units {
		for i := 0; i < len(u.Pages); {
			j := i + 1
			for j < len(u.Pages) && u.Pages[j] == u.Pages[j-1]+1 {
				j++
			}
			if _, err := dev.WriteTagged(0, u.Pages[i], j-i, u.Stream); err != nil {
				return 0, err
			}
			pages += j - i
			calls++
			i = j
		}
	}
	el := time.Since(t0)
	sb.endCalls(sp, calls)
	return ratio(float64(el), float64(pages)), nil
}

// replayVictim offers every written page of ops to a fresh victim tier
// (admissible class, reuse above the floor) and then probes every op's
// page, timing the two phases apart. It returns ns per GetInto and per
// Offer.
func replayVictim(segments, segPages, pageSize int, ops []op, sb *spanBuf) (getNs, offerNs float64, err error) {
	ops = capOps(ops)
	vc, err := victim.New(victim.Config{Segments: segments, SegmentPages: segPages, PageSize: pageSize})
	if err != nil {
		return 0, 0, err
	}
	defer vc.Close()
	pg := make([]byte, pageSize)
	var stamp uint64
	offers := 0
	sp := sb.begin("victim.Offer", -1, -1)
	t0 := time.Now()
	for _, o := range ops {
		if o.read {
			continue
		}
		for p := o.lpn; p < o.lpn+int64(o.pages); p++ {
			stamp++
			if _, err := vc.Offer(p, stamp, stream.Hot, 8, pg); err != nil {
				return 0, 0, err
			}
			offers++
		}
	}
	offerNs = ratio(float64(time.Since(t0)), float64(offers))
	sb.endCalls(sp, offers)
	sp = sb.begin("victim.GetInto", -1, -1)
	t0 = time.Now()
	for _, o := range ops {
		vc.GetInto(o.lpn, pg)
	}
	getNs = float64(time.Since(t0)) / float64(len(ops))
	sb.endCalls(sp, len(ops))
	return getNs, offerNs, nil
}

// replayFrame encodes and decodes a write-forward frame of pagesPerFrame
// pages through the v2 framing, as the forwarder and the partner do, and
// returns ns per page.
func replayFrame(pagesPerFrame, pageSize int, sb *spanBuf) (float64, error) {
	const frames = 2000
	m := &cluster.Message{Type: cluster.MsgWriteFwd, Data: make([]byte, pagesPerFrame*pageSize)}
	for i := 0; i < pagesPerFrame; i++ {
		m.LPNs = append(m.LPNs, int64(i))
		m.Stamps = append(m.Stamps, uint64(i+1))
	}
	var buf bytes.Buffer
	sp := sb.begin("cluster.WriteFrameV2+ReadFrame", -1, -1)
	t0 := time.Now()
	for f := 0; f < frames; f++ {
		m.Seq = uint64(f)
		buf.Reset()
		if err := cluster.WriteFrameV2(&buf, m); err != nil {
			return 0, err
		}
		got, err := cluster.ReadFrame(&buf)
		if err != nil {
			return 0, err
		}
		if len(got.LPNs) != pagesPerFrame {
			return 0, fmt.Errorf("frame replay: %d pages decoded, want %d", len(got.LPNs), pagesPerFrame)
		}
	}
	el := time.Since(t0)
	sb.endCalls(sp, frames)
	return float64(el) / float64(frames*pagesPerFrame), nil
}

// replayHist adds samples to a LatencyHist and returns ns per Add.
func replayHist(samples []float64, sb *spanBuf) float64 {
	if len(samples) == 0 {
		samples = []float64{0.1, 1, 10}
	}
	var h metrics.LatencyHist
	const rounds = 200_000
	sp := sb.begin("metrics.LatencyHist.Add", -1, -1)
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		h.Add(samples[i%len(samples)])
	}
	el := time.Since(t0)
	sb.endCalls(sp, rounds)
	return float64(el) / rounds
}

// requestsOf turns ops into simulator requests arriving every gap.
func requestsOf(ops []op, pageSize int, gap sim.VTime) []trace.Request {
	reqs := make([]trace.Request, len(ops))
	for i, o := range ops {
		kind := trace.Write
		if o.read {
			kind = trace.Read
		}
		reqs[i] = trace.Request{Arrival: sim.VTime(i) * gap, Op: kind, LPN: o.lpn, Pages: o.pages, Bytes: o.pages * pageSize}
	}
	return reqs
}

// replayCore replays requests through a fresh simulated pair's first
// node and returns wall ns per Node.Access.
func replayCore(cfg core.Config, precond float64, reqs []trace.Request, sb *spanBuf) (float64, error) {
	peer := cfg
	peer.Name = cfg.Name + "-peer"
	a, _, err := core.NewPair(cfg, peer)
	if err != nil {
		return 0, err
	}
	if err := a.Device().Precondition(precond); err != nil {
		return 0, err
	}
	sp := sb.begin("core.Node.Access", -1, -1)
	t0 := time.Now()
	for i, r := range reqs {
		if _, err := a.Access(r); err != nil {
			return 0, fmt.Errorf("core replay request %d: %w", i, err)
		}
	}
	el := time.Since(t0)
	sb.endCalls(sp, len(reqs))
	return float64(el) / float64(len(reqs)), nil
}
