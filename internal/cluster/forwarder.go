package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"flashcoop/internal/stream"
)

// errNodeClosing aborts forwards caught in a shutdown.
var errNodeClosing = errors.New("cluster: node closing")

// fwdEntry is one unit of partner traffic queued for a link's forwarder:
// a write backup (data non-nil, done non-nil) or a discard (data and done
// nil — discards are advisory and never acked to a caller). stamps runs
// parallel to lpns so the partner can order the frame against backups it
// already holds; strms (discards only) carries the temperature tag each
// page was flushed under, so the partner sees the cluster's stream
// assignment for every evicted flush that crosses the wire.
type fwdEntry struct {
	lpns   []int64
	stamps []uint64
	strms  []stream.Stream
	data   []byte
	done   chan error
}

func (e fwdEntry) isDiscard() bool { return e.data == nil }

// forwardLoop is a link's single forwarder goroutine: every partner gets
// its own instance, queue, and in-flight window. It drains the link's
// forward queue, group-commits entries into frames (amortizing frames,
// syscalls, and peer round trips across concurrent writers), and keeps up
// to MaxInflight frames on the wire — batch k+1 is sent while batch k's
// ack is still pending.
//
// The batching is self-clocking: a batch keeps absorbing queued entries
// for exactly as long as it waits for a free in-flight slot. Under light
// load a slot is free immediately and a single write goes out with no
// added latency; under heavy load the wire is busy, the wait is one frame
// service time, and every write that arrives in that window rides the
// same frame.
//
// Writes and discards accumulate in separate batches, so the advisory
// discard stream (one entry per eviction flush) never splits a write
// frame into tiny ones. That lets a discard frame reorder against write
// frames, which is safe: both carry write stamps, the partner's backup
// apply is max-wins, and its discard apply only drops versions at or
// below the discard's stamp — a reordered pair converges to the same
// remote state, at worst keeping an already-durable page's backup around
// until the next discard cleans it.
func (l *peerLink) forwardLoop() {
	n := l.n
	defer l.wg.Done()
	inflight := make(chan struct{}, n.cfg.MaxInflight)
	var writes, discards []fwdEntry
	wpages, dpages := 0, 0
	discardDefers := 0
	add := func(e fwdEntry) {
		if e.isDiscard() {
			discards = append(discards, e)
			dpages += len(e.lpns)
		} else {
			writes = append(writes, e)
			wpages += len(e.lpns)
		}
	}
	abort := func() {
		ackBatch(writes, errNodeClosing)
		ackBatch(discards, errNodeClosing)
		l.drainForwardQueue()
	}
	for {
		if wpages == 0 && dpages == 0 {
			select {
			case <-l.stop:
				abort()
				return
			case e := <-l.fwdq:
				add(e)
			}
		}
		acquired := false
	collect:
		for wpages < n.cfg.MaxBatchPages && dpages < n.cfg.MaxBatchPages {
			// Absorb everything already queued before competing for an
			// in-flight slot: a select would pick randomly between a
			// waiting entry and a free slot, and every entry that loses
			// that coin flip ships as its own tiny frame.
			select {
			case e := <-l.fwdq:
				add(e)
				continue
			default:
			}
			select {
			case e := <-l.fwdq:
				add(e)
			case inflight <- struct{}{}:
				acquired = true
				break collect
			case <-l.stop:
				abort()
				return
			}
		}
		if !acquired {
			select {
			case inflight <- struct{}{}:
			case <-l.stop:
				abort()
				return
			}
		}
		// Writers wait on their acks, so write frames go first. A full
		// discard batch preempts them — discard production tracks the
		// flush pipeline, so under sustained write load the cap is hit
		// quickly and the advisory stream is never starved outright.
		if wpages > 0 && dpages < n.cfg.MaxBatchPages {
			l.sendBatch(writes, inflight)
			writes, wpages = nil, 0
			continue
		}
		// GC-aware deferral of the non-urgent stream: while THIS partner
		// reports GC pressure, a below-cap discard-only batch is held back
		// so the advisory traffic does not land on an FTL busy reclaiming.
		// The hold is bounded (a few ticks, then it ships regardless) and
		// a full batch always ships, so discard lag stays bounded by the
		// same MaxBatchPages cap as before; correctness never depends on
		// discard timing — they only free remote buffer space.
		if dpages < n.cfg.MaxBatchPages && discardDefers < maxDiscardDefers &&
			l.gcPressure() >= n.cfg.GCDeferThreshold && n.cfg.GCDeferThreshold > 0 {
			discardDefers++
			atomic.AddInt64(&n.stats.DiscardDeferrals, 1)
			<-inflight // return the slot; nothing is on the wire
			t := time.NewTimer(n.cfg.GCDrainBackoff)
			select {
			case e := <-l.fwdq:
				add(e)
			case <-t.C:
			case <-l.stop:
				t.Stop()
				abort()
				return
			}
			t.Stop()
			continue
		}
		l.sendBatch(discards, inflight)
		discards, dpages = nil, 0
		discardDefers = 0
	}
}

// maxDiscardDefers bounds how many consecutive backoff ticks a discard
// batch may wait out a GC-busy partner before shipping anyway.
const maxDiscardDefers = 8

// sendBatch builds one coalesced frame, starts it on the pipeline, and
// hands completion to a goroutine so the forwarder can keep batching.
// (Completing in the read loop via a callback was tried and measured
// slower here: the acks make a crowd of writers runnable right before
// the read loop re-enters a blocking read, and on a small GOMAXPROCS
// they all wait out the syscall handoff. The dedicated waiter keeps ack
// fanout off the connection's critical path.)
func (l *peerLink) sendBatch(batch []fwdEntry, inflight chan struct{}) {
	n := l.n
	msg, chunks := buildBatchMessage(batch)
	// Every frame carries the sender's identity and ownership epoch so the
	// receiver files backups per origin and rejects frames routed under a
	// stale layout.
	msg.Origin, msg.Epoch = n.selfID, n.epochA.Load()
	pc, err := l.client.startChunks(msg, chunks)
	if err != nil {
		<-inflight
		ackBatch(batch, err)
		return
	}
	if !batch[0].isDiscard() {
		atomic.AddInt64(&n.stats.FwdFrames, 1)
	}
	t0 := time.Now()
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		defer func() { <-inflight }()
		resp, err := l.client.wait(pc)
		if err == nil && resp.Type == MsgError {
			err = fmt.Errorf("cluster: forward rejected: %s", resp.Err)
		}
		if err == nil && resp.Type != MsgWriteAck && resp.Type != MsgDiscardAck {
			err = fmt.Errorf("cluster: unexpected forward response %v", resp.Type)
		}
		ackBatch(batch, err)
		// Feed the circuit breaker with the frame's service time: a
		// partner answering, but so slowly that the inflight window stays
		// saturated, eventually trips this link to Degraded just as a dead
		// partner would (failed frames already degrade via the writer).
		if err == nil && !batch[0].isDiscard() && l.brk.observe(int64(time.Since(t0))) {
			atomic.AddInt64(&n.stats.BreakerTrips, 1)
			l.noteForwardFailed()
		}
	}()
}

// gcPressure reports this partner's last gossiped GC pressure.
func (l *peerLink) gcPressure() float64 {
	return math.Float64frombits(l.pressure.Load())
}

// buildBatchMessage coalesces a same-type batch into one wire message
// plus the gather list of page payloads. The entries' data slices are
// never concatenated: they ride to the socket by reference (the frame
// encoder splices them into the writev), which is safe because each
// entry's writer blocks on its ack and so keeps the payload stable until
// the frame is on the wire.
func buildBatchMessage(batch []fwdEntry) (*Message, [][]byte) {
	if batch[0].isDiscard() {
		lpns, stamps, strms := batch[0].lpns, batch[0].stamps, batch[0].strms
		tagged := len(strms) > 0
		for _, e := range batch[1:] {
			if len(e.strms) > 0 {
				tagged = true
			}
		}
		if len(batch) > 1 {
			lpns = append([]int64(nil), lpns...)
			stamps = append([]uint64(nil), stamps...)
			for _, e := range batch[1:] {
				lpns = append(lpns, e.lpns...)
				stamps = append(stamps, e.stamps...)
			}
		}
		if !tagged {
			return &Message{Type: MsgDiscard, LPNs: lpns, Stamps: stamps}, nil
		}
		// Streams must stay parallel to LPNs; entries without tags
		// (trims) pad with the default stream.
		strms = make([]stream.Stream, 0, len(lpns))
		for _, e := range batch {
			if len(e.strms) == len(e.lpns) {
				strms = append(strms, e.strms...)
			} else {
				strms = append(strms, make([]stream.Stream, len(e.lpns))...)
			}
		}
		return &Message{Type: MsgDiscard, LPNs: lpns, Stamps: stamps, Streams: strms}, nil
	}
	if len(batch) == 1 {
		return &Message{Type: MsgWriteFwd, LPNs: batch[0].lpns, Stamps: batch[0].stamps}, [][]byte{batch[0].data}
	}
	var npages int
	for _, e := range batch {
		npages += len(e.lpns)
	}
	lpns := make([]int64, 0, npages)
	stamps := make([]uint64, 0, npages)
	chunks := make([][]byte, 0, len(batch))
	for _, e := range batch {
		lpns = append(lpns, e.lpns...)
		stamps = append(stamps, e.stamps...)
		chunks = append(chunks, e.data)
	}
	return &Message{Type: MsgWriteFwd, LPNs: lpns, Stamps: stamps}, chunks
}

// ackBatch completes every waiting writer in the batch. Discards have no
// waiter; a failed discard only wastes remote memory, never correctness.
func ackBatch(batch []fwdEntry, err error) {
	for _, e := range batch {
		if e.done != nil {
			e.done <- err
		}
	}
}

// drainForwardQueue fails whatever is still queued at link teardown so no
// Write goroutine is left waiting on an ack that will never come.
func (l *peerLink) drainForwardQueue() {
	for {
		select {
		case e := <-l.fwdq:
			ackBatch([]fwdEntry{e}, errNodeClosing)
		default:
			return
		}
	}
}

// enqueueForward queues a write backup on this link and returns its ack
// channel. A momentarily full queue applies backpressure, but only up to
// the write deadline: past it the write is shed with ErrOverloaded rather
// than queueing without bound behind a saturated pipeline. Fails fast
// during shutdown or link removal.
func (l *peerLink) enqueueForward(lpns []int64, stamps []uint64, data []byte) (chan error, error) {
	n := l.n
	done := make(chan error, 1)
	e := fwdEntry{lpns: lpns, stamps: stamps, data: data, done: done}
	select {
	case l.fwdq <- e:
		return done, nil
	case <-l.stop:
		return nil, errPeerRemoved
	case <-n.stop:
		return nil, errNodeClosing
	default:
	}
	t := time.NewTimer(n.cfg.WriteDeadline)
	defer t.Stop()
	select {
	case l.fwdq <- e:
		return done, nil
	case <-t.C:
		atomic.AddInt64(&n.stats.Overloads, 1)
		return nil, ErrOverloaded
	case <-l.stop:
		return nil, errPeerRemoved
	case <-n.stop:
		return nil, errNodeClosing
	}
}

// enqueueDiscard queues an advisory discard. It never blocks: when the
// queue is saturated with write traffic the discard is dropped (counted),
// which only costs remote buffer space until the next overwrite or clean.
func (l *peerLink) enqueueDiscard(lpns []int64, stamps []uint64, strms []stream.Stream) {
	select {
	case l.fwdq <- fwdEntry{lpns: lpns, stamps: stamps, strms: strms}:
	default:
		atomic.AddInt64(&l.n.stats.DiscardDrops, 1)
	}
}
