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

// fwdFrame is one forward frame: the queued entries it carries, the wire
// message and payload gather list built from them, and the pipeline call
// that sends it. A link recycles its frames through a free list once they
// are acked (see newFrame), so steady-state forwarding allocates no
// message, call, channel or slice per frame.
type fwdFrame struct {
	batch  []fwdEntry
	pages  int
	msg    Message
	lpns   []int64 // msg.LPNs of a multi-entry frame
	stamps []uint64
	strms  []stream.Stream
	chunks [][]byte
	pc     peerCall
	t0     time.Time
}

func (f *fwdFrame) add(e fwdEntry) {
	f.batch = append(f.batch, e)
	f.pages += len(e.lpns)
}

func (f *fwdFrame) isDiscard() bool { return f.batch[0].isDiscard() }

// newFrame takes an empty frame from the link's free list, allocating one
// only when the list is empty.
func (l *peerLink) newFrame() *fwdFrame {
	select {
	case f := <-l.frames:
		return f
	default:
		return &fwdFrame{pc: peerCall{done: make(chan struct{}, 1)}}
	}
}

// recycleFrame empties an acked frame, dropping every reference into its
// entries, and returns it to the free list. Only frames whose call
// completed with a response are recycled: that response orders the
// completion after the encoder's last read of the frame (see
// peerSession.sent), while a failed call's frame may still be on its way
// through a dying write loop, so it is left to the collector.
func (l *peerLink) recycleFrame(f *fwdFrame) {
	clear(f.batch)
	clear(f.chunks)
	f.batch, f.chunks, f.pages = f.batch[:0], f.chunks[:0], 0
	f.msg = Message{}
	f.pc.msg, f.pc.chunks, f.pc.sess, f.pc.resp = nil, nil, nil, Message{}
	select {
	case l.frames <- f:
	default:
	}
}

// forwardLoop is a link's single forwarder goroutine: every partner gets
// its own instance, queue, and in-flight window. It drains the link's
// forward queue, group-commits entries into frames (amortizing frames,
// syscalls, and peer round trips across concurrent writers), and keeps up
// to MaxInflight frames on the wire — batch k+1 is sent while batch k's
// ack is still pending. Each sent frame goes to the link's completion
// goroutine (completeLoop), which waits for the acks in send order.
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
func (l *peerLink) forwardLoop(inflight chan struct{}) {
	n := l.n
	defer l.wg.Done()
	defer close(l.sent)
	writes, discards := l.newFrame(), l.newFrame()
	discardDefers := 0
	add := func(e fwdEntry) {
		if e.isDiscard() {
			discards.add(e)
		} else {
			writes.add(e)
		}
	}
	abort := func() {
		ackBatch(writes.batch, errNodeClosing)
		ackBatch(discards.batch, errNodeClosing)
		l.drainForwardQueue()
	}
	for {
		if writes.pages == 0 && discards.pages == 0 {
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
		for writes.pages < n.cfg.MaxBatchPages && discards.pages < n.cfg.MaxBatchPages {
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
		if writes.pages > 0 && discards.pages < n.cfg.MaxBatchPages {
			l.sendFrame(writes, inflight)
			writes = l.newFrame()
			continue
		}
		// GC-aware deferral of the non-urgent stream: while THIS partner
		// reports GC pressure, a below-cap discard-only batch is held back
		// so the advisory traffic does not land on an FTL busy reclaiming.
		// The hold is bounded (a few ticks, then it ships regardless) and
		// a full batch always ships, so discard lag stays bounded by the
		// same MaxBatchPages cap as before; correctness never depends on
		// discard timing — they only free remote buffer space.
		if discards.pages < n.cfg.MaxBatchPages && discardDefers < maxDiscardDefers &&
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
		l.sendFrame(discards, inflight)
		discards = l.newFrame()
		discardDefers = 0
	}
}

// maxDiscardDefers bounds how many consecutive backoff ticks a discard
// batch may wait out a GC-busy partner before shipping anyway.
const maxDiscardDefers = 8

// sendFrame builds one coalesced frame, starts it on the pipeline, and
// hands it to the link's completion goroutine so the forwarder can keep
// batching. The caller holds an in-flight slot, which completion returns.
func (l *peerLink) sendFrame(f *fwdFrame, inflight chan struct{}) {
	n := l.n
	f.build()
	// Every frame carries the sender's identity and ownership epoch so the
	// receiver files backups per origin and rejects frames routed under a
	// stale layout.
	f.msg.Origin, f.msg.Epoch = n.selfID, n.epochA.Load()
	f.pc.msg, f.pc.chunks = &f.msg, f.chunks
	if err := l.client.startCall(&f.pc); err != nil {
		<-inflight
		ackBatch(f.batch, err)
		return
	}
	if !f.isDiscard() {
		atomic.AddInt64(&n.stats.FwdFrames, 1)
	}
	f.t0 = time.Now()
	l.sent <- f
}

// completeLoop is the link's one completion goroutine. It takes the
// frames the forwarder sent, in send order, and waits for each ack on one
// reusable timer: the partner serves a connection's requests one at a
// time, so replies arrive in order and the head of the queue is always
// the next to finish. Completion then acks the frame's writers, feeds the
// breaker, frees the in-flight slot and recycles the frame.
//
// Keeping this off the connection's read loop is deliberate (completing
// in the read loop via a callback was tried and measured slower): the
// acks make a crowd of writers runnable right before the read loop
// re-enters a blocking read, and on a small GOMAXPROCS they all wait out
// the syscall handoff. One long-lived goroutine per link keeps the fan-out
// off the read loop's critical path without spawning one per frame.
func (l *peerLink) completeLoop(inflight chan struct{}) {
	n := l.n
	defer l.wg.Done()
	t := time.NewTimer(time.Hour)
	t.Stop()
	for f := range l.sent {
		resp, err := awaitCall(&f.pc, f.t0.Add(l.client.timeout), t)
		if err == nil && resp.Type != MsgWriteAck && resp.Type != MsgDiscardAck {
			err = fmt.Errorf("cluster: unexpected forward response %v", resp.Type)
		}
		ackBatch(f.batch, err)
		// Feed the circuit breaker with the frame's service time: a
		// partner answering, but so slowly that the inflight window stays
		// saturated, eventually trips this link to Degraded just as a dead
		// partner would (failed frames already degrade via the writer).
		// The trip's failover flushes the whole buffer, so it runs beside
		// this loop rather than stalling the acks behind it; the trip is
		// counted once its lifecycle transition has been applied.
		if err == nil && !f.isDiscard() && l.brk.observe(int64(time.Since(f.t0))) {
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				l.noteForwardFailed()
				atomic.AddInt64(&n.stats.BreakerTrips, 1)
			}()
		}
		<-inflight
		if err == nil {
			l.recycleFrame(f)
		}
	}
}

// gcPressure reports this partner's last gossiped GC pressure.
func (l *peerLink) gcPressure() float64 {
	return math.Float64frombits(l.pressure.Load())
}

// build coalesces the frame's same-type batch into its wire message plus
// the gather list of page payloads, reusing the frame's slices. A single
// entry's LPNs and stamps ride as they are; the entries' data slices are
// never concatenated: they ride to the socket by reference (the frame
// encoder splices them into the writev), which is safe because each
// entry's writer blocks on its ack and so keeps the payload stable until
// the frame is on the wire.
func (f *fwdFrame) build() {
	f.msg = Message{Type: MsgWriteFwd}
	if f.isDiscard() {
		f.msg.Type = MsgDiscard
	}
	if len(f.batch) == 1 {
		f.msg.LPNs, f.msg.Stamps = f.batch[0].lpns, f.batch[0].stamps
	} else {
		f.lpns, f.stamps = f.lpns[:0], f.stamps[:0]
		for _, e := range f.batch {
			f.lpns = append(f.lpns, e.lpns...)
			f.stamps = append(f.stamps, e.stamps...)
		}
		f.msg.LPNs, f.msg.Stamps = f.lpns, f.stamps
	}
	if !f.isDiscard() {
		for _, e := range f.batch {
			f.chunks = append(f.chunks, e.data)
		}
		return
	}
	tagged := false
	for _, e := range f.batch {
		tagged = tagged || len(e.strms) > 0
	}
	if !tagged {
		return
	}
	// Streams must stay parallel to LPNs; entries without tags (trims)
	// pad with the default stream.
	f.strms = f.strms[:0]
	for _, e := range f.batch {
		if len(e.strms) == len(e.lpns) {
			f.strms = append(f.strms, e.strms...)
		} else {
			f.strms = append(f.strms, make([]stream.Stream, len(e.lpns))...)
		}
	}
	f.msg.Streams = f.strms
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
			if e.done != nil {
				e.done <- errNodeClosing
			}
		default:
			return
		}
	}
}

// enqueueForward queues a write backup on this link; its ack arrives on
// done, which must be empty with room for one value. A momentarily full
// queue applies backpressure, but only up to the write deadline: past it
// the write is shed with ErrOverloaded rather than queueing without bound
// behind a saturated pipeline. Fails fast during shutdown or link removal.
func (l *peerLink) enqueueForward(lpns []int64, stamps []uint64, data []byte, done chan error) error {
	n := l.n
	e := fwdEntry{lpns: lpns, stamps: stamps, data: data, done: done}
	select {
	case l.fwdq <- e:
		return nil
	case <-l.stop:
		return errPeerRemoved
	case <-n.stop:
		return errNodeClosing
	default:
	}
	t := time.NewTimer(n.cfg.WriteDeadline)
	defer t.Stop()
	select {
	case l.fwdq <- e:
		return nil
	case <-t.C:
		atomic.AddInt64(&n.stats.Overloads, 1)
		return ErrOverloaded
	case <-l.stop:
		return errPeerRemoved
	case <-n.stop:
		return errNodeClosing
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
