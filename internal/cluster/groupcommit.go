package cluster

import (
	"sync"
	"sync/atomic"
)

// groupCommit is the node's fsync coordinator. With SyncWrites on, every
// per-shard evictor used to end its persist batch by fsyncing its own
// store section — correct, but on a busy node that is one fsync per batch
// per shard, and the fsyncs of different shards never share a pass even
// when they are pending at the same instant. The coordinator moves the
// sync boundary: persistSet enqueues a durable-after request (the section
// to sync plus a completion channel) and a single goroutine coalesces
// everything pending into one batched pass — each distinct section is
// fsynced exactly once per pass, concurrently with its siblings (separate
// files, separate fsync streams), and every waiter completes with its own
// section's outcome.
//
// Ordering is unchanged: a waiter's pages are written to its section
// before the request is enqueued, the pass's fsync starts after the
// request is taken, and fsync covers every prior write to the file — so
// when sync() returns nil the waiter's pages are durable, and the
// discard-after-durable invariant in evictor.go holds exactly as before.
// Under load the win is that N shards' evictors pay one coalesced pass
// (≤ N concurrent fsyncs, shared pass latency) instead of N serialized
// fsync round trips on the same spindle/flash queue.
//
// The coordinator is self-clocking: a pass absorbs whatever queued while
// the previous pass ran and starts immediately, adding no idle latency.
// It runs on every node whose store fsyncs (DataDir with SyncWrites).
type groupCommit struct {
	maxBatch int // requests absorbed into one pass
	reqs     chan syncReq
	stop     <-chan struct{}
	stats    *LiveStats
}

// syncReq is one durable-after request: fsync section, then complete done
// with the outcome. pages is accounting only (pages covered by the
// request's persist batch).
type syncReq struct {
	section section
	pages   int
	done    chan error
}

func newGroupCommit(maxBatch int, stop <-chan struct{}, stats *LiveStats) *groupCommit {
	return &groupCommit{
		maxBatch: maxBatch,
		reqs:     make(chan syncReq, maxBatch),
		stop:     stop,
		stats:    stats,
	}
}

// sync blocks until the coalesced fsync pass covering section (enqueued
// after the caller's puts) completes, and returns that section's fsync
// outcome. During shutdown it fails conservatively with errNodeClosing:
// the caller treats that as a persist failure and keeps its pages pinned.
func (g *groupCommit) sync(sec section, pages int) error {
	r := syncReq{section: sec, pages: pages, done: make(chan error, 1)}
	select {
	case g.reqs <- r:
	case <-g.stop:
		return errNodeClosing
	}
	select {
	case err := <-r.done:
		return err
	case <-g.stop:
		// The coordinator drains and fails queued requests on stop, but a
		// request that raced the stop may never be picked up; don't hang
		// on it. done is buffered, so a late completion is not leaked.
		select {
		case err := <-r.done:
			return err
		default:
			return errNodeClosing
		}
	}
}

// run is the coordinator goroutine: gather a batch (first request blocks,
// then drain everything queued), dispatch the pass, repeat. The gather
// overlaps the previous pass's sync — while pass P's fsyncs are in
// flight, arriving requests accumulate
// into pass P+1 instead of dispatching one thin pass each. That in-flight
// window is what creates real batches under steady load: a sync takes a
// device round trip, many evictors land requests inside it, and the next
// pass covers them all with one fsync per section. Exactly one
// pass is in flight at a time, but evictors still pipeline — each one's
// persist stage for batch k+1 overlaps its sync wait for batch k.
func (g *groupCommit) run(wg *sync.WaitGroup) {
	defer wg.Done()
	batch := make([]syncReq, 0, g.maxBatch)
	// Up to passWindow passes run concurrently. The window is the
	// coordinator's self-tuning knob: while syncs are fast it never
	// fills, every request dispatches immediately, and the store-level
	// generation dedup is all the coalescing needed; when the medium
	// slows down the window fills, gathering overlaps the oldest
	// in-flight pass and real multi-section batches form — batching
	// appears exactly when syncs are expensive enough to be worth
	// batching.
	var inflight []<-chan struct{}
	for {
		batch = batch[:0]
		select {
		case r := <-g.reqs:
			batch = append(batch, r)
		case <-g.stop:
			g.drainFailed()
			return
		}
	drain:
		for len(batch) < g.maxBatch {
			select {
			case r := <-g.reqs:
				batch = append(batch, r)
			default:
				break drain
			}
		}
		for len(inflight) >= passWindow {
			rc := g.reqs
			if len(batch) >= g.maxBatch {
				rc = nil // full: stop gathering, wait out the pass (reqs buffers)
			}
			select {
			case r := <-rc:
				batch = append(batch, r)
			case <-inflight[0]:
				inflight = inflight[1:]
			case <-g.stop:
				for _, r := range batch {
					r.done <- errNodeClosing
				}
				g.drainFailed()
				return
			}
		}
		// Reap already-settled passes so the window reflects only passes
		// still in flight.
		for len(inflight) > 0 {
			select {
			case <-inflight[0]:
				inflight = inflight[1:]
				continue
			default:
			}
			break
		}
		inflight = append(inflight, g.pass(batch))
	}
}

// passWindow caps concurrently in-flight fsync passes. See run: small
// enough that a slow medium fills it and forces coalescing, large enough
// that a fast medium never queues behind it.
const passWindow = 4

// pass dispatches one coalesced fsync: group the batch's waiters by store
// section, fsync every distinct section once (concurrently; they are
// independent files), and complete every waiter with its section's
// error. It does not wait for the fsyncs itself; the returned
// channel closes when the pass has settled, and run() uses it to gather
// the next batch for exactly that long.
func (g *groupCommit) pass(batch []syncReq) <-chan struct{} {
	var pages int64
	for _, r := range batch {
		pages += int64(r.pages)
	}
	atomic.AddInt64(&g.stats.GroupCommitBatches, 1)
	atomic.AddInt64(&g.stats.PagesSynced, pages)
	settled := make(chan struct{})
	if len(batch) == 1 {
		r := batch[0]
		go func() {
			defer close(settled)
			r.done <- r.section.flush()
		}()
		return settled
	}
	works := make([]sectionWork, 0, len(batch))
	idx := make(map[section]int, len(batch))
	for _, r := range batch {
		i, ok := idx[r.section]
		if !ok {
			i = len(works)
			idx[r.section] = i
			works = append(works, sectionWork{section: r.section})
		}
		works[i].reqs = append(works[i].reqs, r)
	}
	var workers sync.WaitGroup
	for i := range works {
		w := works[i]
		workers.Add(1)
		go func() {
			defer workers.Done()
			w.complete(w.section.flush())
		}()
	}
	go func() {
		workers.Wait()
		close(settled)
	}()
	return settled
}

// sectionWork is one distinct section's share of a pass.
type sectionWork struct {
	section section
	reqs    []syncReq
}

func (w sectionWork) complete(err error) {
	for _, r := range w.reqs {
		r.done <- err
	}
}

// drainFailed fails every request still queued when the node stopped, so
// no evictor is left waiting on a pass that will never run.
func (g *groupCommit) drainFailed() {
	for {
		select {
		case r := <-g.reqs:
			r.done <- errNodeClosing
		default:
			return
		}
	}
}
