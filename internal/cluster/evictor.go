package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flashcoop/internal/buffer"
	"flashcoop/internal/stream"
)

// flushPage is one evicted page travelling through the flush pipeline:
// the payload buffer is owned by the job carrying it (and recycled into
// the page pool once the pipeline is done with it), and the stamp
// identifies exactly which version was evicted. The same struct is the
// value of a shard's inflight map — "pinned dirty" pages that have left
// the cache but are not durable yet. strm is the temperature tag the
// evicting policy derived for the page's flush unit; it rides along to
// the device write (multi-stream segregation) and onto the discard frame
// the partner receives once the page is durable.
type flushPage struct {
	lpn   int64
	data  []byte
	stamp uint64
	strm  stream.Stream
	// pop is the evicting block's observed popularity (the policy's reuse
	// signal, see buffer.FlushUnit.Pop); the victim tier's admission gate
	// reads it at persist time.
	pop int64
}

// flushJob is one eviction unit handed to a shard's evictor goroutine.
type flushJob struct {
	pages []flushPage
}

// evictBatchJobs caps how many queued jobs one evictor iteration absorbs
// into a single batched persist (one device burst + one store flush). The
// configured queue depth caps the batch too: EvictQueue is the knob for
// how far durability may lag eviction, and letting a batch absorb blocked
// writers past the queue depth would quietly widen that window.
const evictBatchJobs = 16

// syncStageDepth is the per-shard buffer between the evictor's persist
// stage and its sync stage. Deeper than one slot so that a slow fsync
// accumulates persisted batches behind it, which the sync stage then
// settles with a single section sync; it also caps how far durability may
// lag beyond the EvictQueue bound, so it stays small.
const syncStageDepth = 4

// extractFlushLocked turns the flush units of one Access into evictor
// jobs. The caller holds the shard lock. Each evicted dirty page moves
// from the shard's dirty map into its inflight map — still visible to
// reads and crash-recovery snapshots, no longer re-writable in place —
// and its payload buffer changes owner to the returned job. An eviction
// of a page whose older version is already in flight simply replaces the
// map entry: the older job detects the stamp mismatch when it runs and
// recycles its buffer without persisting.
func (n *LiveNode) extractFlushLocked(sh *liveShard, units []buffer.FlushUnit) []flushJob {
	var jobs []flushJob
	for _, u := range units {
		strm := u.Stream
		if n.cfg.DisableStreams {
			strm = stream.Warm // baseline mode: one shared frontier
		}
		var job flushJob
		for _, p := range u.Pages {
			data, ok := sh.dirtyData[p]
			if !ok {
				continue // clean page in a rewritten block: nothing to persist
			}
			fp := flushPage{lpn: p, data: data, stamp: sh.dirtyStamp[p], strm: strm, pop: u.Pop}
			delete(sh.dirtyData, p)
			delete(sh.dirtyStamp, p)
			sh.inflight[p] = fp
			job.pages = append(job.pages, fp)
		}
		if len(job.pages) > 0 {
			jobs = append(jobs, job)
		}
	}
	return jobs
}

// enqueueFlush hands eviction jobs to the shard's evictor. It must be
// called after the shard lock is released (the evictor takes that lock to
// persist). A full queue applies backpressure: the writer blocks until
// the evictor drains a slot, which is the bound on how much evicted-but-
// volatile data can pile up. During shutdown the jobs are abandoned —
// Close's FlushAll persists the pinned pages synchronously, and after a
// Crash they are lost exactly like the rest of RAM.
func (n *LiveNode) enqueueFlush(si int, jobs []flushJob) {
	sh := &n.shards[si]
	for _, j := range jobs {
		select {
		case sh.evictq <- j:
			continue
		default:
		}
		atomic.AddInt64(&n.stats.EvictorStalls, 1)
		select {
		case sh.evictq <- j:
		case <-n.stop:
			return
		}
	}
}

// evictLoop is shard si's background evictor. One goroutine per shard
// keeps per-page persist order FIFO within the shard (pages never change
// shards), while separate shards flush — and with a file-backed store,
// fsync — concurrently.
//
// The flush pipeline within a shard has two overlapped stages: this loop
// runs batch persists (the device burst and store puts), and a companion
// sync goroutine runs the durable-after fsyncs plus the unpin / discard
// bookkeeping that must wait for them. The channel between them lets
// batch k+1's device writes run while batch k's fsync is in flight, and
// the sync stage drains every batch queued behind a slow fsync and covers
// them all with ONE section sync — each drained batch's puts finished
// before the sync starts, so the single fsync settles the lot. The slower
// the medium gets, the more batches share a sync: the per-shard fsync
// rate degrades gracefully instead of multiplying the slowdown by the
// batch count. At most syncStageDepth persisted-but-unsynced batches
// exist per shard beyond the eviction queue, so the durability lag
// EvictQueue bounds grows by at most that many batches.
func (n *LiveNode) evictLoop(si int) {
	defer n.wg.Done()
	sh := &n.shards[si]
	// The sync stage drains even during shutdown (syncSection fails fast
	// once n.stop closes), so this send never deadlocks; closing the
	// channel lets the syncer exit once the last batch completes.
	syncq := make(chan persistedBatch, syncStageDepth)
	var syncWG sync.WaitGroup
	syncWG.Add(1)
	go func() {
		defer syncWG.Done()
		batches := make([]persistedBatch, 0, syncStageDepth+1)
		for b := range syncq {
			batches = append(batches[:0], b)
		gather:
			for len(batches) < cap(batches) {
				select {
				case b2, ok := <-syncq:
					if !ok {
						break gather // closed mid-drain: settle what we hold
					}
					batches = append(batches, b2)
				default:
					break gather
				}
			}
			n.completeBatches(si, batches)
		}
	}()
	defer func() {
		close(syncq)
		syncWG.Wait()
	}()
	for {
		select {
		case <-n.stop:
			return
		case j := <-sh.evictq:
			batchCap := evictBatchJobs
			if q := cap(sh.evictq); q < batchCap {
				batchCap = q
			}
			jobs := append(make([]flushJob, 0, batchCap), j)
		drain:
			for len(jobs) < batchCap {
				select {
				case j2 := <-sh.evictq:
					jobs = append(jobs, j2)
				default:
					break drain
				}
			}
			n.maybeDeferDrain(si)
			syncq <- n.persistJobs(si, jobs)
		}
	}
}

// GC-aware drain scheduling. At GC pressure of gcDeferThreshold or more,
// a shard evictor pauses one gcDrainBackoff before a batch (see
// maybeDeferDrain), and a forwarder holds a below-cap discard-only batch
// for up to maxDiscardDefers backoffs while its partner reports that
// pressure.
const (
	gcDeferThreshold = 0.75
	gcDrainBackoff   = 500 * time.Microsecond
)

// maybeDeferDrain is the evictor's GC-aware drain scheduling: when the
// local FTL reports pressure at or above gcDeferThreshold AND the
// shard's eviction queue is under half full (no writer is anywhere near
// backpressure), the drain pauses for one gcDrainBackoff and donates the
// pause to the device as background-GC budget, so the FTL digests its
// reclaim debt before the next flush burst lands on it. The deferral is a
// single bounded pause per batch — never a loop — so the durability lag
// stays capped by EvictQueue + syncStageDepth exactly as without it, just
// shifted by at most one backoff. Backpressure always wins: a filling
// queue skips the pause entirely.
func (n *LiveNode) maybeDeferDrain(si int) {
	sh := &n.shards[si]
	if len(sh.evictq) > cap(sh.evictq)/2 {
		return
	}
	if n.localGCPressure() < gcDeferThreshold {
		return
	}
	atomic.AddInt64(&n.stats.DrainDeferrals, 1)
	t := time.NewTimer(gcDrainBackoff)
	defer t.Stop()
	select {
	case <-t.C:
	case <-n.stop:
		return
	}
	// Grant the FTL the window we just waited out for background reclaim,
	// and refresh the pressure reading it produced.
	n.devMu.Lock()
	_, _ = n.dev.MaintainBefore(n.vnow(), 0)
	n.refreshGCPressureLocked()
	n.devMu.Unlock()
}

// persistedBatch carries one batch between the evictor's persist stage
// and its sync stage: the original jobs (whose buffers the sync stage
// recycles), the stamp-matched items that were persisted, and the
// persist outcome so far.
type persistedBatch struct {
	jobs  []flushJob
	items []flushPage
	done  []flushPage
	err   error
}

// persistJobs is the evictor pipeline's first stage: under the shard's
// persistMu it stamp-filters the jobs' pages against the inflight map
// (pages superseded, trimmed, or already persisted by FlushAll drop out
// here) and runs the device burst plus the stamp-guarded store puts. It
// takes the shard data lock only for the brief filter pass, so the shard
// keeps serving reads and writes — including reads of the very pages
// being flushed, out of the inflight map — while the device writes run.
// The durable-after fsync is NOT part of this stage: the returned batch
// must go through completeBatches, and nothing is unpinned or discarded
// until then.
func (n *LiveNode) persistJobs(si int, jobs []flushJob) persistedBatch {
	sh := &n.shards[si]
	sh.persistMu.Lock()
	n.buf.LockShard(si)
	var items []flushPage
	for _, j := range jobs {
		for _, fp := range j.pages {
			if cur, ok := sh.inflight[fp.lpn]; ok && cur.stamp == fp.stamp {
				items = append(items, fp)
			}
		}
	}
	n.buf.UnlockShard(si)
	done, err := n.persistSet(items, false, true)
	sh.persistMu.Unlock()
	return persistedBatch{jobs: jobs, items: items, done: done, err: err}
}

// completeBatches is the evictor pipeline's second stage: one durable-
// after sync covers every batch drained from the stage queue — all their
// puts finished before the sync starts, so a single section fsync settles
// the whole set — then each batch runs its unpin / discard / recycle tail
// with the shared sync outcome. The sync runs with persistMu released —
// the puts were ordered while the lock was held (guard-then-put was
// atomic under it), and waiting under the lock would stall the next
// batch's device writes behind this sync, which is exactly the overlap
// the pipeline exists for. Pages are only unpinned after the covering
// fsync, and discards go out only after that too — the partner must never
// drop a backup whose page is not durable here (the DiscardSafety
// invariant).
func (n *LiveNode) completeBatches(si int, batches []persistedBatch) {
	var anchor int64
	pages := 0
	for i := range batches {
		if len(batches[i].done) > 0 {
			anchor = batches[i].done[0].lpn
			pages += len(batches[i].done)
		}
	}
	var ferr error
	if pages > 0 {
		// All of one shard's persists land in one store section, so any
		// done page anchors the sync for every batch in the set.
		ferr = n.syncSection(anchor, pages)
	}
	for i := range batches {
		n.finishBatch(si, batches[i], ferr)
	}
}

// finishBatch runs one batch's post-sync bookkeeping. A persist or sync
// error leaves the affected pages pinned in the inflight map (still
// readable, retried by the next FlushAll) rather than dropping them on
// the floor — except a typed ErrSyncPoisoned, which is permanent: the
// section's fsync failed once, so the kernel may already have dropped
// dirty pages and a "successful" retry would prove nothing (fsyncgate).
// The store latched the poison and its onPoison hook is already driving
// the lifecycle to Degraded (scrub.go); here we only count the failure
// and keep the pages pinned so they stay readable from the buffer —
// their backups at the ring holders are the surviving durable copies.
func (n *LiveNode) finishBatch(si int, b persistedBatch, ferr error) {
	sh := &n.shards[si]
	jobs, done, err := b.jobs, b.done, b.err
	if ferr != nil {
		// The fsync outcome is unknown, so none of the batch is provably
		// durable; keep every page pinned for retry.
		done = nil
		if err == nil {
			err = ferr
		}
	}
	if err != nil {
		atomic.AddInt64(&n.stats.PersistFailures, 1)
		if errors.Is(err, ErrSyncPoisoned) {
			// No point waking the drain scheduler for a retry that the
			// poisoned section will reject at the put gate; the next
			// FlushAll fails fast instead of re-running device writes.
			atomic.AddInt64(&n.stats.PoisonedEvictions, int64(len(b.items)))
		}
	}

	sh.persistMu.Lock()
	n.buf.LockShard(si)
	flushed := make([]int64, 0, len(done))
	stamps := make([]uint64, 0, len(done))
	strms := make([]stream.Stream, 0, len(done))
	for _, fp := range done {
		// The entry may have been replaced by a newer eviction of the
		// same page while we persisted; only unpin our own version.
		if cur, ok := sh.inflight[fp.lpn]; ok && cur.stamp == fp.stamp {
			delete(sh.inflight, fp.lpn)
		}
		flushed = append(flushed, fp.lpn)
		stamps = append(stamps, fp.stamp)
		strms = append(strms, fp.strm)
	}
	// A job buffer is recyclable unless its page is still pinned (persist
	// failed and the entry was kept for retry).
	var recycle [][]byte
	for _, j := range jobs {
		for _, fp := range j.pages {
			if cur, ok := sh.inflight[fp.lpn]; ok && cur.stamp == fp.stamp {
				continue
			}
			recycle = append(recycle, fp.data)
		}
	}
	n.buf.UnlockShard(si)
	sh.persistMu.Unlock()
	if len(flushed) > 0 {
		n.enqueueDiscardRouted(flushed, stamps, strms)
	}
	for _, pg := range recycle {
		n.putPage(pg)
	}
}

// persistSet makes a set of pages durable: one device write per
// contiguous run (the batched sequential flush LAR's block eviction is
// designed for), a stamp-guarded batched store put per run, and a single
// durable-after sync for the whole set. The caller holds the persistMu of
// the shard every item belongs to, which is what makes the guard-then-put
// atomic.
//
// The stamp guard skips pages whose durable copy is already at an equal
// or newer version — that makes double persists idempotent and stops a
// lagging eviction from rolling back a page that degraded write-through
// (or a later eviction) persisted first. Skipped pages count as done.
//
// The sync boundary goes through syncSection: with the group-commit
// coordinator running, this batch's fsync coalesces with every other
// shard's pending sync into one pass (see groupcommit.go). syncAfter
// false skips every sync (including on error paths) — the caller owns
// the durable-after boundary and must call syncSection itself before
// treating any returned item as durable; persistJobs uses this so the
// evictor's sync stage can wait for the fsync outside persistMu.
//
// The victim tier's bookkeeping is centralized here because this is the
// one choke point every durable page mutation on the eviction/flush path
// goes through (the caller holds persistMu). With admit true (the evictor
// path, where items carry a real reuse signal) each item to be written is
// OFFERED to the tier — admitted pages enter the victim log in addition
// to their home write, bypassed ones only invalidate any stale cached
// version. With admit false (FlushAll, degraded write-through — shutdown
// and latency paths whose pages carry no eviction heat) every item just
// invalidates. The victim op runs BEFORE the home write: inserting early
// is safe (the payload is acked data; only staleness is a hazard), and it
// closes the window where a reader could probe the tier between the store
// put and a late invalidate and see the superseded version. Stamp-skipped
// items invalidate too — the durable copy is at least as new as the skip
// stamp, so any strictly-older cached entry is stale.
//
// Returns the items now known durable (with syncAfter) or persisted
// pending sync (without); on error the remainder was not persisted and
// stays the caller's responsibility.
func (n *LiveNode) persistSet(items []flushPage, syncAfter, admit bool) (done []flushPage, err error) {
	if len(items) == 0 {
		return nil, nil
	}
	// All items live in one shard, so only that shard's store section
	// needs syncing; a full-store flush here would serialize every
	// evictor's fsync stream on every other's.
	anchor := items[0].lpn
	flush := func() error {
		if !syncAfter {
			return nil
		}
		return n.syncSection(anchor, len(items))
	}
	sort.Slice(items, func(i, j int) bool { return items[i].lpn < items[j].lpn })
	toWrite := items[:0:0]
	for _, it := range items {
		if cur, ok := n.store.getStamp(it.lpn); ok && cur >= it.stamp {
			if n.victim != nil {
				n.victim.InvalidateOlder(it.lpn, it.stamp)
			}
			done = append(done, it)
			continue
		}
		toWrite = append(toWrite, it)
	}
	if n.victim != nil {
		for _, it := range toWrite {
			if admit {
				// Offer errors are internal flash-model faults, already
				// counted by the tier; the home persist must not fail over a
				// cache problem.
				if adm, _ := n.victim.Offer(it.lpn, it.stamp, it.strm, it.pop, it.data); adm {
					n.paceVictim(n.victimProgSvc)
				}
			} else {
				n.victim.InvalidateOlder(it.lpn, it.stamp)
			}
		}
	}
	// The put slices run parallel to toWrite; each device run below
	// stores its sub-slice in one putRun.
	lpns := make([]int64, len(toWrite))
	data := make([][]byte, len(toWrite))
	stamps := make([]uint64, len(toWrite))
	for k, it := range toWrite {
		lpns[k], data[k], stamps[k] = it.lpn, it.data, it.stamp
	}
	for i := 0; i < len(toWrite); {
		// A device run breaks on a stream boundary as well as an LPN gap:
		// one tagged write lands whole in its stream's active block, so a
		// run mixing temperatures would silently merge frontiers.
		j := i + 1
		for j < len(toWrite) && toWrite[j].lpn == toWrite[j-1].lpn+1 && toWrite[j].strm == toWrite[i].strm {
			j++
		}
		n.devMu.Lock()
		wdone, derr := n.dev.WriteTagged(n.vnow(), toWrite[i].lpn, j-i, toWrite[i].strm)
		n.refreshGCPressureLocked()
		n.devMu.Unlock()
		if derr != nil {
			flush()
			return done, fmt.Errorf("cluster %s: persist lpn %d: %w", n.cfg.Name, toWrite[i].lpn, derr)
		}
		// Paced flushes slow the evictor, fill the buffer/evict queue, and
		// land on writers as admission backpressure — the closed loop that
		// keeps the device model's backlog bounded.
		n.paceDevice(wdone)
		if perr := n.store.putRun(lpns[i:j], data[i:j], stamps[i:j]); perr != nil {
			flush()
			return done, perr
		}
		atomic.AddInt64(&n.stats.Persists, int64(j-i))
		done = append(done, toWrite[i:j]...)
		if n.victim != nil {
			// Second half of the fill-admission handshake (see offerFill):
			// re-invalidate AFTER the store mutation so a read fill that
			// admitted the prior version between our pre-put victim op and
			// the put itself cannot strand stale data. Items this persist
			// admitted carry this same stamp and survive (the invalidate is
			// strictly-older-only).
			for k := i; k < j; k++ {
				n.victim.InvalidateOlder(toWrite[k].lpn, toWrite[k].stamp)
			}
		}
		i = j
	}
	if ferr := flush(); ferr != nil {
		return done, ferr
	}
	return done, nil
}
