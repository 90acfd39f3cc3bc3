package cluster

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"
)

// probeBaseDelay floors the prober's pacing so a kicked prober with an
// open dial gate still doesn't spin.
const probeBaseDelay = 20 * time.Millisecond

// maxResyncPasses bounds how many journal generations one rejoin attempt
// drains before resuming cooperative forwarding: concurrent degraded
// writes keep refilling the journal while the stream runs, and a writer
// outpacing the stream must not pin the link in Resyncing forever.
const maxResyncPasses = 8

// resyncJournalLimit caps each link's degraded-write journal (lpn→stamp,
// ~16 bytes an entry). Pages dropped beyond it are counted in JournalDrops
// and simply not resynced — they are durable locally and the stamp guards
// keep the partner from ever serving a staler version.
const resyncJournalLimit = 1 << 18

// journalLinkLocked records one degraded write-through for later resync
// to the given partner. Caller holds n.mu — the mutex makes the insert
// atomic with respect to that link's resync stream's "journal empty →
// flip Healthy" critical section, so no degraded write can slip in
// unjournaled behind the flip. The journal is a set keyed by LPN (the
// stream sends the page's latest durable payload, so overwrites
// coalesce); past resyncJournalLimit new pages are dropped and counted —
// they stay durable locally and the stamp guards keep the partner from
// serving older data, the cluster just loses the warm backup for them.
func (n *LiveNode) journalLinkLocked(l *peerLink, lpn int64, st uint64) {
	if l == nil || l.removed {
		return
	}
	if cur, ok := l.outage[lpn]; ok {
		if st > cur {
			l.outage[lpn] = st
		}
		return
	}
	if len(l.outage) >= resyncJournalLimit {
		atomic.AddInt64(&n.stats.JournalDrops, 1)
		return
	}
	l.outage[lpn] = st
}

// startProber launches this link's background probe loop if it is not
// already running. The prober owns the Degraded/Suspect→Probing→Resyncing
// walk; at most one instance exists per link.
func (l *peerLink) startProber() {
	n := l.n
	n.mu.Lock()
	defer n.mu.Unlock()
	if l.proberRunning || l.removed || n.closing {
		return
	}
	l.proberRunning = true
	l.wg.Add(1)
	go l.probeLoop()
}

// probeLoop re-dials the partner after a failover. It paces itself by the
// peer client's jittered exponential dial backoff (nextDialIn) instead of
// the heartbeat tick, and can be woken early (probeKick) when a heartbeat
// reaches the partner first. On an answered probe it runs the full rejoin
// (resync this link's degraded-write journal, then flip Healthy) and
// exits.
func (l *peerLink) probeLoop() {
	n := l.n
	defer l.wg.Done()
	for {
		d := l.client.nextDialIn()
		if d < probeBaseDelay {
			d = probeBaseDelay
		}
		t := time.NewTimer(d)
		select {
		case <-n.stop:
			t.Stop()
			n.mu.Lock()
			l.proberRunning = false
			n.mu.Unlock()
			return
		case <-l.stop:
			t.Stop()
			n.mu.Lock()
			l.proberRunning = false
			n.mu.Unlock()
			return
		case <-l.probeKick:
			t.Stop()
		case <-t.C:
		}
		n.mu.Lock()
		if l.removed {
			l.proberRunning = false
			n.mu.Unlock()
			return
		}
		if n.poisonedAny.Load() {
			// A poisoned store cannot honor the rejoin contract: resynced
			// backups would be acked without durability behind them. Stay
			// Degraded until the process restarts and recovers from the
			// ring. The latch never clears, so the prober can exit.
			l.proberRunning = false
			n.mu.Unlock()
			return
		}
		switch l.lc.state {
		case StateHealthy:
			// Somebody else (an explicit ConnectPeer) completed the
			// rejoin; exit inside the same critical section that clears
			// proberRunning so a concurrent startProber can't double-run.
			l.proberRunning = false
			n.mu.Unlock()
			return
		case StateDegraded, StateSuspect:
			l.lc.probeStart()
			n.syncAliveLocked()
		default:
			// Probing/Resyncing: a ConnectPeer owns the walk right now;
			// check back shortly.
			n.mu.Unlock()
			continue
		}
		n.mu.Unlock()
		atomic.AddInt64(&n.stats.Probes, 1)
		if _, err := l.client.call(&Message{Type: MsgHeartbeat}); err != nil {
			atomic.AddInt64(&n.stats.ProbeFailures, 1)
			n.mu.Lock()
			// Re-check: a concurrent ConnectPeer may have taken the walk
			// past Probing while our probe was on the wire.
			if l.lc.state == StateProbing {
				l.lc.probeFailed()
				n.syncAliveLocked()
			}
			n.mu.Unlock()
			continue
		}
		_ = l.rejoin()
	}
}

// rejoin walks this link's lifecycle from any failed-over state through
// Resyncing to Healthy: stream the link's degraded-write journal to the
// partner's hold, then resume cooperative buffering. It is shared by the
// prober and by explicit ConnectPeer calls; resyncMu makes sure only one
// walk runs per link.
func (l *peerLink) rejoin() error {
	n := l.n
	l.resyncMu.Lock()
	defer l.resyncMu.Unlock()
	n.mu.Lock()
	if l.removed {
		n.mu.Unlock()
		return errPeerRemoved
	}
	// A first-ever connect walks the same edges but is not a REjoin.
	wasFailedOver := l.lc.failedOver
	switch l.lc.state {
	case StateHealthy:
		n.mu.Unlock()
		return nil
	case StateDegraded, StateSuspect:
		l.lc.probeStart()
	}
	l.lc.probeOK()
	n.syncAliveLocked()
	n.mu.Unlock()
	resumed, err := l.resyncJournal()
	if !resumed {
		atomic.AddInt64(&n.stats.ResyncFailures, 1)
		n.mu.Lock()
		l.lc.resyncFailed()
		n.syncAliveLocked()
		n.mu.Unlock()
		// The journal keeps its unsent pages; the prober retries.
		l.startProber()
		return err
	}
	l.brk.reset()
	if wasFailedOver {
		atomic.AddInt64(&n.stats.Rejoins, 1)
	}
	if err != nil {
		// Cooperative buffering resumed but the post-resume tail push
		// failed; the requeued pages go out on the next rejoin walk.
		atomic.AddInt64(&n.stats.ResyncFailures, 1)
	}
	return nil
}

// resyncJournal drains this link's degraded-write journal to the partner
// and flips the lifecycle back to Healthy. Each pass swaps the journal
// map out whole; writes that go degraded mid-stream land in the fresh map
// and are picked up by the next pass. Under sustained write load the
// journal refills faster than the stream drains it, so after
// maxResyncPasses the link resumes cooperative forwarding anyway — that
// freezes the journal (new writes forward instead of journaling) — and
// pushes the remainder after. The empty-check and the Healthy flip share
// one n.mu critical section so no degraded write can slip between them.
//
// Returns resumed=true once the lifecycle reached Healthy; err carries any
// stream failure (pages already requeued).
func (l *peerLink) resyncJournal() (resumed bool, err error) {
	n := l.n
	ps := n.pageSize
	for phase := 0; phase < 2; phase++ {
		for pass := 0; pass < maxResyncPasses; pass++ {
			n.mu.Lock()
			if len(l.outage) == 0 {
				if !resumed {
					l.lc.resyncDone()
					n.syncAliveLocked()
					resumed = true
				}
				n.mu.Unlock()
				return resumed, nil
			}
			n.mu.Unlock()
			if err := l.sendJournalPass(ps); err != nil {
				return resumed, err
			}
		}
		if !resumed {
			n.mu.Lock()
			l.lc.resyncDone()
			n.syncAliveLocked()
			n.mu.Unlock()
			resumed = true
		}
	}
	// Both phases exhausted with entries still queued (the link re-degraded
	// mid-push and is refilling again); leave them for the next rejoin.
	return resumed, nil
}

// pushJournal drains this link's journal once, outside any lifecycle
// walk: a membership change journals moved pages into their new owners
// and kicks this push so healthy links get warm backups immediately
// instead of waiting for their next failover/rejoin cycle. Lifecycle
// state is untouched — errors simply leave the entries requeued for the
// next push or rejoin. Callers have already done l.wg.Add(1) under n.mu.
func (l *peerLink) pushJournal() {
	defer l.wg.Done()
	l.resyncMu.Lock()
	defer l.resyncMu.Unlock()
	_ = l.sendJournalPass(l.n.pageSize)
}

// sendJournalPass streams one journal generation to the partner in
// MaxBatchPages-sized MsgResync frames under the bulk timeout.
func (l *peerLink) sendJournalPass(ps int) error {
	n := l.n
	lpns, stamps, data := l.takeJournal(ps)
	epoch := n.epochA.Load()
	for off := 0; off < len(lpns); off += n.cfg.MaxBatchPages {
		end := off + n.cfg.MaxBatchPages
		if end > len(lpns) {
			end = len(lpns)
		}
		select {
		case <-n.stop:
			l.requeueJournal(lpns[off:], stamps[off:])
			return errNodeClosing
		case <-l.stop:
			l.requeueJournal(lpns[off:], stamps[off:])
			return errPeerRemoved
		default:
		}
		msg := &Message{
			Type:   MsgResync,
			LPNs:   lpns[off:end],
			Stamps: stamps[off:end],
			Data:   data[off*ps : end*ps],
			Origin: n.selfID,
			Epoch:  epoch,
		}
		resp, err := l.client.callT(msg, n.bulkTimeout())
		if err == nil && resp.Type != MsgResyncAck {
			err = fmt.Errorf("cluster: unexpected resync response %v", resp.Type)
		}
		if err != nil {
			// Put the unacked tail back so no degraded write is lost
			// to a mid-stream reset; the next attempt resends it.
			l.requeueJournal(lpns[off:], stamps[off:])
			return err
		}
		atomic.AddInt64(&n.stats.ResyncedPages, int64(end-off))
	}
	return nil
}

// takeJournal swaps this link's journal map out and snapshots the current
// durable payload and stamp of every journaled page. Pages since trimmed
// (no durable copy) are skipped. The swap is atomic under n.mu; the
// payload snapshot happens after release (the store is internally
// synchronized and copies each page straight into data's tail).
func (l *peerLink) takeJournal(ps int) (lpns []int64, stamps []uint64, data []byte) {
	n := l.n
	n.mu.Lock()
	if len(l.outage) == 0 {
		n.mu.Unlock()
		return nil, nil, nil
	}
	old := l.outage
	l.outage = make(map[int64]uint64)
	n.mu.Unlock()
	for lpn := range old {
		data = slices.Grow(data, ps)
		if !n.store.getInto(lpn, data[len(data):len(data)+ps]) {
			continue
		}
		st, ok := n.store.getStamp(lpn)
		if !ok {
			continue
		}
		lpns = append(lpns, lpn)
		stamps = append(stamps, st)
		data = data[:len(data)+ps]
	}
	return lpns, stamps, data
}

// requeueJournal puts unsent pages back after a failed stream, never
// clobbering a newer entry written in the meantime. It runs only on the
// (resyncMu-serialized) rejoin walk, so it never races the empty-check.
func (l *peerLink) requeueJournal(lpns []int64, stamps []uint64) {
	n := l.n
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, lpn := range lpns {
		if cur, ok := l.outage[lpn]; ok {
			if stamps[i] > cur {
				l.outage[lpn] = stamps[i]
			}
		} else if len(l.outage) >= resyncJournalLimit {
			atomic.AddInt64(&n.stats.JournalDrops, 1)
		} else {
			l.outage[lpn] = stamps[i]
		}
	}
}
