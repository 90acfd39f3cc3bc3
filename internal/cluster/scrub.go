package cluster

import (
	"sort"
	"sync/atomic"
	"time"

	"flashcoop/internal/stream"
)

// Storage-integrity runtime: this file owns the node-side half of the
// checksummed page store — queueing corrupt pages for repair from ring
// holders (MsgRepair/MsgRepairResp), the background scrubber that walks
// store slots re-verifying checksums, and the fsync-poison watcher that
// drives the lifecycle to Degraded when a store section can no longer
// sync (see ErrSyncPoisoned in pagestore.go).

const (
	// scrubBatchSlots bounds how many records one scrub step verifies
	// under the store lock.
	scrubBatchSlots = 128
	// repairRetryInterval paces retries for queued repairs whose holders
	// were unreachable (or not yet connected) on the previous sweep.
	repairRetryInterval = 250 * time.Millisecond
)

// initIntegrity wires the store's corruption/poison hooks into the node
// and starts the repair, poison-watcher, and (if configured) scrubber
// goroutines. It must run before the evictors and the serve loop start:
// the hooks fire from flush/get deep inside persist critical sections.
func (n *LiveNode) initIntegrity() {
	n.repairSet = make(map[int64]struct{})
	n.repairKick = make(chan struct{}, 1)
	subs := n.store.files
	if len(subs) == 0 {
		return // in-memory store: nothing to corrupt, poison, or scrub
	}
	// The poison hook can fire under persistMu + a shard lock (a degraded
	// write-through's flush), and degrading the lifecycle takes n.mu and
	// calls FlushAll — so propagation MUST be asynchronous through this
	// channel or it would deadlock on the locks its caller holds.
	n.poisonCh = make(chan error, len(subs))
	for _, sub := range subs {
		sub.onCorrupt = n.noteCorrupt
		sub.onPoison = n.notePoisoned
	}
	// Records that failed verification during the open-time scan: the
	// stores already counted them; mirror the total and queue the ones
	// whose self-described LPN survived as repair candidates.
	atomic.StoreInt64(&n.stats.CorruptSlots, n.store.corruptCount())
	n.queueRepair(n.store.takeCorrupt())
	n.wg.Add(2)
	go n.poisonLoop()
	go n.repairLoop()
	if n.cfg.ScrubInterval > 0 {
		n.wg.Add(1)
		go n.scrubLoop(subs)
	}
}

// noteCorrupt is the store's onCorrupt hook: count it and queue the page
// for repair from its ring holders.
func (n *LiveNode) noteCorrupt(lpn int64) {
	atomic.AddInt64(&n.stats.CorruptSlots, 1)
	n.queueRepair([]int64{lpn})
}

// notePoisoned is the store's onPoison hook (fires once per section). It
// only records and signals; the heavy lifting happens on poisonLoop's
// goroutine because the hook may run under persist locks.
func (n *LiveNode) notePoisoned(err error) {
	atomic.AddInt64(&n.stats.FsyncPoisoned, 1)
	n.poisonedAny.Store(true)
	select {
	case n.poisonCh <- err:
	default:
	}
}

// queueRepair adds pages to the dedup'd repair queue and wakes the
// repair goroutine.
func (n *LiveNode) queueRepair(lpns []int64) {
	if len(lpns) == 0 {
		return
	}
	n.repairMu.Lock()
	for _, lpn := range lpns {
		n.repairSet[lpn] = struct{}{}
	}
	n.repairMu.Unlock()
	select {
	case n.repairKick <- struct{}{}:
	default:
	}
}

// clearRepair removes lpn from the repair queue, reporting whether it was
// queued — the signal recovery uses to count an applied backup as a
// repair.
func (n *LiveNode) clearRepair(lpn int64) bool {
	n.repairMu.Lock()
	_, ok := n.repairSet[lpn]
	if ok {
		delete(n.repairSet, lpn)
	}
	n.repairMu.Unlock()
	return ok
}

// RepairQueueLen reports how many pages are waiting for ring repair.
func (n *LiveNode) RepairQueueLen() int {
	n.repairMu.Lock()
	defer n.repairMu.Unlock()
	return len(n.repairSet)
}

// poisonLoop turns fsync-poison events into lifecycle Degraded: a node
// that cannot make its store durable must stop acking cooperative writes
// (the poisoned sections already fail puts), and failing the links over
// keeps every existing backup protected at its holders until an operator
// replaces the medium or restarts the node.
func (n *LiveNode) poisonLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		case <-n.poisonCh:
			n.degradeForPoison()
		}
	}
}

// degradeForPoison feeds every link the same event a failed forward
// would: Healthy links fail over (flush what still can be flushed, keep
// journaling), already-degraded ones stay put.
func (n *LiveNode) degradeForPoison() {
	for _, l := range n.linksSnapshot() {
		n.mu.Lock()
		if l.removed {
			n.mu.Unlock()
			continue
		}
		act := l.lc.forwardFailed()
		n.syncAliveLocked()
		n.mu.Unlock()
		n.applyLinkAction(l, act)
	}
}

// repairLoop drains the repair queue: woken by queueRepair, re-ticked so
// pages whose holders were unreachable retry until they settle.
func (n *LiveNode) repairLoop() {
	defer n.wg.Done()
	t := time.NewTicker(repairRetryInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-n.repairKick:
		case <-t.C:
		}
		n.repairSweep()
	}
}

func (n *LiveNode) repairSweep() {
	n.repairMu.Lock()
	if len(n.repairSet) == 0 {
		n.repairMu.Unlock()
		return
	}
	lpns := make([]int64, 0, len(n.repairSet))
	for lpn := range n.repairSet {
		lpns = append(lpns, lpn)
	}
	n.repairMu.Unlock()
	sort.Slice(lpns, func(i, j int) bool { return lpns[i] < lpns[j] })
	n.repairPages(lpns)
}

// repairPages fetches the queued pages from every reachable holder
// (union-of-holders, like RecoverFromPeer), keeps the newest-stamp copy
// of each, and applies it under the shard's persist lock. A page whose
// local record turns out intact with a stamp at least as new settles
// without an apply (a fresh write or eviction healed it first); a page no
// holder answered for stays queued for the next sweep.
func (n *LiveNode) repairPages(lpns []int64) {
	links := n.linksSnapshot()
	if len(links) == 0 {
		return
	}
	ps := n.pageSize
	type cand struct {
		stamp uint64
		data  []byte
	}
	best := make(map[int64]cand)
	asked := false
	for _, l := range links {
		if !l.alive.Load() {
			continue
		}
		resp, err := l.client.callT(&Message{Type: MsgRepair, LPNs: lpns, Origin: n.selfID}, n.bulkTimeout())
		if err != nil || resp.Type != MsgRepairResp {
			continue
		}
		if len(resp.Data) != len(resp.LPNs)*ps || len(resp.Stamps) != len(resp.LPNs) {
			continue
		}
		asked = true
		for i, lpn := range resp.LPNs {
			st := resp.Stamps[i]
			if c, ok := best[lpn]; ok && c.stamp >= st {
				continue
			}
			cp := make([]byte, ps)
			copy(cp, resp.Data[i*ps:(i+1)*ps])
			best[lpn] = cand{stamp: st, data: cp}
		}
	}
	if !asked {
		return // nobody reachable; the retry tick will come back
	}
	healed := false
	for _, lpn := range lpns {
		c, have := best[lpn]
		sh := &n.shards[n.buf.ShardIndex(lpn)]
		sh.persistMu.Lock()
		local, ok := n.store.getStamp(lpn)
		intact := ok && n.store.verify(lpn)
		if intact && (!have || local >= c.stamp) {
			// Already healed (fresh write, eviction, or recovery).
			sh.persistMu.Unlock()
			n.clearRepair(lpn)
			continue
		}
		if !have {
			// Still broken and no holder copy yet: keep it queued. (If the
			// owners discarded the backup, the durable copy was synced at
			// discard time — a later verify will find a fresh write healed
			// the slot, or the page is genuinely gone past repair.)
			sh.persistMu.Unlock()
			continue
		}
		// The holder copy wins: the local record is corrupt or missing, or
		// the holder's stamp is strictly newer. (A corrupt local record
		// with a newer stamp still takes the holder copy — it is the best
		// surviving version of the page.)
		n.devMu.Lock()
		_, derr := n.dev.WriteTagged(n.vnow(), lpn, 1, stream.Warm)
		n.devMu.Unlock()
		if derr != nil {
			sh.persistMu.Unlock()
			continue
		}
		if n.victim != nil {
			// The holder copy is about to become the durable truth; a stale
			// victim entry must not outlive it.
			n.victim.InvalidateOlder(lpn, c.stamp)
		}
		if perr := n.store.put(lpn, c.data, c.stamp); perr != nil {
			sh.persistMu.Unlock()
			continue
		}
		if n.victim != nil {
			// Post-put half of the fill-admission handshake (see offerFill).
			n.victim.InvalidateOlder(lpn, c.stamp)
		}
		atomic.AddInt64(&n.stats.RepairedPages, 1)
		healed = true
		sh.persistMu.Unlock()
		n.clearRepair(lpn)
		// Keep the global stamp ahead of every applied version.
		for {
			cur := n.stampCtr.Load()
			if c.stamp <= cur || n.stampCtr.CompareAndSwap(cur, c.stamp) {
				break
			}
		}
	}
	if healed {
		n.store.flush() //nolint:errcheck // durability best effort; poison latches elsewhere
	}
}

// scrubLoop walks the store's file sections one bounded batch per tick,
// re-verifying record checksums; corrupt records flow into the repair
// queue through the store's onCorrupt hook.
func (n *LiveNode) scrubLoop(subs []*fileStore) {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.ScrubInterval)
	defer t.Stop()
	si, cursor := 0, int64(0)
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		next, _, _ := subs[si].scrubRange(cursor, scrubBatchSlots)
		cursor = next
		if next == 0 {
			si++
			if si == len(subs) {
				si = 0
				atomic.AddInt64(&n.stats.ScrubPasses, 1)
			}
		}
	}
}

// ScrubOnce synchronously verifies every record in every file-backed
// store section, returning how many records were checked and how many are
// currently failing verification (newly found ones are also queued for
// ring repair). A zero/zero return on a DataDir-less node is normal — an
// in-memory store has no records to rot.
func (n *LiveNode) ScrubOnce() (checked, corrupt int) {
	for _, sub := range n.store.files {
		cursor := int64(0)
		for {
			next, ck, bad := sub.scrubRange(cursor, scrubBatchSlots)
			checked += ck
			corrupt += len(bad)
			if next == 0 {
				break
			}
			cursor = next
		}
	}
	if checked > 0 {
		atomic.AddInt64(&n.stats.ScrubPasses, 1)
	}
	return checked, corrupt
}
