package cluster

import (
	"sync/atomic"
	"time"

	"flashcoop/internal/buffer"
	"flashcoop/internal/core"
)

// usage measures this node's resource usage for Equation 1: memory is
// buffer occupancy, CPU the device's utilization. It takes no node mutex —
// the sharded buffer aggregates under its own shard locks, which n.mu must
// never wait on.
func (n *LiveNode) usage() core.WorkloadInfo {
	var u core.WorkloadInfo
	if c := n.buf.Capacity(); c > 0 {
		u.Mem = float64(n.buf.Len()) / float64(c)
	}
	n.devMu.Lock()
	u.CPU = n.dev.Utilization(n.vnow())
	n.devMu.Unlock()
	return u
}

// writeFracSince reports the write fraction of this node's ops since
// asker's previous query and moves asker's baseline to now: each asker
// has its own window over the cumulative counters, so no round drains
// the window another partner reads.
func (n *LiveNode) writeFracSince(asker string) float64 {
	now := [2]int64{atomic.LoadInt64(&n.stats.Reads), atomic.LoadInt64(&n.stats.Writes)}
	n.mu.Lock()
	base := n.infoBase[asker]
	n.infoBase[asker] = now
	n.mu.Unlock()
	if ops := now[0] + now[1] - base[0] - base[1]; ops > 0 {
		return float64(now[1]-base[1]) / float64(ops)
	}
	return 0
}

// RebalanceOnce runs one dynamic-allocation round and returns θ. Every
// partner link answers the write fraction of its ops since this node last
// asked; the answers are averaged, each weighted by the backup pages its
// origin inserted here this round (evenly if none did), and Equation 1
// evaluates this node's memory and CPU usage against that mean. θ of the
// pooled memory becomes the remote-page budget, the rest the local
// buffer, and the budget is split across the per-origin holds by the same
// insert counts. A pair is the one-link case (weight 1). The round fails
// if any link fails to answer.
func (n *LiveNode) RebalanceOnce() (float64, error) {
	links := n.linksSnapshot()
	if len(links) == 0 {
		return 0, errNoPeer
	}
	// Read the weights before rebalanceHolds zeroes them.
	weights := make([]float64, len(links))
	var sum float64
	n.mu.Lock()
	for i, l := range links {
		if h := n.remotes[l.id]; h != nil {
			weights[i] = float64(h.winInserts)
			sum += weights[i]
		}
	}
	n.mu.Unlock()
	var peer core.WorkloadInfo
	for i, l := range links {
		resp, err := l.client.call(&Message{Type: MsgWorkloadInfo, Origin: n.selfID})
		if err != nil {
			return 0, err
		}
		w := 1 / float64(len(links))
		if sum > 0 {
			w = weights[i] / sum
		}
		peer.WriteFrac += w * resp.Info.WriteFrac
	}
	theta := core.Theta(core.DefaultAllocParams(), n.usage(), peer)

	total := n.cfg.BufferPages + n.cfg.RemotePages
	remotePages := int(theta * float64(total))
	localPages := total - remotePages
	n.mu.Lock()
	n.remoteBudget = remotePages
	n.mu.Unlock()
	// Shrinking the buffer evicts dirty blocks; they go through the normal
	// flush pipeline (pinned readable until their shard's evictor persists
	// them) rather than stalling the rebalance round on the SSD.
	for _, u := range n.buf.Resize(localPages) {
		if len(u.Pages) == 0 {
			continue
		}
		si := n.buf.ShardIndex(u.Pages[0])
		n.buf.LockShard(si)
		jobs := n.extractFlushLocked(&n.shards[si], []buffer.FlushUnit{u})
		n.buf.UnlockShard(si)
		n.enqueueFlush(si, jobs)
	}
	n.rebalanceHolds()
	atomic.AddInt64(&n.stats.Rebalances, 1)
	return theta, nil
}

// rebalanceHolds reshapes the per-origin backup holds over the node's
// remote-page budget by each origin's write intensity in the last window.
func (n *LiveNode) rebalanceHolds() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.remotes) == 0 {
		return
	}
	budget := n.remoteBudget
	if budget < len(n.remotes) {
		budget = len(n.remotes)
	}
	// Every origin keeps at least a quarter of an even share: a partner
	// idle this window must not lose its warm backups to one burst
	// elsewhere, and the floor keeps the split stable when all are idle.
	floor := budget / (4 * len(n.remotes))
	if floor < 1 {
		floor = 1
	}
	var total int64
	for _, h := range n.remotes {
		total += h.winInserts
	}
	even := budget / len(n.remotes)
	if even < 1 {
		even = 1
	}
	for _, h := range n.remotes {
		share := even
		if total > 0 {
			share = int(int64(budget) * h.winInserts / total)
			if share < floor {
				share = floor
			}
		}
		h.winInserts = 0
		h.store.Resize(share)
		n.gcHoldLocked(h)
	}
}

// StartRebalance launches a background loop that runs RebalanceOnce at the
// given interval until the node closes. Failed rounds (e.g. partner down)
// are skipped; the heartbeat path owns failure handling.
func (n *LiveNode) StartRebalance(interval time.Duration) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-t.C:
				if n.PeerAlive() {
					_, _ = n.RebalanceOnce()
				}
			}
		}
	}()
}

// Trim discards pages of a deleted short-lived file: buffered dirty copies
// die without ever being persisted, in-flight flushes are cancelled, the
// partner's backups are dropped, and the SSD mapping is trimmed.
func (n *LiveNode) Trim(lpn int64, pages int) error {
	var dropped []int64
	var stamps []uint64
	var runBuf [4]buffer.ShardRun
	for _, run := range n.buf.AppendRuns(runBuf[:0], lpn, pages) {
		sh := &n.shards[run.Shard]
		// persistMu keeps a lagging eviction flush from re-persisting a
		// page this trim is about to remove from the store.
		sh.persistMu.Lock()
		n.buf.LockShard(run.Shard)
		c := n.buf.ShardCache(run.Shard)
		for p := run.LPN; p < run.LPN+int64(run.Pages); p++ {
			wasDirty := c.IsDirty(p)
			droppedThis := c.Invalidate(p) && wasDirty
			if pg := sh.dirtyData[p]; pg != nil {
				n.putPage(pg)
				delete(sh.dirtyData, p)
			}
			delete(sh.dirtyStamp, p)
			if _, ok := sh.inflight[p]; ok {
				// Cancel the pending persist; the queued job recycles its
				// buffer when it sees the entry gone.
				delete(sh.inflight, p)
				droppedThis = true
			}
			if droppedThis {
				dropped = append(dropped, p)
				// The trim supersedes every version written so far, so the
				// discard carries the node's current stamp.
				stamps = append(stamps, n.stampCtr.Load())
			}
			if n.victim != nil {
				// Discard semantics reach the cache tier too: the entry AND
				// its ghost trace die, so a post-trim re-write of the page
				// cannot earn admission off pre-trim history.
				n.victim.Drop(p)
			}
			// Per-link degraded-write journals are NOT scrubbed here: a
			// trimmed page has no durable copy, so takeJournal naturally
			// skips its entry at stream time.
			if err := n.store.remove(p); err != nil {
				n.buf.UnlockShard(run.Shard)
				sh.persistMu.Unlock()
				return err
			}
			if n.victim != nil {
				// Post-remove half of the fill-admission handshake (see
				// offerFill): a fill that admitted the pre-trim payload
				// between the Drop above and the remove dies here; one that
				// admits after the remove fails its own stamp recheck.
				n.victim.Drop(p)
			}
		}
		n.buf.UnlockShard(run.Shard)
		sh.persistMu.Unlock()
	}
	n.devMu.Lock()
	err := n.dev.Trim(lpn, pages)
	n.devMu.Unlock()
	if err != nil {
		return err
	}
	if len(dropped) > 0 {
		// Trimmed pages have no flush temperature; no stream tags. The
		// routed fan-out sends each page's discard to its live owners only.
		n.enqueueDiscardRouted(dropped, stamps, nil)
	}
	return nil
}
