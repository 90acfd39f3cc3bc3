package cluster

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// checkMembership validates one MsgMembership frame against the local
// epoch: the epoch must be nonzero and strictly newer, and the member
// list must be non-empty with unique, non-empty IDs. It is a pure
// function so the fuzzer can hammer it with truncated, duplicated, and
// stale-epoch frames without standing up a node.
func checkMembership(m *Message, curEpoch uint64) error {
	if m.Epoch == 0 {
		return fmt.Errorf("%w: membership epoch must be nonzero", ErrBadFrame)
	}
	if m.Epoch <= curEpoch {
		return fmt.Errorf("cluster: stale membership epoch %d (current %d)", m.Epoch, curEpoch)
	}
	if len(m.Members) == 0 {
		return fmt.Errorf("%w: membership frame without members", ErrBadFrame)
	}
	seen := make(map[string]struct{}, len(m.Members))
	for _, id := range m.Members {
		if id == "" {
			return fmt.Errorf("%w: empty member ID", ErrBadFrame)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("%w: duplicate member %q", ErrBadFrame, id)
		}
		seen[id] = struct{}{}
	}
	return nil
}

// checkEpoch rejects data-plane frames routed under an older ring layout
// than the receiver's: a late MsgWriteFwd/MsgResync/MsgDiscard from a
// previous epoch would otherwise land in (or drop from) a hold its sender
// no longer owns under the current layout. A receiver that was never
// configured (epoch 0) accepts every frame. Returns the MsgError reply to
// send, or nil to proceed.
func (n *LiveNode) checkEpoch(m *Message) *Message {
	if cur := n.epochA.Load(); m.Epoch < cur {
		atomic.AddInt64(&n.stats.EpochRejects, 1)
		return &Message{Type: MsgError, Err: fmt.Sprintf("stale ownership epoch %d (current %d)", m.Epoch, cur)}
	}
	return nil
}

// RingEpoch reports the current ownership epoch (0 = never configured).
func (n *LiveNode) RingEpoch() uint64 { return n.epochA.Load() }

// RingMembers returns the current ring member list (nil when never
// configured).
func (n *LiveNode) RingMembers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.members...)
}

// PeerStates reports each partner link's lifecycle state by member ID.
func (n *LiveNode) PeerStates() map[string]PeerState {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]PeerState, len(n.links))
	for _, l := range n.links {
		out[l.id] = l.lc.state
	}
	return out
}

// SetMembers reconfigures the node onto a new ring layout under a new
// ownership epoch. members is the full member list including this node's
// own ID (its partner listen address); a list that does NOT include this
// node removes it from the ring (all links torn down, solo degraded). A
// stale epoch (<= current) is rejected.
//
// The change is applied as: diff the partner link set (new members get a
// fresh link, forwarder, and lifecycle; departed members' links are
// halted and their goroutines reaped), publish the new routing snapshot,
// then conservatively re-protect: every currently dirty page is flushed
// durable and journaled into its NEW owners' degraded-write journals, so
// the existing delta-resync machinery re-replicates exactly the moved
// pages — to healthy owners via an immediate journal push, to down ones
// on their normal rejoin.
func (n *LiveNode) SetMembers(epoch uint64, members []string) error {
	if epoch == 0 {
		return fmt.Errorf("cluster: membership epoch must be nonzero")
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	for i, id := range sorted {
		if id == "" {
			return fmt.Errorf("cluster: empty member ID")
		}
		if i > 0 && sorted[i-1] == id {
			return fmt.Errorf("cluster: duplicate member %q", id)
		}
	}

	n.mu.Lock()
	if n.closing {
		n.mu.Unlock()
		return errNodeClosing
	}
	if epoch <= n.epoch {
		n.mu.Unlock()
		return fmt.Errorf("cluster: stale membership epoch %d (current %d)", epoch, n.epoch)
	}
	self := n.selfID
	inSet := false
	for _, id := range sorted {
		if id == self {
			inSet = true
			break
		}
	}
	var ring *Ring
	if inSet && len(sorted) >= 2 {
		r, err := NewRing(sorted, n.cfg.Replication)
		if err != nil {
			n.mu.Unlock()
			return err
		}
		ring = r
	}
	desired := make(map[string]bool, len(sorted))
	if inSet {
		for _, id := range sorted {
			if id != self {
				desired[id] = true
			}
		}
	}
	var kept, added, removed []*peerLink
	for _, l := range n.links {
		if desired[l.id] {
			kept = append(kept, l)
			delete(desired, l.id)
		} else {
			l.removed = true
			removed = append(removed, l)
			delete(n.infoBase, l.id)
		}
	}
	for id := range desired {
		l := n.newLinkLocked(id)
		added = append(added, l)
		kept = append(kept, l)
	}
	n.links = kept
	n.ring = ring
	n.epoch = epoch
	n.members = sorted
	n.publishRSLocked()
	n.syncAliveLocked()
	atomic.AddInt64(&n.stats.MembershipChanges, 1)
	n.mu.Unlock()

	for _, l := range removed {
		l.halt()
		l.wg.Wait()
	}
	for _, l := range added {
		l.start()
	}
	n.reprotectAfterReshape()
	return nil
}

// reprotectAfterReshape restores the backup invariant after an ownership
// change: pages buffered dirty (or in the flush pipeline) may have been
// backed up under the OLD layout — on a member that just left, or on a
// partner that no longer owns their blocks. Rather than track which
// backup lives where, flush everything durable (the same conservative
// move a failover makes) and journal each page into its new owners so
// the delta-resync machinery pushes warm backups to them.
func (n *LiveNode) reprotectAfterReshape() {
	// Snapshot the volatile set before flushing; the flush itself does
	// not change what needs re-journaling.
	type entry struct {
		lpn   int64
		stamp uint64
	}
	var dirty []entry
	for si := range n.shards {
		sh := &n.shards[si]
		n.buf.LockShard(si)
		for lpn, st := range sh.dirtyStamp {
			dirty = append(dirty, entry{lpn, st})
		}
		for lpn, fp := range sh.inflight {
			if _, ok := sh.dirtyStamp[lpn]; !ok {
				dirty = append(dirty, entry{lpn, fp.stamp})
			}
		}
		n.buf.UnlockShard(si)
	}
	if err := n.FlushAll(); err != nil {
		// Pages that failed to persist stay dirty and pinned; they will
		// be retried by the evictors, and their journal entries below are
		// skipped at stream time until a durable copy exists.
		_ = err
	}
	rs := n.rs.Load()
	if rs == nil || len(dirty) == 0 {
		return
	}
	var owners []*peerLink
	pushSet := make(map[*peerLink]bool)
	n.mu.Lock()
	for _, e := range dirty {
		owners = rs.ownerLinks(owners[:0], e.lpn, n.ppb)
		for _, l := range owners {
			if l.removed {
				continue
			}
			n.journalLinkLocked(l, e.lpn, e.stamp)
			pushSet[l] = true
		}
	}
	// Kick an immediate journal push on every healthy affected link; down
	// links drain their journals on the normal rejoin walk.
	for l := range pushSet {
		if l.removed || n.closing || !l.lc.alive() {
			continue
		}
		l.wg.Add(1)
		go l.pushJournal()
	}
	n.mu.Unlock()
}

// ProposeMembership bumps the ownership epoch, applies the new layout
// locally, and broadcasts it to every partner in the NEW layout. Members
// being removed are not told (they are typically gone — crashed or
// departed); a removed-but-alive member keeps rejecting nothing, since
// its stale-epoch frames are rejected by everyone else. Returns the new
// epoch; the first broadcast error is reported but the local layout
// stays applied (retry by re-proposing).
func (n *LiveNode) ProposeMembership(members []string) (uint64, error) {
	epoch := n.epochA.Load() + 1
	if err := n.SetMembers(epoch, members); err != nil {
		return 0, err
	}
	var firstErr error
	for _, l := range n.linksSnapshot() {
		// One message per link: the client stamps its own Seq into the
		// message, and a timed-out call's frame may still be on its way
		// out of the previous link's send queue.
		msg := &Message{Type: MsgMembership, Epoch: epoch, Members: members, Origin: n.selfID}
		resp, err := l.client.callT(msg, n.bulkTimeout())
		if err == nil && resp.Type != MsgMembershipAck && resp.Type != MsgError {
			err = fmt.Errorf("cluster: unexpected membership response %v", resp.Type)
		}
		if err == nil && resp.Type == MsgError {
			err = fmt.Errorf("cluster: membership rejected by %s: %s", l.id, resp.Err)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return epoch, firstErr
}

// NewLiveRing constructs N live nodes and wires them into one consistent-
// hash ring at epoch 1 with the given replication factor. Each config's
// ListenAddr may be ":0"; member IDs are the bound addresses. The nodes
// are returned started but not connected — call ConnectPeer (and
// StartHeartbeat) on each.
func NewLiveRing(cfgs []LiveConfig, replication int) ([]*LiveNode, error) {
	if len(cfgs) < 2 {
		return nil, fmt.Errorf("cluster: ring needs at least 2 nodes, got %d", len(cfgs))
	}
	nodes := make([]*LiveNode, 0, len(cfgs))
	fail := func(err error) ([]*LiveNode, error) {
		for _, m := range nodes {
			m.Close()
		}
		return nil, err
	}
	for i := range cfgs {
		cfg := cfgs[i]
		cfg.PeerAddr = ""
		cfg.Peers = nil
		if cfg.Replication == 0 {
			cfg.Replication = replication
		}
		node, err := NewLiveNode(cfg)
		if err != nil {
			return fail(err)
		}
		nodes = append(nodes, node)
	}
	members := make([]string, len(nodes))
	for i, m := range nodes {
		members[i] = m.Addr()
	}
	for _, m := range nodes {
		if err := m.SetMembers(1, members); err != nil {
			return fail(err)
		}
	}
	return nodes, nil
}
