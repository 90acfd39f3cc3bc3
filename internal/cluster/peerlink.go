package cluster

import (
	"errors"
	"sync"
	"sync/atomic"

	"flashcoop/internal/core"
	"flashcoop/internal/stream"
)

// errPeerRemoved aborts forwards caught in a membership change that
// removed their partner link.
var errPeerRemoved = errors.New("cluster: peer removed from ring")

// peerLink bundles everything the node runs per cooperative partner: the
// pipelined client, a dedicated group-commit forwarder (queue + loop), a
// circuit breaker, a prober, a degraded-write journal, and one lifecycle
// state machine, one per fellow ring member. All lifecycle and journal
// state is guarded by the NODE's mutex (n.mu) — per-link mutexes would
// buy little (membership changes are rare, lifecycle events cheap) and a
// single lock keeps the "journal empty → flip Healthy" argument local to
// one critical section.
type peerLink struct {
	n      *LiveNode
	id     string // ring member ID == the partner's listen address
	client *peerClient

	fwdq chan fwdEntry
	// sent carries frames from the forwarder to the completion goroutine
	// in send order; MaxInflight slots hold every frame the in-flight
	// window admits, so a send never blocks. frames is the free list of
	// acked frames; at most a full window plus the write and discard
	// frames the forwarder is filling exist at once, and it holds them all.
	sent      chan *fwdFrame
	frames    chan *fwdFrame
	probeKick chan struct{} // buffered(1): wakes the prober out of its backoff sleep
	stop      chan struct{} // closed on removal or node shutdown
	stopOnce  sync.Once
	wg        sync.WaitGroup // forwarder, completion, and prober

	brk breaker

	// Guarded by n.mu.
	lc            lifecycle
	proberRunning bool
	removed       bool
	outage        map[int64]uint64 // degraded-write journal for THIS partner: lpn → stamp

	// alive mirrors lc.alive() so hot paths read one atomic per link.
	alive atomic.Bool
	// pressure is the partner's last gossiped GC pressure (float bits).
	pressure atomic.Uint64

	// resyncMu serializes rejoin walks and journal pushes for this link.
	resyncMu sync.Mutex
}

// newLinkLocked constructs (but does not start) a link to the given
// partner. Caller holds n.mu.
func (n *LiveNode) newLinkLocked(id string) *peerLink {
	return &peerLink{
		n:         n,
		id:        id,
		client:    newPeerClient(id, n.cfg.CallTimeout, n.cfg.Dialer),
		fwdq:      make(chan fwdEntry, n.cfg.ForwardQueue),
		sent:      make(chan *fwdFrame, n.cfg.MaxInflight),
		frames:    make(chan *fwdFrame, n.cfg.MaxInflight+2),
		probeKick: make(chan struct{}, 1),
		stop:      make(chan struct{}),
		brk:       breaker{threshold: int64(n.cfg.BreakerThreshold), window: int32(n.cfg.BreakerWindow)},
		lc:        lifecycle{state: StateDegraded, threshold: n.cfg.FailureThreshold},
		outage:    make(map[int64]uint64),
	}
}

// start launches the link's forwarder and completion goroutines. They
// share the in-flight window: the forwarder takes a slot per frame sent,
// completion returns it once the frame is acked or failed.
func (l *peerLink) start() {
	inflight := make(chan struct{}, l.n.cfg.MaxInflight)
	l.wg.Add(2)
	go l.forwardLoop(inflight)
	go l.completeLoop(inflight)
}

// halt stops the link: the forwarder aborts (failing queued entries), the
// client's session dies (failing in-flight calls fast), and the prober
// exits on its next wakeup. Callers that need the goroutines gone wait on
// l.wg afterwards. Safe to call more than once.
func (l *peerLink) halt() {
	l.stopOnce.Do(func() { close(l.stop) })
	l.client.close()
}

// noteForwardFailed feeds one hard forward failure into the link's
// lifecycle and executes the demanded action. Must be called without n.mu.
func (l *peerLink) noteForwardFailed() {
	n := l.n
	n.mu.Lock()
	act := l.lc.forwardFailed()
	n.syncAliveLocked()
	n.mu.Unlock()
	n.applyLinkAction(l, act)
}

// ringState is the immutable routing snapshot hot paths read through one
// atomic load: the ring layout, this node's member ID, and the live
// partner links. Membership changes publish a fresh snapshot under n.mu;
// a node with no partner links has none.
type ringState struct {
	ring  *Ring
	self  string
	links []*peerLink
	byID  map[string]*peerLink
}

// ownerLinks appends the links owning lpn's erase block under this
// snapshot.
func (rs *ringState) ownerLinks(out []*peerLink, lpn int64, ppb int) []*peerLink {
	block := lpn / int64(ppb)
	if lpn < 0 && lpn%int64(ppb) != 0 {
		block--
	}
	var buf [4]string
	for _, id := range rs.ring.appendOwners(buf[:0], BlockKey(rs.self, block), rs.self) {
		if l := rs.byID[id]; l != nil {
			out = append(out, l)
		}
	}
	return out
}

// publishRSLocked rebuilds the atomic routing snapshot from the node's
// current links and ring. Caller holds n.mu.
func (n *LiveNode) publishRSLocked() {
	if len(n.links) == 0 {
		n.rs.Store(nil)
		n.epochA.Store(n.epoch)
		return
	}
	rs := &ringState{
		ring:  n.ring,
		self:  n.selfID,
		links: append([]*peerLink(nil), n.links...),
		byID:  make(map[string]*peerLink, len(n.links)),
	}
	for _, l := range n.links {
		rs.byID[l.id] = l
	}
	n.rs.Store(rs)
	n.epochA.Store(n.epoch)
}

// linksSnapshot returns the current partner links without holding n.mu
// afterwards.
func (n *LiveNode) linksSnapshot() []*peerLink {
	rs := n.rs.Load()
	if rs == nil {
		return nil
	}
	return rs.links
}

// linkByOrigin resolves the link a partner frame came from.
func (n *LiveNode) linkByOrigin(origin string) *peerLink {
	rs := n.rs.Load()
	if rs == nil {
		return nil
	}
	return rs.byID[origin]
}

// remoteHold is one origin's backup state on the receiving side: the RCT
// occupancy model plus the payload and stamp maps, created on the
// origin's first insert and sized by the remote-budget split. All holds
// are guarded by n.mu.
type remoteHold struct {
	store *core.RemoteStore
	data  map[int64][]byte
	stamp map[int64]uint64
	// winInserts counts backup pages inserted since the last rebalance
	// round: the per-origin write-intensity window that drives the Eq. 1
	// style budget split (see RebalanceOnce).
	winInserts int64
}

// holdForLocked resolves the backup hold for an origin, optionally
// creating it. Caller holds n.mu.
func (n *LiveNode) holdForLocked(origin string, create bool) *remoteHold {
	if h, ok := n.remotes[origin]; ok {
		return h
	}
	if !create {
		return nil
	}
	if n.remotes == nil {
		n.remotes = make(map[string]*remoteHold)
	}
	// Initial share: an even split of the remote budget across the
	// origins currently backing up here (including this new one); the
	// rebalance loop reshapes the split by observed write intensity.
	share := n.remoteBudget / (len(n.remotes) + 1)
	if share < 1 {
		share = 1
	}
	h := &remoteHold{
		store: core.NewRemoteStore(share),
		data:  make(map[int64][]byte),
		stamp: make(map[int64]uint64),
	}
	n.remotes[origin] = h
	return h
}

// gcHoldLocked drops payloads whose RCT entries were evicted by
// remote-store overflow. Caller holds n.mu.
func (n *LiveNode) gcHoldLocked(h *remoteHold) {
	if len(h.data) <= h.store.Len() {
		return
	}
	for lpn, pg := range h.data {
		if !h.store.Contains(lpn) {
			n.putPage(pg)
			delete(h.data, lpn)
			delete(h.stamp, lpn)
		}
	}
}

// fwdPlan groups one request's pages by live owner link and collects the
// down owners of each page. A plan is reused across requests (writes keep
// one in their pooled scratch, discards take one from fwdPlanPool), so
// planning allocates nothing once its slices have grown: groups are found
// by a linear scan — a page has at most Replicas owners, and a request
// rarely spans more than a couple of erase blocks.
type fwdPlan struct {
	groups []fwdGroup
	owners []*peerLink
	// targets maps each page with a down owner to those owners (nil while
	// every owner is live); its journal must record the write-through.
	targets map[int64][]*peerLink
}

var fwdPlanPool = sync.Pool{New: func() any { return new(fwdPlan) }}

// fwdGroup is the slice of one request's pages destined for one live
// owner link.
type fwdGroup struct {
	link *peerLink
	idxs []int // page indexes into the request's lpns/stamps/data
	err  error
}

// group returns l's group in the plan, starting a new one (reusing a
// previous request's index slice) on l's first page.
func (p *fwdPlan) group(l *peerLink) *fwdGroup {
	for i := range p.groups {
		if p.groups[i].link == l {
			return &p.groups[i]
		}
	}
	if len(p.groups) < cap(p.groups) {
		p.groups = p.groups[:len(p.groups)+1]
	} else {
		p.groups = append(p.groups, fwdGroup{})
	}
	g := &p.groups[len(p.groups)-1]
	g.link, g.idxs, g.err = l, g.idxs[:0], nil
	return g
}

// gather returns the elements of s at a group's page indexes, each page
// spanning w elements. A group covering every page gets s itself — always
// with one partner, and the common case of a request within one erase
// block — so only a request split across owners copies.
func gather[T any](s []T, idxs []int, w int) []T {
	if s == nil || len(idxs)*w == len(s) {
		return s
	}
	out := make([]T, 0, len(idxs)*w)
	for _, i := range idxs {
		out = append(out, s[i*w:(i+1)*w]...)
	}
	return out
}

// planForward groups a request's pages by live owner link into p and
// collects, per page, the down owners in p.targets. A write with any
// down owner takes the degraded path as a whole (conservative); a
// discard skips them.
func (n *LiveNode) planForward(rs *ringState, lpns []int64, p *fwdPlan) {
	p.groups, p.targets = p.groups[:0], nil
	lastBlock := int64(-1 << 62)
	haveBlock := false
	for i, lpn := range lpns {
		block := lpn / int64(n.ppb)
		if lpn < 0 && lpn%int64(n.ppb) != 0 {
			block--
		}
		if !haveBlock || block != lastBlock {
			p.owners = rs.ownerLinks(p.owners[:0], lpn, n.ppb)
			lastBlock, haveBlock = block, true
		}
		for _, l := range p.owners {
			if l.alive.Load() {
				g := p.group(l)
				g.idxs = append(g.idxs, i)
				continue
			}
			if p.targets == nil {
				p.targets = make(map[int64][]*peerLink)
			}
			p.targets[lpn] = append(p.targets[lpn], l)
		}
	}
	clear(p.owners)
}

// enqueueDiscardRouted fans an advisory discard out to the live owner
// links of each page, grouped per owner through a forward plan so every
// partner only hears about backups it actually holds. The slices ride in
// the queued entries: callers hand over freshly built ones.
func (n *LiveNode) enqueueDiscardRouted(lpns []int64, stamps []uint64, strms []stream.Stream) {
	rs := n.rs.Load()
	if rs == nil {
		return
	}
	p := fwdPlanPool.Get().(*fwdPlan)
	n.planForward(rs, lpns, p)
	for i := range p.groups {
		g := &p.groups[i]
		g.link.enqueueDiscard(gather(lpns, g.idxs, 1), gather(stamps, g.idxs, 1), gather(strms, g.idxs, 1))
		g.link = nil
	}
	p.targets = nil
	fwdPlanPool.Put(p)
}

// applyLinkAction executes the side effect a link's lifecycle event
// demanded; it must be called without n.mu held.
func (n *LiveNode) applyLinkAction(l *peerLink, act lcAction) {
	switch act {
	case lcFailover:
		atomic.AddInt64(&n.stats.Failovers, 1)
		l.startProber()
		// The partner holding this link's backups failed: buffered dirty
		// data has lost (part of) its backup; make it durable immediately
		// (paper Section III.D). With several links this over-flushes —
		// pages owned by still-healthy partners get persisted too — which
		// costs write amplification, never correctness.
		if err := n.FlushAll(); err != nil {
			_ = err
		}
	case lcKickProbe:
		l.startProber()
		select {
		case l.probeKick <- struct{}{}:
		default:
		}
	}
}
