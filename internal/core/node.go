// Package core implements the FlashCoop node: the access portal that fronts
// an SSD with a policy-managed local buffer, forwards write backups to the
// cooperative partner's remote buffer over the network, flushes evicted
// blocks to the SSD asynchronously, sizes the remote buffer dynamically
// (Equation 1), and recovers from local and remote failures via heartbeat
// monitoring (paper Sections III.A–III.D).
package core

import (
	"errors"
	"fmt"
	"math"

	"flashcoop/internal/buffer"
	"flashcoop/internal/metrics"
	"flashcoop/internal/sim"
	"flashcoop/internal/ssd"
	"flashcoop/internal/trace"
)

// PolicyBaseline selects the paper's bufferless Baseline: every request
// goes synchronously to the SSD.
const PolicyBaseline = "baseline"

// NetworkModel is the cooperative link's cost model: a fixed round-trip
// latency plus a bandwidth-proportional transfer term.
type NetworkModel struct {
	RTT         sim.VTime
	BytesPerSec float64
}

// Default10GbE models the paper's 10 Gbit Ethernet interconnect with a
// 2010-era kernel TCP stack round trip.
func Default10GbE() NetworkModel {
	return NetworkModel{RTT: 100 * sim.Microsecond, BytesPerSec: 1.25e9}
}

// AckTime reports how long transferring `bytes` and receiving the ack takes.
func (m NetworkModel) AckTime(bytes int) sim.VTime {
	t := m.RTT
	if m.BytesPerSec > 0 {
		t += sim.VTime(float64(bytes) / m.BytesPerSec * float64(sim.Second))
	}
	return t
}

// Config parameterizes a FlashCoop node.
type Config struct {
	// Name labels the node in logs and errors.
	Name string
	// Policy is the buffer replacement policy: "lar", "lru", "lfu", or
	// "baseline" for the bufferless comparison system.
	Policy string
	// BufferPages is the local buffer capacity in pages.
	BufferPages int
	// RemotePages is the remote buffer capacity in pages (backups held
	// for the partner). Dynamic allocation resizes it at runtime.
	RemotePages int
	// LAR overrides the LAR option set; nil selects the paper defaults.
	LAR *buffer.LAROptions
	// SSD configures the node's drive.
	SSD ssd.Config
	// Net models the cooperative interconnect.
	Net NetworkModel
	// BufferHitLatency is the service time of a buffer hit (DRAM copy
	// plus software path). Default when zero: 5µs.
	BufferHitLatency sim.VTime
	// Alloc are Equation 1's adjustment factors; zero value selects the
	// paper's α=0.4, β=0.2, γ=0.4.
	Alloc AllocParams
	// AllocSmoothing damps dynamic-allocation decisions (EWMA +
	// minimum-change threshold); the zero value applies raw θ directly.
	AllocSmoothing Smoothing
	// FailureThreshold is how many consecutive missed heartbeats declare
	// the partner dead. Default when zero: 3.
	FailureThreshold int
	// BackgroundGC lets the SSD run garbage collection in idle periods
	// (off the critical path) instead of only on demand inside request
	// service, reducing foreground latency spikes.
	BackgroundGC bool
	// ReadAhead prefetches this many pages into the buffer after a read
	// that continues a sequential run (0 disables). The prefetch I/O is
	// asynchronous: it never delays the triggering request directly,
	// only through device queueing.
	ReadAhead int
}

func (c Config) withDefaults() Config {
	if c.BufferHitLatency == 0 {
		c.BufferHitLatency = 5 * sim.Microsecond
	}
	if c.Net == (NetworkModel{}) {
		c.Net = Default10GbE()
	}
	if c.Alloc == (AllocParams{}) {
		c.Alloc = DefaultAllocParams()
	}
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 3
	}
	return c
}

// NodeStats aggregates node-level counters. Response-time summaries are in
// milliseconds.
type NodeStats struct {
	Reads  int64
	Writes int64

	Resp      metrics.Summary
	ReadResp  metrics.Summary
	WriteResp metrics.Summary

	// BufferedWrites were absorbed by the cooperative buffer; SyncWrites
	// went synchronously to the SSD (baseline or degraded mode).
	BufferedWrites int64
	SyncWrites     int64

	// Network accounting for forwarded writes and discard notices.
	NetMessages int64
	NetBytes    int64

	// FlushOps / FlushPages count asynchronous eviction writes.
	FlushOps   int64
	FlushPages int64

	// RemoteFailures / LocalRecoveries count failure-handling episodes.
	RemoteFailures  int64
	LocalRecoveries int64

	// Trims counts Trim calls; TrimDropped counts buffered pages dropped
	// by them, of which TrimDirtyDropped were dirty — writes the SSD
	// never had to absorb (the paper's short-lived-file effect).
	Trims            int64
	TrimDropped      int64
	TrimDirtyDropped int64

	// Rebalances counts dynamic-allocation rounds that actually resized
	// the buffers (smoothing may suppress some exchanges).
	Rebalances int64

	// PrefetchedPages counts pages brought in by sequential read-ahead.
	PrefetchedPages int64
}

// Node is one FlashCoop storage server.
type Node struct {
	cfg    Config
	buf    buffer.Cache // nil when Policy == "baseline"
	dev    *ssd.Device
	remote *RemoteStore
	alloc  *Allocator

	peer        *Node
	peerAlive   bool
	missedBeats int
	failed      bool

	lastReadEnd int64 // end of the previous read, for read-ahead detection

	// fwdLPNs is completeWrite's reused list of the pages a write backs up
	// at the partner.
	fwdLPNs []int64

	stats NodeStats
}

// NewNode constructs a stand-alone node (no partner; writes behave as in
// degraded mode unless a peer is attached via Attach or NewPair).
func NewNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	dev, err := ssd.New(cfg.SSD)
	if err != nil {
		return nil, fmt.Errorf("core %s: %w", cfg.Name, err)
	}
	n := &Node{
		cfg:    cfg,
		dev:    dev,
		remote: NewRemoteStore(cfg.RemotePages),
		alloc:  NewAllocator(cfg.Alloc, cfg.BufferPages+cfg.RemotePages),
	}
	n.alloc.SetSmoothing(cfg.AllocSmoothing)
	switch cfg.Policy {
	case PolicyBaseline:
		// no buffer
	case buffer.PolicyLAR:
		opts := buffer.DefaultLAROptions()
		if cfg.LAR != nil {
			opts = *cfg.LAR
		}
		n.buf = buffer.NewLAR(cfg.BufferPages, dev.PagesPerBlock(), opts)
	default:
		// Every other registered buffer policy (lru, lfu, bplru, fab).
		n.buf, err = buffer.New(cfg.Policy, cfg.BufferPages, dev.PagesPerBlock())
		if err != nil {
			return nil, fmt.Errorf("core %s: %w", cfg.Name, err)
		}
	}
	return n, nil
}

// NewPair constructs two nodes wired as cooperative partners.
func NewPair(cfgA, cfgB Config) (*Node, *Node, error) {
	a, err := NewNode(cfgA)
	if err != nil {
		return nil, nil, err
	}
	b, err := NewNode(cfgB)
	if err != nil {
		return nil, nil, err
	}
	a.Attach(b)
	b.Attach(a)
	return a, b, nil
}

// Attach wires p as this node's cooperative partner.
func (n *Node) Attach(p *Node) {
	n.peer = p
	n.peerAlive = p != nil
	n.missedBeats = 0
}

// Name returns the node's configured name.
func (n *Node) Name() string { return n.cfg.Name }

// Device exposes the node's SSD.
func (n *Node) Device() *ssd.Device { return n.dev }

// Buffer exposes the local buffer (nil for baseline nodes).
func (n *Node) Buffer() buffer.Cache { return n.buf }

// Remote exposes the remote store (backups held for the partner).
func (n *Node) Remote() *RemoteStore { return n.remote }

// Stats returns a snapshot of node counters.
func (n *Node) Stats() NodeStats { return n.stats }

// Peer returns the attached cooperative partner (nil if none).
func (n *Node) Peer() *Node { return n.peer }

// PeerAlive reports whether the partner is currently considered reachable.
func (n *Node) PeerAlive() bool { return n.peerAlive }

// Failed reports whether this node is in a simulated crashed state.
func (n *Node) Failed() bool { return n.failed }

// ErrNodeFailed is returned when accessing a crashed node.
var ErrNodeFailed = errors.New("core: node is in failed state")

// Access services one request arriving at req.Arrival and returns its
// completion time. Evictions triggered by the access are submitted to the
// SSD asynchronously (they affect later requests only through device
// queueing).
func (n *Node) Access(req trace.Request) (sim.VTime, error) {
	if n.failed {
		return 0, ErrNodeFailed
	}
	if req.Pages <= 0 {
		return 0, fmt.Errorf("core %s: empty request", n.cfg.Name)
	}
	at := req.Arrival
	write := req.Op == trace.Write
	n.alloc.Observe(write)
	if write {
		n.stats.Writes++
	} else {
		n.stats.Reads++
	}

	if n.cfg.BackgroundGC {
		if _, err := n.dev.MaintainBefore(at, 0); err != nil {
			return 0, err
		}
	}

	var done sim.VTime
	var err error
	if n.buf == nil {
		done, err = n.accessBaseline(at, req)
	} else {
		done, err = n.accessBuffered(at, req)
	}
	if err != nil {
		return 0, err
	}
	resp := float64(done-at) / float64(sim.Millisecond)
	n.stats.Resp.Add(resp)
	if write {
		n.stats.WriteResp.Add(resp)
	} else {
		n.stats.ReadResp.Add(resp)
	}
	return done, nil
}

func (n *Node) accessBaseline(at sim.VTime, req trace.Request) (sim.VTime, error) {
	if req.Op == trace.Write {
		n.stats.SyncWrites++
		return n.dev.Write(at, req.LPN, req.Pages)
	}
	return n.dev.Read(at, req.LPN, req.Pages)
}

func (n *Node) accessBuffered(at sim.VTime, req trace.Request) (sim.VTime, error) {
	res := n.buf.Access(buffer.Request{
		LPN:   req.LPN,
		Pages: req.Pages,
		Write: req.Op == trace.Write,
	})

	// Asynchronous eviction flushes: submitted now, completing in the
	// background; the partner's backups are discarded once flushed.
	if err := n.submitFlushes(at, res.Flush); err != nil {
		return 0, err
	}

	if req.Op == trace.Write {
		return n.completeWrite(at, req)
	}
	return n.completeRead(at, req, res)
}

// completeWrite finishes a buffered write: with a live partner the write is
// acknowledged once the backup copy is in the remote buffer; in degraded
// mode (partner dead) the dirty data is synchronously written through.
func (n *Node) completeWrite(at sim.VTime, req trace.Request) (sim.VTime, error) {
	if n.peerAlive && n.peer != nil && n.peer.failed {
		// Forwarding fails immediately: detect the remote failure now.
		if _, err := n.RemoteFailure(at); err != nil {
			return 0, err
		}
	}
	if n.peerAlive && n.peer != nil {
		n.fwdLPNs = n.fwdLPNs[:0]
		for lpn := req.LPN; lpn < req.End(); lpn++ {
			n.fwdLPNs = append(n.fwdLPNs, lpn)
		}
		n.peer.remote.Insert(n.fwdLPNs)
		bytes := req.Pages * n.dev.PageSize()
		n.stats.NetMessages++
		n.stats.NetBytes += int64(bytes)
		n.stats.BufferedWrites++
		ack := at + n.cfg.Net.AckTime(bytes)
		local := at + n.cfg.BufferHitLatency
		return sim.Max(ack, local), nil
	}

	// Degraded mode: write through synchronously and keep the buffered
	// copy clean so it never needs a backup.
	n.stats.SyncWrites++
	done, err := n.dev.Write(at, req.LPN, req.Pages)
	if err != nil {
		return 0, err
	}
	for lpn := req.LPN; lpn < req.End(); lpn++ {
		n.buf.MarkClean(lpn)
	}
	return done, nil
}

// completeRead finishes a buffered read: hits cost the buffer hit latency,
// misses are fetched from the SSD in contiguous runs. A read continuing a
// sequential run additionally triggers asynchronous read-ahead.
func (n *Node) completeRead(at sim.VTime, req trace.Request, res buffer.Result) (sim.VTime, error) {
	done := at + n.cfg.BufferHitLatency
	for miss := res.ReadMisses; len(miss) > 0; {
		k := runLen(miss)
		fin, err := n.dev.Read(at, miss[0], k)
		if err != nil {
			return 0, err
		}
		done = sim.Max(done, fin)
		miss = miss[k:]
	}
	sequential := req.LPN == n.lastReadEnd
	n.lastReadEnd = req.End()
	if sequential && n.cfg.ReadAhead > 0 {
		if err := n.prefetch(at, req.End()); err != nil {
			return 0, err
		}
	}
	return done, nil
}

// prefetch asynchronously loads cfg.ReadAhead pages starting at lpn into
// the buffer, reading the missing ones from the SSD.
func (n *Node) prefetch(at sim.VTime, lpn int64) error {
	pages := n.cfg.ReadAhead
	if lpn >= n.dev.UserPages() {
		return nil
	}
	if lpn+int64(pages) > n.dev.UserPages() {
		pages = int(n.dev.UserPages() - lpn)
	}
	res := n.buf.Access(buffer.Request{LPN: lpn, Pages: pages, Write: false})
	for miss := res.ReadMisses; len(miss) > 0; {
		k := runLen(miss)
		if _, err := n.dev.Read(at, miss[0], k); err != nil {
			return err
		}
		n.stats.PrefetchedPages += int64(k)
		miss = miss[k:]
	}
	return n.submitFlushes(at, res.Flush)
}

// submitFlushes writes eviction units to the SSD and tells the partner to
// drop the corresponding backups.
func (n *Node) submitFlushes(at sim.VTime, units []buffer.FlushUnit) error {
	for _, u := range units {
		if u.Len() == 0 {
			continue
		}
		// Block padding (BPLRU): absent pages are read back from the
		// SSD before the full-block write.
		for pad := u.PadPages; len(pad) > 0; {
			k := runLen(pad)
			if _, err := n.dev.Read(at, pad[0], k); err != nil {
				return fmt.Errorf("core %s: pad read: %w", n.cfg.Name, err)
			}
			pad = pad[k:]
		}
		var err error
		if u.Contiguous {
			_, err = n.dev.Write(at, u.Pages[0], u.Len())
		} else {
			_, err = n.dev.WriteCluster(at, u.Pages)
		}
		if err != nil {
			return fmt.Errorf("core %s: flush: %w", n.cfg.Name, err)
		}
		n.stats.FlushOps++
		n.stats.FlushPages += int64(u.Len())
		if u.Dirty > 0 && n.peerAlive && n.peer != nil && !n.peer.failed {
			n.peer.remote.Discard(u.Pages)
			n.stats.NetMessages++
		}
	}
	return nil
}

// Heartbeat probes the partner at time `at`. When the partner misses
// FailureThreshold consecutive probes it is declared dead and the remote
// failure procedure runs; the completion time of any triggered flushing is
// returned.
func (n *Node) Heartbeat(at sim.VTime) (sim.VTime, error) {
	if n.failed {
		return 0, ErrNodeFailed
	}
	n.stats.NetMessages++
	if n.peer != nil && !n.peer.failed {
		n.missedBeats = 0
		if !n.peerAlive {
			// Partner is back: resume cooperative buffering.
			n.peerAlive = true
		}
		return at, nil
	}
	n.missedBeats++
	if n.peerAlive && n.missedBeats >= n.cfg.FailureThreshold {
		return n.RemoteFailure(at)
	}
	return at, nil
}

// RemoteFailure handles the loss of the partner (network partition or peer
// crash): stop forwarding and synchronously flush all locally buffered
// dirty data, since it no longer has a backup (paper Section III.D).
func (n *Node) RemoteFailure(at sim.VTime) (sim.VTime, error) {
	if !n.peerAlive {
		return at, nil
	}
	n.peerAlive = false
	n.stats.RemoteFailures++
	if n.buf == nil {
		return at, nil
	}
	units := n.buf.FlushAll()
	done := at
	for _, u := range units {
		if u.Len() == 0 {
			continue
		}
		fin, err := n.dev.Write(at, u.Pages[0], u.Len())
		if err != nil {
			return 0, fmt.Errorf("core %s: failure flush: %w", n.cfg.Name, err)
		}
		n.stats.FlushOps++
		n.stats.FlushPages += int64(u.Len())
		done = sim.Max(done, fin)
	}
	return done, nil
}

// Fail simulates a crash of this node: all volatile state (local buffer
// contents and the partner's backups stored here) is lost.
func (n *Node) Fail() {
	n.failed = true
	if n.buf != nil {
		// Memory contents vanish; note FlushAll is not called — the
		// dirty data is lost locally and survives only at the partner.
		n.buf.Resize(0)
		n.buf.Resize(n.cfg.BufferPages)
	}
	n.remote.Drain()
}

// RecoverFromLocalFailure restarts a crashed node at time `at`: it reads
// the Remote Caching Table from the partner, stores the backed-up dirty
// pages into its own SSD, and tells the partner to clean its remote buffer
// (paper Section III.D). It returns when the recovered data is durable.
func (n *Node) RecoverFromLocalFailure(at sim.VTime) (sim.VTime, error) {
	if !n.failed {
		return at, errors.New("core: RecoverFromLocalFailure on a live node")
	}
	n.failed = false
	n.missedBeats = 0
	n.stats.LocalRecoveries++
	if n.peer == nil || n.peer.failed {
		// Both sides failed: nothing recoverable (the RAID-1-style
		// assumption of the paper is that this does not happen).
		n.peerAlive = false
		return at, nil
	}
	n.peerAlive = true
	lpns := n.peer.remote.Drain()
	n.stats.NetMessages += 2 // RCT fetch + clean notification
	transfer := n.cfg.Net.AckTime(len(lpns) * n.dev.PageSize())
	n.stats.NetBytes += int64(len(lpns) * n.dev.PageSize())
	done := at + transfer
	for rest := lpns; len(rest) > 0; {
		k := runLen(rest)
		fin, err := n.dev.Write(at+transfer, rest[0], k)
		if err != nil {
			return 0, fmt.Errorf("core %s: recovery write: %w", n.cfg.Name, err)
		}
		done = sim.Max(done, fin)
		rest = rest[k:]
	}
	return done, nil
}

// Rebalance runs one dynamic-allocation round at time `at`: the node
// computes θ from its own resource usage and the partner's workload info,
// then resizes its remote store and local buffer accordingly. Any local
// buffer evictions forced by shrinking are flushed. It returns θ.
func (n *Node) Rebalance(at sim.VTime, local WorkloadInfo, peerInfo WorkloadInfo) (float64, error) {
	raw := Theta(n.cfg.Alloc, local, peerInfo)
	n.stats.NetMessages++ // the info exchange
	theta, apply := n.alloc.Smooth(raw)
	if !apply {
		// Below the configured change threshold: skip the resize (and
		// its eviction churn) entirely.
		return theta, nil
	}
	localPages, remotePages := n.alloc.Split(theta)
	n.remote.Resize(remotePages)
	if n.buf != nil {
		units := n.buf.Resize(localPages)
		if err := n.submitFlushes(at, units); err != nil {
			return theta, err
		}
	}
	n.stats.Rebalances++
	return theta, nil
}

// LocalInfo measures this node's workload window and resource usage at
// time `now`: memory utilization is buffer occupancy, network utilization
// follows forwarded bytes, and CPU utilization tracks device pressure.
func (n *Node) LocalInfo(now sim.VTime) WorkloadInfo {
	mem := 0.0
	if n.buf != nil && n.buf.Capacity() > 0 {
		mem = float64(n.buf.Len()) / float64(n.buf.Capacity())
	}
	cpu := n.dev.Utilization(now)
	net := 0.0
	if now > 0 && n.cfg.Net.BytesPerSec > 0 {
		net = math.Min(1, float64(n.stats.NetBytes)/
			(n.cfg.Net.BytesPerSec*now.Seconds()))
	}
	return n.alloc.WindowInfo(mem, cpu, net)
}

// runLen returns the length of the maximal run of consecutive page
// numbers that starts pages (which must be non-empty).
func runLen(pages []int64) int {
	k := 1
	for k < len(pages) && pages[k] == pages[k-1]+1 {
		k++
	}
	return k
}

// Trim discards n logical pages starting at lpn (a deleted short-lived
// file, paper Section III.A): buffered copies are dropped without flushing
// — dirty data that dies here never costs an SSD write — the partner's
// backups are discarded, and the SSD's own mapping is trimmed.
func (n *Node) Trim(at sim.VTime, lpn int64, pages int) error {
	if n.failed {
		return ErrNodeFailed
	}
	if pages <= 0 {
		return fmt.Errorf("core %s: empty trim", n.cfg.Name)
	}
	var dropped []int64
	if n.buf != nil {
		for p := lpn; p < lpn+int64(pages); p++ {
			wasDirty := n.buf.IsDirty(p)
			if n.buf.Invalidate(p) {
				n.stats.TrimDropped++
				if wasDirty {
					n.stats.TrimDirtyDropped++
					dropped = append(dropped, p)
				}
			}
		}
	}
	if len(dropped) > 0 && n.peerAlive && n.peer != nil && !n.peer.failed {
		n.peer.remote.Discard(dropped)
		n.stats.NetMessages++
	}
	if err := n.dev.Trim(lpn, pages); err != nil {
		return fmt.Errorf("core %s: %w", n.cfg.Name, err)
	}
	n.stats.Trims++
	_ = at
	return nil
}
