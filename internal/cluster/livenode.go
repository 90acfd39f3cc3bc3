package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"math"

	"flashcoop/internal/buffer"
	"flashcoop/internal/faultfs"
	"flashcoop/internal/flash"
	"flashcoop/internal/metrics"
	"flashcoop/internal/sim"
	"flashcoop/internal/ssd"
	"flashcoop/internal/stream"
	"flashcoop/internal/victim"
)

// LiveConfig parameterizes a live TCP FlashCoop node.
type LiveConfig struct {
	Name       string
	ListenAddr string // e.g. "127.0.0.1:0"
	// PeerAddr is shorthand for the cooperative pair: it sets Peers to
	// {NodeID, PeerAddr}, a 2-member ring. Mutually exclusive with Peers.
	PeerAddr string

	// Peers, when set, wires the node into an N-node cooperative ring at
	// epoch 1: the list is the full membership — every member's partner
	// listen address, INCLUDING this node's own (see NodeID) — and each
	// page's backup owners are chosen by hashing its erase block onto a
	// consistent-hash ring over the list (see ring.go). A node with
	// neither Peers nor PeerAddr starts solo at epoch 0 and only holds the
	// backups other members forward to it.
	Peers []string
	// NodeID is this node's ring member ID; it must match the entry in
	// Peers that refers to this node. Defaults to the bound listen address
	// (fine when ListenAddr is concrete; with ":0" pass the advertised
	// address explicitly). Partners file this node's backups under its ID,
	// so a replacement recovers them only if it comes back with the same
	// ID — for the default, the same listen address.
	NodeID string
	// Replication is how many distinct ring members back up each dirty
	// page (clamped to len(members)-1). Default 1 — the pair-equivalent
	// protection level, generalized to N nodes.
	Replication int

	Policy      string // "lar", "lru", "lfu", "bplru", "fab", "lbclock"
	BufferPages int
	RemotePages int
	SSD         ssd.Config

	// Shards stripes the serving hot path: the cooperative buffer, the
	// dirty/stamp/journal maps, the page store, and the background flush
	// pipeline are split N ways by logical block number, so concurrent
	// Writes and Reads to different blocks stop serializing on one lock.
	// Must be stable across restarts of the same DataDir (the sharded
	// file store routes pages to per-shard files). Default 4; clamped to
	// BufferPages.
	Shards int

	// EvictQueue sizes each shard's eviction queue (in flush jobs, one
	// per evicted block). Evicted pages wait here — pinned dirty, still
	// readable — until the shard's evictor persists them; a full queue
	// applies backpressure to the writer that caused the eviction. The
	// depth also caps how many jobs one evictor persist (and store fsync)
	// absorbs, so it is the knob for how far durability may lag eviction:
	// shallow = tight lag and little batching, deep = the reverse.
	// Default 64.
	EvictQueue int

	// DataDir, when set, persists flushed pages in slotted files there
	// (one per shard) so the node's durable contents survive restarts.
	// Empty keeps an in-memory store (like the simulator).
	DataDir string
	// SyncWrites fsyncs the page store after every persist batch (slower,
	// stronger durability). Only meaningful with DataDir.
	SyncWrites bool
	// FS injects the filesystem layer under the page-store files. nil
	// defaults to the real OS (faultfs.OS()); chaos harnesses plug a
	// seeded faultfs.Injector in here so disk faults (torn writes, failed
	// fsyncs, bit rot, power cuts) compose with faultnet's network faults.
	// Only meaningful with DataDir.
	FS faultfs.FS
	// ScrubInterval, when positive, runs a background integrity scrubber
	// that re-reads and checksums a batch of store records each tick,
	// queueing any corrupt page for repair from its ring holders. 0 (the
	// default) disables background scrubbing; ScrubOnce remains available
	// either way. Only meaningful with DataDir.
	ScrubInterval time.Duration

	HeartbeatInterval time.Duration // default 500ms
	FailureThreshold  int           // default 3
	// CallTimeout (default 2s) bounds one partner call; bulk transfers
	// get 5× (see bulkTimeout). It is also the overload deadline: a write
	// that finds no admission slot, or no forward-queue space, within
	// CallTimeout is shed with ErrOverloaded, and forward frames slower
	// than CallTimeout/2 count toward the circuit breaker (overload.go).
	CallTimeout time.Duration

	// Replication pipeline knobs. MaxBatchPages caps how many pages the
	// forwarder group-commits into one MsgWriteFwd frame; MaxInflight caps
	// unacked frames on the wire. MaxBatchPages=1 with MaxInflight=1
	// degenerates to the old one synchronous round trip per write.
	MaxBatchPages int // default 64
	MaxInflight   int // default 4

	// DisableStreams turns off multi-stream write segregation: every
	// eviction flush is written under the default stream regardless of the
	// temperature the policy derived, reproducing the single-frontier
	// baseline. The A/B knob behind loadgen's -streams flag.
	DisableStreams bool

	// Victim-cache tier (internal/victim). VictimSegments > 0 enables a
	// log-structured on-flash victim cache that absorbs evicted-but-still-
	// warm pages: Hot/Warm evictions with demonstrated reuse are appended
	// to the victim log in addition to their durable home write, and read
	// misses probe the tier before paying a home-device read. 0 (the
	// default) disables the tier entirely — no extra flash writes, the
	// pre-tier read path. One segment of the log is one erase block of
	// the home device. AdmissionMinReuse is the popularity floor an
	// eviction must show to be admitted without ghost-index feedback
	// (0 = default 2). With DataDir set, sealed segments are mirrored to
	// a victim.log file there (best effort, never fsynced, never
	// reloaded — the tier is strictly a cache and starts cold after any
	// restart).
	VictimSegments    int
	AdmissionMinReuse int64

	// Dialer and Listener inject the transport. nil defaults to the real
	// net package (net.DialTimeout / net.Listen) at zero cost; tests and
	// chaos harnesses plug fault-injecting wrappers in here (see
	// internal/faultnet).
	Dialer   func(network, addr string, timeout time.Duration) (net.Conn, error)
	Listener func(network, addr string) (net.Listener, error)
}

func (c LiveConfig) withDefaults() LiveConfig {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 3
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.Policy == "" {
		c.Policy = buffer.PolicyLAR
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.EvictQueue <= 0 {
		c.EvictQueue = 64
	}
	if c.MaxBatchPages <= 0 {
		c.MaxBatchPages = 64
	}
	if c.MaxInflight <= 0 {
		// Small on purpose: the forwarder batches for as long as it waits
		// for a slot, so a modest window yields large group commits under
		// load while still overlapping round trips. See forwardLoop.
		c.MaxInflight = 4
	}
	if c.Replication <= 0 {
		c.Replication = 1
	}
	return c
}

// LiveStats counts live-node activity. All fields are updated and read
// atomically, so hot paths never take a lock just to bump a counter.
type LiveStats struct {
	Writes          int64
	Reads           int64
	Forwards        int64 // write ops whose backup was acked by the partner
	FwdFrames       int64 // MsgWriteFwd frames sent (Forwards/FwdFrames = batching factor)
	ForwardFailures int64
	DiscardDrops    int64 // advisory discards dropped on a saturated queue
	Persists        int64 // pages made durable
	HeartbeatsSent  int64
	HeartbeatMisses int64
	Failovers       int64
	Rebalances      int64
	// StaleRecoverySkips counts RCT pages ignored during RecoverFromPeer
	// because the local durable copy carried an equal or newer write
	// stamp (e.g. the page was written through degraded mode while the
	// partner still held an old backup).
	StaleRecoverySkips int64

	// Flush pipeline counters (see evictor.go).
	EvictorStalls   int64 // writers that blocked on a full eviction queue
	PersistFailures int64 // evictor batches that hit a persist error (pages stay pinned)

	// GC-aware drain scheduling counters.
	DrainDeferrals   int64 // evictor batches that paused for local GC pressure
	DiscardDeferrals int64 // discard batches held back for partner GC pressure

	// Group-commit fsync counters (see groupcommit.go), counted only on
	// nodes whose store fsyncs (DataDir with SyncWrites).
	GroupCommitBatches int64 // coalesced fsync passes run by the coordinator
	PagesSynced        int64 // pages covered by those passes (PagesSynced/GroupCommitBatches = pages per sync)

	// Lifecycle counters (see lifecycle.go).
	Suspects       int64 // Healthy→Suspect transitions (first heartbeat miss)
	Probes         int64 // probe round trips attempted while failed over
	ProbeFailures  int64 // probes the partner did not answer
	Rejoins        int64 // completed Resyncing→Healthy transitions after a failover
	ResyncedPages  int64 // degraded-write pages re-replicated during rejoins
	ResyncFailures int64 // resync streams aborted mid-flight (back to Degraded)
	JournalDrops   int64 // degraded writes not journaled (journal at capacity)

	// Overload counters.
	Overloads    int64 // writes shed with ErrOverloaded
	BreakerTrips int64 // circuit-breaker trips to Degraded on saturated forwards

	// Ring membership counters (see membership.go).
	EpochRejects      int64 // data-plane frames rejected for a stale ownership epoch
	MembershipChanges int64 // SetMembers reconfigurations applied

	// Storage-integrity counters (see scrub.go, pagestore.go).
	CorruptSlots      int64 // store records that failed checksum/self-description verification
	RepairedPages     int64 // corrupt/missing pages healed from ring holders (repair + recovery)
	ScrubPasses       int64 // completed full-store scrub sweeps
	FsyncPoisoned     int64 // store sections permanently poisoned by a failed fsync
	PoisonedEvictions int64 // evicted pages whose sync stage hit a poisoned section (stay pinned)

	// Victim-cache tier counters (see internal/victim). Unlike the fields
	// above these are not atomics bumped in place: Stats() fills them from
	// the tier's own snapshot, so the victim package stays the single
	// source of truth. All zero when the tier is disabled.
	VictimHits        int64 // read misses served from the victim log
	VictimMisses      int64 // victim probes that fell through to the store
	VictimAdmits      int64 // evicted pages admitted into the log
	VictimRejects     int64 // evicted pages that bypassed the tier (class or reuse gate)
	VictimEvictions   int64 // live entries dropped by whole-segment reclamation
	VictimGhostAdmits int64 // admissions granted by ghost-index re-admission feedback
	VictimFillAdmits  int64 // admissions earned on the read-miss fill path (repeat-miss proof)
	VictimInvalidates int64 // entries dropped because a newer version persisted elsewhere
	// Write-amp accounting from the tier's internal/flash model: the
	// tier's own flash programs and erases (its entire write cost — GC
	// copies are provably zero by segment discipline).
	VictimPrograms int64
	VictimErases   int64
}

// LatencyStats summarizes a latency distribution; quantiles are in
// milliseconds.
type LatencyStats struct {
	Count               int64
	P50, P95, P99, P999 float64
}

// liveShard is the per-shard slice of the node's write-path state. All of
// it is guarded by the corresponding shard lock of n.buf (the node locks
// a shard with n.buf.LockShard and then owns the shard's cache AND these
// maps for the critical section), so one Write touches exactly the locks
// of the shards its pages map to.
type liveShard struct {
	dirtyData  map[int64][]byte    // payloads of locally buffered dirty pages
	dirtyStamp map[int64]uint64    // write stamps of those pages
	inflight   map[int64]flushPage // evicted pages pinned until the evictor persists them
	evictq     chan flushJob       // this shard's flush pipeline

	// persistMu serializes every durable-store mutation for this shard's
	// pages (evictor flush, degraded write-through, FlushAll, Trim,
	// recovery) so the stamp-guarded read-check-put in persistSet is
	// atomic. Crucially it is a different lock than the shard data lock:
	// the evictor holds only persistMu across the slow device write +
	// store fsync, so reads and writes on the shard proceed while an
	// eviction flush is in flight (pinned pages stay readable from the
	// inflight map). Lock order: persistMu → shard lock → n.mu; never
	// acquire persistMu while holding a shard lock.
	persistMu sync.Mutex
}

// LiveNode is a FlashCoop storage server over real TCP. It owns a
// lock-striped policy buffer with an actual data plane (page payloads), a
// simulated SSD for timing/wear accounting, and a remote store of partner
// backups. The serving hot path is sharded by logical block number: each
// shard has its own cache instance, dirty-page and stamp maps, degraded-
// write journal bucket, page-store stripe, and background evictor, so
// concurrent clients only collide when they touch the same block range.
// Eviction flushing is asynchronous (see evictor.go): Access never writes
// the SSD inline; evicted pages stay pinned readable until a background
// evictor persists them in batched sequential runs. Backup forwarding is
// pipelined: writers enqueue onto a coalescing forward queue and a single
// forwarder goroutine group-commits batches over the peer client's duplex
// connection (see forwarder.go, peerclient.go).
type LiveNode struct {
	cfg LiveConfig

	buf      *buffer.Sharded
	shards   []liveShard
	stampCtr atomic.Uint64 // monotonic write stamp; resumes from store.maxStamp()
	store    *shardedStore // the "SSD" contents (durable medium); internally synchronized
	victim   *victim.Cache // flash victim-cache tier; nil when disabled
	gc       *groupCommit  // fsync coordinator; nil unless the store fsyncs
	devMu    sync.Mutex    // serializes the timing/wear model (ssd.Device is not thread-safe)
	dev      *ssd.Device
	pageSize int

	// Device pacing (see SetDevicePacing). pacing gates the
	// sleeps; victimQ is the victim log's own serial-service queue (the
	// home device has one inside ssd.Device), and the two service
	// constants are one page's read/program cost on the tier's medium.
	pacing        atomic.Bool
	victimQMu     sync.Mutex
	victimQ       sim.Queue
	victimReadSvc sim.VTime
	victimProgSvc sim.VTime

	// mu guards the partner-facing state: the per-origin backup holds,
	// every link's lifecycle machine and degraded-write journal, and the
	// membership fields (links/ring/epoch/members). Lock ordering: a shard
	// lock may be taken before n.mu (degraded writes journal under both);
	// n.mu must never wait on a shard lock.
	mu      sync.Mutex
	closing bool // set by shutdown before stop closes; gates prober starts

	// Partner links and ring layout (all guarded by n.mu; hot paths read
	// the immutable snapshot in rs instead). members is the full sorted
	// member list including selfID; epoch 0 means never configured.
	links   []*peerLink
	ring    *Ring
	epoch   uint64
	members []string
	selfID  string

	// rs is the atomic routing snapshot (see peerlink.go); epochA mirrors
	// epoch so the serve loop's stale-frame check never takes n.mu.
	rs     atomic.Pointer[ringState]
	epochA atomic.Uint64

	// Per-origin backup holds, keyed by the sending member's ID, with the
	// remote-page budget split across them by observed write intensity
	// (rebalance.go). remoteBudget starts at RemotePages; every Eq. 1
	// round sets it to θ of the pooled memory.
	remotes      map[string]*remoteHold
	remoteBudget int
	// infoBase holds, per asking member, the cumulative [reads, writes]
	// at its previous MsgWorkloadInfo query (see writeFracSince).
	infoBase map[string][2]int64

	// localPressure caches this node's GC-pressure reading as float bits,
	// refreshed under devMu whenever the device is touched (and on each
	// heartbeat); each link's pressure atomic holds what that partner last
	// gossiped. Atomics, so the evictor's drain check and the forwarders'
	// deferral checks never take a lock.
	localPressure atomic.Uint64

	admit chan struct{} // write admission semaphore (admissionLimit slots)

	// Storage-integrity machinery (see scrub.go). repairSet is the dedup'd
	// queue of LPNs awaiting repair from ring holders (fed by load-time
	// scan, runtime read verification, and the scrubber); poisonCh carries
	// fsync-poison events from store sections to the watcher goroutine —
	// the poison hook can fire under persistMu + shard lock, so lifecycle
	// propagation must be asynchronous. poisonedAny is the Write fast
	// path's cheap gate.
	repairMu    sync.Mutex
	repairSet   map[int64]struct{}
	repairKick  chan struct{}
	poisonCh    chan error
	poisonedAny atomic.Bool

	stats    LiveStats   // atomic access only
	pageFree chan []byte // recycled page-size buffers for dirty and backup payloads

	writeLat *metrics.StripedLatencyHist // full Write latency, ms
	fwdLat   *metrics.StripedLatencyHist // forward enqueue-to-ack latency, ms

	ln        net.Listener
	ppb       int // device pages per erase block (block routing granularity)
	start     time.Time
	stop      chan struct{}
	stopOnce  sync.Once
	storeOnce sync.Once // Close and Crash both release the store
	storeErr  error
	wg        sync.WaitGroup

	connsMu sync.Mutex
	conns   map[net.Conn]struct{}
}

// NewLiveNode constructs the node, binds its listener, and starts serving
// partner requests. Call ConnectPeer (and optionally StartHeartbeat) next.
func NewLiveNode(cfg LiveConfig) (*LiveNode, error) {
	if cfg.PeerAddr != "" && len(cfg.Peers) > 0 {
		return nil, fmt.Errorf("cluster %s: PeerAddr and Peers are mutually exclusive", cfg.Name)
	}
	cfg = cfg.withDefaults()
	dev, err := ssd.New(cfg.SSD)
	if err != nil {
		return nil, fmt.Errorf("cluster %s: %w", cfg.Name, err)
	}
	buf, err := buffer.NewSharded(cfg.Policy, cfg.BufferPages, dev.PagesPerBlock(), cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("cluster %s: %w", cfg.Name, err)
	}
	ns := buf.NumShards()
	store := newShardedMemStore(ns, dev.PagesPerBlock())
	if cfg.DataDir != "" {
		fsys := cfg.FS
		if fsys == nil {
			fsys = faultfs.OS()
		}
		store, err = newShardedFileStore(fsys, cfg.DataDir, dev.PageSize(), cfg.SyncWrites, ns, dev.PagesPerBlock())
		if err != nil {
			return nil, err
		}
	}
	var vc *victim.Cache
	if cfg.VictimSegments > 0 {
		var mirror faultfs.File
		if cfg.DataDir != "" {
			fsys := cfg.FS
			if fsys == nil {
				fsys = faultfs.OS()
			}
			// Mirror failures are non-fatal: the tier degrades to RAM-index-
			// only (same hit behavior, no flash-resident copy to debug from).
			mirror, _ = fsys.OpenFile(filepath.Join(cfg.DataDir, "victim.log"))
		}
		vc, err = victim.New(victim.Config{
			Segments:     cfg.VictimSegments,
			SegmentPages: dev.PagesPerBlock(),
			PageSize:     dev.PageSize(),
			MinReuse:     cfg.AdmissionMinReuse,
			Log:          mirror,
		})
		if err != nil {
			store.close()
			return nil, fmt.Errorf("cluster %s: %w", cfg.Name, err)
		}
	}
	listen := cfg.Listener
	if listen == nil {
		listen = net.Listen
	}
	ln, err := listen("tcp", cfg.ListenAddr)
	if err != nil {
		store.close()
		if vc != nil {
			vc.Close()
		}
		return nil, fmt.Errorf("cluster %s: %w", cfg.Name, err)
	}
	n := &LiveNode{
		cfg:          cfg,
		buf:          buf,
		shards:       make([]liveShard, ns),
		store:        store,
		victim:       vc,
		dev:          dev,
		pageSize:     dev.PageSize(),
		ppb:          dev.PagesPerBlock(),
		remoteBudget: cfg.RemotePages,
		infoBase:     make(map[string][2]int64),
		admit:        make(chan struct{}, admissionLimit),
		writeLat:     metrics.NewStripedLatencyHist(ns),
		fwdLat:       metrics.NewStripedLatencyHist(ns),
		ln:           ln,
		start:        time.Now(),
		stop:         make(chan struct{}),
		conns:        make(map[net.Conn]struct{}),
	}
	n.selfID = cfg.NodeID
	if n.selfID == "" {
		n.selfID = ln.Addr().String()
	}
	n.stampCtr.Store(store.maxStamp())
	// The victim log is NAND like the home device, so its per-page
	// service costs come from the same geometry; what it lacks is the
	// home device's GC and write queue, which is the whole trade.
	n.victimReadSvc = cfg.SSD.FTL.Flash.ReadLatency + cfg.SSD.FTL.Flash.BusLatency
	n.victimProgSvc = cfg.SSD.FTL.Flash.ProgramLatency + cfg.SSD.FTL.Flash.BusLatency
	for i := range n.shards {
		n.shards[i] = liveShard{
			dirtyData:  make(map[int64][]byte),
			dirtyStamp: make(map[int64]uint64),
			inflight:   make(map[int64]flushPage),
			evictq:     make(chan flushJob, cfg.EvictQueue),
		}
	}
	n.pageFree = make(chan []byte, pageFreePages)
	if cfg.DataDir != "" && cfg.SyncWrites {
		// The coordinator lives on n.stop, which Close only fires after
		// FlushAll — so shutdown-path persists still group-commit. A pass
		// has room for every shard's evictor plus stragglers (FlushAll,
		// degraded write-throughs).
		n.gc = newGroupCommit(4*cfg.Shards, n.stop, &n.stats)
		n.wg.Add(1)
		go n.gc.run(&n.wg)
	}
	// Integrity hooks must be wired before any evictor or serve goroutine
	// can touch the store (they fire from flush/getInto deep inside persist
	// critical sections).
	n.initIntegrity()
	n.wg.Add(1 + ns)
	go n.acceptLoop()
	for i := 0; i < ns; i++ {
		go n.evictLoop(i)
	}
	peers := cfg.Peers
	if cfg.PeerAddr != "" {
		peers = []string{n.selfID, cfg.PeerAddr}
	}
	if len(peers) > 0 {
		if err := n.SetMembers(1, peers); err != nil {
			n.Close()
			return nil, err
		}
	}
	return n, nil
}

// syncSection makes the store section holding anchor durable, covering at
// least every put that preceded the call; pages is how many pages the
// caller's puts covered (accounting only). On a node whose store fsyncs,
// the request goes through the group-commit coordinator and coalesces
// with every other pending section sync into one batched pass. Only the
// one section is synced: a persist batch always stays within one shard,
// and syncing the sibling sections too would convoy every evictor's fsync
// stream on every other's.
//
// Once n.stop has closed the sync fails fast with errNodeClosing, without
// touching the file: the caller counts a persist failure and keeps its
// pages pinned, so the sync stages still draining after a Crash flush
// nothing.
func (n *LiveNode) syncSection(anchor int64, pages int) error {
	select {
	case <-n.stop:
		return errNodeClosing
	default:
	}
	sec := n.store.sub(anchor)
	if n.gc != nil {
		return n.gc.sync(sec, pages)
	}
	return sec.flush()
}

// bulkTimeout bounds the large single-frame transfers — the RCT fetch and
// clean of RecoverFromPeer, repair fetches, membership pushes and each
// MsgResync chunk — so a hung partner cannot wedge them forever, without
// tarring a big but healthy frame with the per-page CallTimeout.
func (n *LiveNode) bulkTimeout() time.Duration { return 5 * n.cfg.CallTimeout }

// pageFreePages bounds the page free list: enough to absorb the churn of
// a flush unit or a discard frame, small enough (512 KiB of 4 KB pages)
// that the pages it pins barely move the heap's GC target.
const pageFreePages = 128

// getPage takes a page-size buffer from the free list, allocating only
// when it is empty. A bounded channel rather than a sync.Pool: putting a
// slice into a Pool boxes its header (one allocation per recycle), and a
// Pool is emptied by every GC cycle, so the hot path would re-allocate
// 4 KB pages in GC-paced bursts.
func (n *LiveNode) getPage() []byte {
	select {
	case p := <-n.pageFree:
		return p
	default:
		return make([]byte, n.pageSize)
	}
}

// putPage returns a page to the free list; a full list drops it to the
// collector.
func (n *LiveNode) putPage(p []byte) {
	select {
	case n.pageFree <- p:
	default:
	}
}

// refreshGCPressureLocked re-reads the FTL's GC pressure into the atomic
// mirror. Caller holds devMu (the device is not thread-safe).
func (n *LiveNode) refreshGCPressureLocked() {
	n.localPressure.Store(math.Float64bits(n.dev.GCPressure()))
}

// localGCPressure reports the last observed local GC pressure in [0,1].
func (n *LiveNode) localGCPressure() float64 {
	return math.Float64frombits(n.localPressure.Load())
}

// GCPressure reports the node's own current GC pressure in [0,1],
// refreshing the cached reading from the FTL.
func (n *LiveNode) GCPressure() float64 {
	n.devMu.Lock()
	n.refreshGCPressureLocked()
	n.devMu.Unlock()
	return n.localGCPressure()
}

// StreamStats is a snapshot of the device's per-stream flash counters:
// host programs by temperature tag, and erases / GC page copies by the
// erased or copied-from block's stream bucket. The extra trailing bucket
// (index stream.NumStreams) collects blocks never host-tagged since their
// last erase — GC destination blocks and pre-stream history.
type StreamStats struct {
	Programs [stream.NumStreams]int64
	Erases   [stream.NumStreams + 1]int64
	Copies   [stream.NumStreams + 1]int64
}

// StreamStats snapshots the per-stream flash counters.
func (n *LiveNode) StreamStats() StreamStats {
	n.devMu.Lock()
	st := n.dev.FTL().Flash().Stats()
	n.devMu.Unlock()
	return StreamStats{Programs: st.StreamPrograms, Erases: st.StreamErases, Copies: st.StreamCopies}
}

// Addr reports the node's listen address.
func (n *LiveNode) Addr() string { return n.ln.Addr().String() }

// Stats returns a snapshot of the node's counters.
func (n *LiveNode) Stats() LiveStats {
	s := LiveStats{
		Writes:             atomic.LoadInt64(&n.stats.Writes),
		Reads:              atomic.LoadInt64(&n.stats.Reads),
		Forwards:           atomic.LoadInt64(&n.stats.Forwards),
		FwdFrames:          atomic.LoadInt64(&n.stats.FwdFrames),
		ForwardFailures:    atomic.LoadInt64(&n.stats.ForwardFailures),
		DiscardDrops:       atomic.LoadInt64(&n.stats.DiscardDrops),
		Persists:           atomic.LoadInt64(&n.stats.Persists),
		HeartbeatsSent:     atomic.LoadInt64(&n.stats.HeartbeatsSent),
		HeartbeatMisses:    atomic.LoadInt64(&n.stats.HeartbeatMisses),
		Failovers:          atomic.LoadInt64(&n.stats.Failovers),
		Rebalances:         atomic.LoadInt64(&n.stats.Rebalances),
		StaleRecoverySkips: atomic.LoadInt64(&n.stats.StaleRecoverySkips),
		EvictorStalls:      atomic.LoadInt64(&n.stats.EvictorStalls),
		PersistFailures:    atomic.LoadInt64(&n.stats.PersistFailures),
		DrainDeferrals:     atomic.LoadInt64(&n.stats.DrainDeferrals),
		DiscardDeferrals:   atomic.LoadInt64(&n.stats.DiscardDeferrals),
		GroupCommitBatches: atomic.LoadInt64(&n.stats.GroupCommitBatches),
		PagesSynced:        atomic.LoadInt64(&n.stats.PagesSynced),
		Suspects:           atomic.LoadInt64(&n.stats.Suspects),
		Probes:             atomic.LoadInt64(&n.stats.Probes),
		ProbeFailures:      atomic.LoadInt64(&n.stats.ProbeFailures),
		Rejoins:            atomic.LoadInt64(&n.stats.Rejoins),
		ResyncedPages:      atomic.LoadInt64(&n.stats.ResyncedPages),
		ResyncFailures:     atomic.LoadInt64(&n.stats.ResyncFailures),
		JournalDrops:       atomic.LoadInt64(&n.stats.JournalDrops),
		Overloads:          atomic.LoadInt64(&n.stats.Overloads),
		BreakerTrips:       atomic.LoadInt64(&n.stats.BreakerTrips),
		EpochRejects:       atomic.LoadInt64(&n.stats.EpochRejects),
		MembershipChanges:  atomic.LoadInt64(&n.stats.MembershipChanges),
		CorruptSlots:       atomic.LoadInt64(&n.stats.CorruptSlots),
		RepairedPages:      atomic.LoadInt64(&n.stats.RepairedPages),
		ScrubPasses:        atomic.LoadInt64(&n.stats.ScrubPasses),
		FsyncPoisoned:      atomic.LoadInt64(&n.stats.FsyncPoisoned),
		PoisonedEvictions:  atomic.LoadInt64(&n.stats.PoisonedEvictions),
	}
	if n.victim != nil {
		vs, fs := n.victim.Snapshot()
		s.VictimHits = vs.Hits
		s.VictimMisses = vs.Misses
		s.VictimAdmits = vs.Admits
		s.VictimRejects = vs.Rejects
		s.VictimEvictions = vs.Evictions
		s.VictimGhostAdmits = vs.GhostAdmits
		s.VictimFillAdmits = vs.FillAdmits
		s.VictimInvalidates = vs.Invalidates
		s.VictimPrograms = fs.Programs
		s.VictimErases = fs.Erases
	}
	return s
}

// VictimEnabled reports whether the flash victim-cache tier is on.
func (n *LiveNode) VictimEnabled() bool { return n.victim != nil }

// VictimFlashStats snapshots the victim tier's own flash counters (zero
// value when the tier is disabled). The tier's write cost is Programs;
// CopyReads/CopyPrograms stay zero by segment discipline.
func (n *LiveNode) VictimFlashStats() flash.Stats {
	if n.victim == nil {
		return flash.Stats{}
	}
	return n.victim.FlashStats()
}

// WriteLatencyStats reports percentiles of the full Write path (local
// buffering + forward ack, or degraded write-through).
func (n *LiveNode) WriteLatencyStats() LatencyStats {
	return snapshotLatency(n.writeLat)
}

// ForwardLatencyStats reports percentiles of the forward enqueue-to-ack
// leg alone.
func (n *LiveNode) ForwardLatencyStats() LatencyStats {
	return snapshotLatency(n.fwdLat)
}

func snapshotLatency(s *metrics.StripedLatencyHist) LatencyStats {
	h := s.Snapshot()
	return LatencyStats{Count: h.Count(), P50: h.P50(), P95: h.P95(), P99: h.P99(), P999: h.P999()}
}

func (n *LiveNode) recordLatency(h *metrics.StripedLatencyHist, since time.Time) {
	h.Add(float64(time.Since(since)) / float64(time.Millisecond))
}

// PeerAlive reports whether cooperative buffering is currently on with
// EVERY partner: each link Healthy, or Suspect with its session still
// live. A link that failed over stays not-alive until a resync completes,
// however many heartbeats succeed in between.
func (n *LiveNode) PeerAlive() bool {
	links := n.linksSnapshot()
	for _, l := range links {
		if !l.alive.Load() {
			return false
		}
	}
	return len(links) > 0
}

// PeerLifecycle reports the partner lifecycle state: with one link, that
// link's state; with several, Healthy only when all are Healthy, else the
// first non-healthy link's state (per-link detail is in PeerStates).
func (n *LiveNode) PeerLifecycle() PeerState {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.links) == 0 {
		return StateDegraded
	}
	for _, l := range n.links {
		if l.lc.state != StateHealthy {
			return l.lc.state
		}
	}
	return StateHealthy
}

// syncAliveLocked refreshes every link's hot-path alive mirror; it must
// be called before releasing n.mu in every critical section that fed a
// lifecycle an event (or changed the link set).
func (n *LiveNode) syncAliveLocked() {
	for _, l := range n.links {
		l.alive.Store(l.lc.alive())
	}
}

// Device exposes the timing/wear model. The node serializes its own
// accesses internally; external callers should treat it as read-only
// while the node is serving.
func (n *LiveNode) Device() *ssd.Device { return n.dev }

// Buffer exposes the local buffer as its thread-safe sharded aggregate.
// Inspection (Len, DirtyLen, IsDirty, Stats) is safe while serving;
// mutating it from outside bypasses the node's dirty-payload bookkeeping
// and is only sound on a quiesced node.
func (n *LiveNode) Buffer() buffer.Cache { return n.buf }

// NumShards reports the hot-path shard count.
func (n *LiveNode) NumShards() int { return len(n.shards) }

// RemoteLen reports the number of partner pages backed up here, summed
// over every origin's hold.
func (n *LiveNode) RemoteLen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, h := range n.remotes {
		total += h.store.Len()
	}
	return total
}

// RemoteContains reports whether lpn is backed up here for any origin.
func (n *LiveNode) RemoteContains(lpn int64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, h := range n.remotes {
		if h.store.Contains(lpn) {
			return true
		}
	}
	return false
}

// vnow maps wall-clock time onto the device's virtual time line.
func (n *LiveNode) vnow() sim.VTime { return sim.FromDuration(time.Since(n.start)) }

// paceDevice blocks until the home device model's completion time for an
// operation has passed on the wall clock. Call with no locks held (or
// only persistMu: the flush pipeline sleeping here is precisely how
// device pacing turns into writer backpressure). No-op when pacing is
// off.
func (n *LiveNode) paceDevice(done sim.VTime) {
	if !n.pacing.Load() {
		return
	}
	if w := done.Duration() - time.Since(n.start); w > 0 {
		time.Sleep(w)
	}
}

// paceVictim charges one victim-log flash operation to the tier's own
// serial queue and sleeps to its completion. The victim log has no GC
// and absorbs only admission programs, so this queue stays near-empty —
// the latency asymmetry against the GC-loaded home device is exactly
// what the tier trades its extra flash writes for.
func (n *LiveNode) paceVictim(service sim.VTime) {
	if !n.pacing.Load() {
		return
	}
	n.victimQMu.Lock()
	_, done := n.victimQ.Serve(n.vnow(), service)
	n.victimQMu.Unlock()
	if w := done.Duration() - time.Since(n.start); w > 0 {
		time.Sleep(w)
	}
}

// SetDevicePacing turns device pacing on or off. Pacing converts the SSD
// timing model's completion times into wall-clock waiting: every
// device-charged operation — read-miss fills, eviction flush bursts,
// victim-tier hits and admission programs — sleeps until the model says
// it would complete, so measured latency reflects the modeled medium
// (including reads queueing behind home writes and GC) instead of the
// host's page cache. Flush pacing propagates to writers as ordinary
// buffer/queue backpressure, which keeps the device queue's backlog
// bounded. Nodes start unpaced, so tests and non-benchmark callers keep
// the model's books at host speed. Benchmarks run seed and warmup phases
// unpaced, re-anchor the model with ResetDeviceMeasurement, and pace only
// the measured window.
func (n *LiveNode) SetDevicePacing(on bool) { n.pacing.Store(on) }

// ResetDeviceMeasurement clears the home device model's queue backlog
// and op counters under the device lock (the wear state ages on). An
// unpaced phase leaves the queue's busy-until far ahead of the wall
// clock; re-anchoring keeps that virtual backlog from being billed to
// the first paced operations that follow.
func (n *LiveNode) ResetDeviceMeasurement() {
	n.devMu.Lock()
	n.dev.ResetMeasurement()
	n.devMu.Unlock()
}

// errNoPeer is returned by partner operations on a solo node.
var errNoPeer = errors.New("cluster: no peer configured")

// ConnectPeer dials every partner, performs the hello exchange, and walks
// each link's lifecycle to Healthy — including a resync of any degraded-
// write journal, so a reconnect after an outage never skips
// re-replication. Returns the first error; remaining links are still
// attempted (their probers retry the stragglers).
func (n *LiveNode) ConnectPeer() error {
	links := n.linksSnapshot()
	if len(links) == 0 {
		return errNoPeer
	}
	var firstErr error
	for _, l := range links {
		n.mu.Lock()
		healthy := l.lc.state == StateHealthy
		n.mu.Unlock()
		if healthy {
			continue
		}
		resp, err := l.client.call(&Message{Type: MsgHello})
		if err == nil && resp.Type != MsgHelloAck {
			err = fmt.Errorf("cluster: unexpected hello response %v", resp.Type)
		}
		if err == nil {
			err = l.rejoin()
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// StartHeartbeat launches the background availability monitor.
func (n *LiveNode) StartHeartbeat() {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(n.cfg.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-t.C:
				n.heartbeatOnce()
			}
		}
	}()
}

func (n *LiveNode) heartbeatOnce() {
	links := n.linksSnapshot()
	if len(links) == 0 {
		return
	}
	// One GC-pressure reading covers the whole round.
	pressure := n.GCPressure()
	for _, l := range links {
		atomic.AddInt64(&n.stats.HeartbeatsSent, 1)
		// Each heartbeat carries this node's GC pressure and brings back
		// the partner's: the gossip that drives GC-aware drain scheduling
		// rides the existing liveness exchange, no extra round trips.
		resp, err := l.client.call(&Message{Type: MsgHeartbeat, Pressure: pressure, Origin: n.selfID})
		if err == nil {
			l.pressure.Store(math.Float64bits(resp.Pressure))
		}
		n.mu.Lock()
		if l.removed {
			n.mu.Unlock()
			continue
		}
		var act lcAction
		if err == nil {
			act = l.lc.heartbeatOK()
		} else {
			atomic.AddInt64(&n.stats.HeartbeatMisses, 1)
			before := l.lc.state
			act = l.lc.heartbeatMiss()
			if before == StateHealthy && l.lc.state != StateHealthy {
				atomic.AddInt64(&n.stats.Suspects, 1)
			}
		}
		n.syncAliveLocked()
		n.mu.Unlock()
		n.applyLinkAction(l, act)
	}
}

// Write stores one page-aligned write. data must be pages*PageSize bytes.
//
// The local part — buffer insert and dirty payload capture, per shard run
// — happens under only the shard locks the pages map to; evictions are
// handed to the shard's background evictor instead of being persisted
// inline. The backup forward happens outside all locks: the write is
// queued onto the forwarder, which coalesces it with other pending writes
// into one frame, and the caller blocks only until its batch's ack
// arrives — many Write goroutines therefore share round trips and overlap
// with each other's local work.
func (n *LiveNode) Write(lpn int64, data []byte) error {
	ps := n.pageSize
	if len(data) == 0 || len(data)%ps != 0 {
		return fmt.Errorf("cluster %s: write of %d bytes not page aligned", n.cfg.Name, len(data))
	}
	pages := len(data) / ps
	t0 := time.Now()
	if err := n.admitWrite(); err != nil {
		return err
	}
	defer n.releaseWrite()
	// A write whose pages land in a poisoned store section can never be
	// made durable — fail fast instead of acking and buffering data with
	// no way down (see ErrSyncPoisoned). The atomic gate keeps the check
	// off the hot path until a poisoning actually happens.
	if n.poisonedAny.Load() {
		for i := 0; i < pages; i++ {
			if n.store.sub(lpn + int64(i)).poisoned() {
				return fmt.Errorf("cluster %s: %w", n.cfg.Name, ErrSyncPoisoned)
			}
		}
	}
	atomic.AddInt64(&n.stats.Writes, 1)

	ws := writeScratchPool.Get().(*writeScratch)
	reuse := true
	defer func() {
		if reuse {
			clear(ws.copies)
			writeScratchPool.Put(ws)
		}
	}()
	// Copy payloads into pooled buffers before taking any lock.
	ws.lpns, ws.stamps, ws.copies = resize(ws.lpns, pages), resize(ws.stamps, pages), resize(ws.copies, pages)
	lpns, stamps, copies := ws.lpns, ws.stamps, ws.copies
	for i := 0; i < pages; i++ {
		lpns[i] = lpn + int64(i)
		pg := n.getPage()
		copy(pg, data[i*ps:(i+1)*ps])
		copies[i] = pg
	}

	ws.runs = n.buf.AppendRuns(ws.runs[:0], lpn, pages)
	runs := ws.runs
	for _, run := range runs {
		sh := &n.shards[run.Shard]
		n.buf.LockShard(run.Shard)
		c := n.buf.ShardCache(run.Shard)
		res := c.Access(buffer.Request{LPN: run.LPN, Pages: run.Pages, Write: true})
		for p := run.LPN; p < run.LPN+int64(run.Pages); p++ {
			i := int(p - lpn)
			if old := sh.dirtyData[p]; old != nil {
				n.putPage(old)
			}
			sh.dirtyData[p] = copies[i]
			st := n.stampCtr.Add(1)
			stamps[i] = st
			sh.dirtyStamp[p] = st
		}
		jobs := n.extractFlushLocked(sh, res.Flush)
		n.buf.UnlockShard(run.Shard)
		n.enqueueFlush(run.Shard, jobs)
	}

	// Forward phase: plan the write's pages onto their owner links (the
	// ring successors of each page's erase block), enqueue one group per
	// live owner, then
	// wait for EVERY group's ack — the payload slices ride to the socket
	// by reference, so no frame may still be in flight when Write returns.
	rs := n.rs.Load()
	var targets map[int64][]*peerLink
	if rs != nil {
		n.planForward(rs, lpns, &ws.plan)
		groups := ws.plan.groups
		targets = ws.plan.targets
		if len(groups) > 0 {
			tf := time.Now()
			for len(ws.dones) < len(groups) {
				ws.dones = append(ws.dones, make(chan error, 1))
			}
			for gi := range groups {
				g := &groups[gi]
				g.err = g.link.enqueueForward(gather(lpns, g.idxs, 1), gather(stamps, g.idxs, 1), gather(data, g.idxs, ps), ws.dones[gi])
			}
			for gi := range groups {
				g := &groups[gi]
				if g.err != nil {
					continue // never queued
				}
				// Also watch n.stop: an entry enqueued as a forwarder exits
				// would otherwise wait forever for an ack nobody sends.
				select {
				case g.err = <-ws.dones[gi]:
				case <-n.stop:
					g.err = errNodeClosing
				}
			}
			overloaded, failed := false, false
			for _, g := range groups {
				switch {
				case g.err == nil:
				case errors.Is(g.err, ErrOverloaded):
					overloaded = true
				default:
					failed = true
				}
			}
			// A failed or abandoned forward may still be read by a frame
			// encoder (or acked into its channel later): its scratch is
			// left to the collector.
			reuse = !overloaded && !failed
			if overloaded {
				// Shedding is not a peer failure: the partners are fine, we
				// are saturated. The write fails fast unacked (its pages stay
				// dirty locally and get persisted by normal eviction).
				return ErrOverloaded
			}
			if !failed && targets == nil {
				atomic.AddInt64(&n.stats.Forwards, 1)
				n.recordLatency(n.fwdLat, tf)
				n.recordLatency(n.writeLat, t0)
				return nil
			}
			if failed {
				atomic.AddInt64(&n.stats.ForwardFailures, 1)
				for _, g := range groups {
					if g.err == nil {
						continue
					}
					g.link.noteForwardFailed()
					if targets == nil {
						targets = make(map[int64][]*peerLink)
					}
					for _, idx := range g.idxs {
						targets[lpns[idx]] = append(targets[lpns[idx]], g.link)
					}
				}
			}
		}
	}
	// Degraded mode: pages whose owners are down (or whose forward just
	// failed) have no backup; write the request through synchronously —
	// and journal those pages into each missing owner's per-link journal
	// so its resync stream re-replicates them on rejoin.
	for _, run := range runs {
		if err := n.writeThroughRun(run, lpn, stamps, targets); err != nil {
			return err
		}
	}
	n.recordLatency(n.writeLat, t0)
	return nil
}

// writeScratch is one Write call's working set: the shard runs, the page
// LPNs, stamps and buffer copies, the forward plan, and one ack channel
// per planned group. Write takes it from writeScratchPool and returns it
// only when every forward it carried was acked: the LPN and stamp slices
// ride in the queued frames by reference, so a failed or abandoned
// forward's scratch is left to the collector.
type writeScratch struct {
	runs   []buffer.ShardRun
	lpns   []int64
	stamps []uint64
	copies [][]byte
	plan   fwdPlan
	dones  []chan error
}

var writeScratchPool = sync.Pool{New: func() any { return new(writeScratch) }}

// writeThroughRun synchronously persists one shard run of a degraded
// write and journals it for the next resync of each link in targets. The
// pages are found in the shard's dirty map — or, if a concurrent access
// evicted them between the buffering phase and here, pinned in the
// inflight map; both are this write's (or a newer) version and both must
// be durable before the write is acked without a full backup set.
func (n *LiveNode) writeThroughRun(run buffer.ShardRun, base int64, stamps []uint64, targets map[int64][]*peerLink) error {
	sh := &n.shards[run.Shard]
	sh.persistMu.Lock()
	defer sh.persistMu.Unlock()
	n.buf.LockShard(run.Shard)
	defer n.buf.UnlockShard(run.Shard)

	var dirty, pinned []flushPage
	for p := run.LPN; p < run.LPN+int64(run.Pages); p++ {
		if d := sh.dirtyData[p]; d != nil {
			dirty = append(dirty, flushPage{lpn: p, data: d, stamp: sh.dirtyStamp[p]})
		} else if fp, ok := sh.inflight[p]; ok {
			pinned = append(pinned, fp)
		}
	}
	err := n.persistResident(run.Shard, dirty, pinned)
	// Journal every targeted page of the run under n.mu so no insert can
	// race a resync stream's empty-check+flip critical section. Pages
	// persisted by a concurrent eviction moments ago still need the
	// journal entry — their backup never reached that partner either.
	if len(targets) > 0 {
		n.mu.Lock()
		for p := run.LPN; p < run.LPN+int64(run.Pages); p++ {
			for _, l := range targets[p] {
				n.journalLinkLocked(l, p, stamps[p-base])
			}
		}
		n.mu.Unlock()
	}
	return err
}

// admitWrite claims one admission slot, shedding the write with
// ErrOverloaded when none frees up within CallTimeout. The fast path is
// one non-blocking channel send.
func (n *LiveNode) admitWrite() error {
	select {
	case n.admit <- struct{}{}:
		return nil
	case <-n.stop:
		return errNodeClosing
	default:
	}
	t := time.NewTimer(n.cfg.CallTimeout)
	defer t.Stop()
	select {
	case n.admit <- struct{}{}:
		return nil
	case <-t.C:
		atomic.AddInt64(&n.stats.Overloads, 1)
		return ErrOverloaded
	case <-n.stop:
		return errNodeClosing
	}
}

func (n *LiveNode) releaseWrite() { <-n.admit }

// Read returns the payload of `pages` pages starting at lpn in a new
// buffer the caller owns; see ReadInto.
func (n *LiveNode) Read(lpn int64, pages int) ([]byte, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("cluster %s: empty read", n.cfg.Name)
	}
	out := make([]byte, pages*n.pageSize)
	if err := n.ReadInto(lpn, pages, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto reads `pages` pages starting at lpn into dst, which must hold
// exactly pages × PageSize bytes. Unwritten pages read as zeros. The
// payload lookup chain per page is: the shard's dirty map (newest acked
// version) → the inflight map (evicted but not yet durable — a read
// during an in-flight flush must see the pinned dirty payload, never a
// half-persisted store state) → off the shard lock, the victim tier
// (buffer misses only; a hit skips the home read entirely) → the store,
// with the home device charged for the misses it actually serves.
//
// Every source copies its page straight into dst, once: no layer makes a
// page of its own. Only the RAM resolution (dirty/inflight) and the
// policy Access run under the shard lock; the victim probe, store reads,
// and device charges all run after it is released, so a miss-heavy
// reader no longer serializes writers to the same shard behind fill
// latency. The off-lock fill is race-safe because each source copies
// under its own synchronization (a store section under its lock or, for
// a file section, from a record it read and verified into its own pooled
// buffer; the victim tier under its lock), and a write racing the fill
// simply lands before or after it — the same either-version outcome any
// overlapping read/write pair has.
func (n *LiveNode) ReadInto(lpn int64, pages int, dst []byte) error {
	if pages <= 0 {
		return fmt.Errorf("cluster %s: empty read", n.cfg.Name)
	}
	ps := n.pageSize
	if len(dst) != pages*ps {
		return fmt.Errorf("cluster %s: read of %d pages into %d bytes", n.cfg.Name, pages, len(dst))
	}
	atomic.AddInt64(&n.stats.Reads, 1)
	// fills and misses start on the stack; a read longer than the arrays
	// grows them on the heap.
	var fillBuf, missBuf [16]int64
	var runBuf [4]buffer.ShardRun
	for _, run := range n.buf.AppendRuns(runBuf[:0], lpn, pages) {
		sh := &n.shards[run.Shard]
		fills, misses := fillBuf[:0], missBuf[:0]
		n.buf.LockShard(run.Shard)
		c := n.buf.ShardCache(run.Shard)
		res := c.Access(buffer.Request{LPN: run.LPN, Pages: run.Pages, Write: false})
		for p := run.LPN; p < run.LPN+int64(run.Pages); p++ {
			i := int(p - lpn)
			src := sh.dirtyData[p]
			if src == nil {
				if fp, ok := sh.inflight[p]; ok {
					src = fp.data
				}
			}
			if src != nil {
				copy(dst[i*ps:(i+1)*ps], src)
			} else {
				fills = append(fills, p)
			}
		}
		// The policy's result is valid only until its next Access, which
		// another reader may make once the lock drops: copy the misses.
		misses = append(misses, res.ReadMisses...)
		jobs := n.extractFlushLocked(sh, res.Flush)
		n.buf.UnlockShard(run.Shard)
		n.enqueueFlush(run.Shard, jobs)
		if derr := n.fillPages(dst, lpn, fills, misses); derr != nil {
			return derr
		}
	}
	return nil
}

// fillPages resolves one shard run's pages that RAM did not hold, with no
// shard lock held. fills is the pages absent from dirty/inflight and
// misses the policy's read-miss list for the same run, both ascending, so
// one merge walk tells which fills are buffer misses. Buffer misses probe
// the victim tier first; every remaining fill reads the store (clean
// buffer hits model RAM residency, so they are never device-charged), and
// a page no source holds is zeroed. The device is charged one read burst
// per CONTIGUOUS run of store-served misses, as the walk closes each run:
// a page served from RAM or the victim tier between two misses splits the
// charge instead of being billed as part of one run.
func (n *LiveNode) fillPages(out []byte, base int64, fills, misses []int64) error {
	ps := n.pageSize
	var runLPN int64 // first page of the pending device charge
	runLen := 0
	for _, p := range fills {
		for len(misses) > 0 && misses[0] < p {
			misses = misses[1:]
		}
		isMiss := len(misses) > 0 && misses[0] == p
		i := int(p - base)
		dst := out[i*ps : (i+1)*ps]
		if isMiss && n.victim != nil {
			if _, ok := n.victim.GetInto(p, dst); ok {
				n.paceVictim(n.victimReadSvc)
				continue
			}
		}
		if n.store.getInto(p, dst) {
			if isMiss && n.victim != nil {
				n.offerFill(p, dst)
			}
		} else {
			clear(dst)
		}
		if !isMiss {
			continue
		}
		if runLen > 0 && p == runLPN+int64(runLen) {
			runLen++
			continue
		}
		if err := n.chargeRead(runLPN, runLen); err != nil {
			return err
		}
		runLPN, runLen = p, 1
	}
	return n.chargeRead(runLPN, runLen)
}

// chargeRead bills one contiguous burst of store-served read misses to
// the home device and paces the reader to its completion; an empty burst
// costs nothing.
func (n *LiveNode) chargeRead(lpn int64, pages int) error {
	if pages == 0 {
		return nil
	}
	n.devMu.Lock()
	done, err := n.dev.Read(n.vnow(), lpn, pages)
	n.devMu.Unlock()
	if err != nil {
		return err
	}
	// Off the shard lock, so a paced miss delays only its own reader.
	n.paceDevice(done)
	return nil
}

// offerFill hands a store-served read miss to the victim tier's fill-side
// admission (ghost-gated: only a repeat miss earns the flash write; see
// victim.OfferFill), then re-validates the admission against the store.
// The fill runs with no lock ordering against persists, so a writer can
// slip a newer durable version in while we hold the older payload; the
// handshake that makes this safe is two-sided. persistSet — the one path
// by which a page becomes durable — runs a victim invalidate/offer both
// BEFORE and AFTER its store put (trim drops the entry around its
// remove), and the fill admits BEFORE re-reading the store stamp. So
// either the racing persist's store mutation precedes our recheck — the
// changed stamp makes us drop our own admission — or it follows it, and
// then the persist's post-mutation invalidate runs after our admit and
// kills the stale entry.
func (n *LiveNode) offerFill(lpn int64, data []byte) {
	stamp, ok := n.store.getStamp(lpn)
	if !ok {
		return // trimmed mid-fill; nothing durable to cache
	}
	admitted, _ := n.victim.OfferFill(lpn, stamp, data)
	if !admitted {
		return
	}
	if cur, ok := n.store.getStamp(lpn); !ok || cur != stamp {
		n.victim.Drop(lpn)
		return
	}
	// The admission's log append is this reader's to pay for.
	n.paceVictim(n.victimProgSvc)
}

// FlushAll persists every dirty page — buffered and in flight — across
// all shards (used at shutdown and on failover).
func (n *LiveNode) FlushAll() error {
	for si := range n.shards {
		sh := &n.shards[si]
		sh.persistMu.Lock()
		n.buf.LockShard(si)
		n.buf.ShardCache(si).FlushAll()
		dirty := make([]flushPage, 0, len(sh.dirtyData))
		for p, d := range sh.dirtyData {
			dirty = append(dirty, flushPage{lpn: p, data: d, stamp: sh.dirtyStamp[p]})
		}
		pinned := make([]flushPage, 0, len(sh.inflight))
		for _, fp := range sh.inflight {
			pinned = append(pinned, fp)
		}
		err := n.persistResident(si, dirty, pinned)
		n.buf.UnlockShard(si)
		sh.persistMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// RecoverFromPeer runs the local-failure recovery procedure after a
// restart: fetch the partner's RCT contents, persist them, and tell the
// partner to clean its remote buffer. Call it before serving writes.
//
// Backups are applied through applyPeerPages, under persistSet's
// write-stamp guard: a page whose intact local durable copy carries an
// equal or newer stamp is skipped (counted in StaleRecoverySkips). Without
// the guard, a partner that was wrongly declared dead — an asymmetric
// partition, or heartbeat timeouts under load — keeps serving old backups
// for pages this node has since written through degraded mode, and a
// blind recovery would roll acknowledged writes back to those stale
// versions.
func (n *LiveNode) RecoverFromPeer() error {
	links := n.linksSnapshot()
	if len(links) == 0 {
		return errNoPeer
	}
	var firstErr error
	for _, l := range links {
		// Every holder is drained even when one fails (the stamp guard
		// makes overlapping applies safe in any order); the first error is
		// reported so the caller knows recovery may be partial.
		if err := n.recoverFromLink(l); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// recoverFromLink fetches, applies, and cleans one holder's backup set.
// Holders file this node's backups under its member ID; the fetch names
// it so each holder returns OUR hold, not someone else's.
func (n *LiveNode) recoverFromLink(l *peerLink) error {
	// The RCT fetch moves the holder's whole remote buffer in one frame;
	// budget it as a bulk transfer, not a per-page call.
	resp, err := l.client.callT(&Message{Type: MsgFetchRCT, Origin: n.selfID}, n.bulkTimeout())
	if err != nil {
		return err
	}
	if resp.Type != MsgRCTData {
		return fmt.Errorf("cluster: unexpected RCT response %v", resp.Type)
	}
	ps := n.pageSize
	if len(resp.Data) != len(resp.LPNs)*ps {
		return fmt.Errorf("%w: RCT payload size mismatch", ErrBadFrame)
	}
	if len(resp.Stamps) != len(resp.LPNs) {
		return fmt.Errorf("%w: RCT stamp count mismatch", ErrBadFrame)
	}
	// Honor temperature tags if the partner's RCT carried them (per-LPN,
	// parallel to LPNs); absent tags write default-stream.
	tagged := len(resp.Streams) == len(resp.LPNs)
	items := make([]flushPage, len(resp.LPNs))
	for i, lpn := range resp.LPNs {
		items[i] = flushPage{lpn: lpn, data: resp.Data[i*ps : (i+1)*ps], stamp: resp.Stamps[i], strm: stream.Warm}
		if tagged {
			items[i].strm = resp.Streams[i]
		}
	}
	skipped, err := n.applyPeerPages(items)
	atomic.AddInt64(&n.stats.StaleRecoverySkips, int64(skipped))
	if err != nil {
		return err
	}
	_, err = l.client.callT(&Message{Type: MsgCleanRemote, Origin: n.selfID}, n.bulkTimeout())
	return err
}

// Close shuts the node down cleanly, flushing dirty data first.
func (n *LiveNode) Close() error {
	err := n.FlushAll()
	n.shutdown()
	n.wg.Wait()
	n.waitLinks()
	if cerr := n.closeStore(); err == nil {
		err = cerr
	}
	return err
}

// waitLinks reaps every link's goroutines (forwarder, completion, prober)
// after shutdown halted them. The link set is static by now:
// closing (set under n.mu before the halt) gates SetMembers.
func (n *LiveNode) waitLinks() {
	n.mu.Lock()
	links := append([]*peerLink(nil), n.links...)
	n.mu.Unlock()
	for _, l := range links {
		l.wg.Wait()
	}
}

// Crash simulates an abrupt failure: all networking stops and NOTHING is
// flushed — volatile state (buffered dirty pages AND evicted pages still
// in the flush pipeline) is lost exactly as on a power cut, while the
// durable page store (the "SSD") is released so a replacement node can
// reopen it. Used by failure-injection tests and the failover example.
func (n *LiveNode) Crash() {
	n.shutdown()
	n.wg.Wait()
	n.waitLinks()
	n.closeStore()
}

// closeStore releases the durable medium exactly once; Close and Crash
// may both run against the same node.
func (n *LiveNode) closeStore() error {
	n.storeOnce.Do(func() {
		n.storeErr = n.store.close()
		if n.victim != nil {
			// The mirror is expendable cache state; its close error never
			// masks a store close failure.
			n.victim.Close() //nolint:errcheck
		}
	})
	return n.storeErr
}

// shutdown stops the listener, all accepted connections, the evictors,
// and every partner link; it is safe to call more than once.
func (n *LiveNode) shutdown() {
	n.stopOnce.Do(func() {
		// Mark closing under the mutex first so no new prober goroutine
		// (or membership change) can wg.Add after wg.Wait has started.
		n.mu.Lock()
		n.closing = true
		links := append([]*peerLink(nil), n.links...)
		n.mu.Unlock()
		close(n.stop)
		n.ln.Close()
		n.connsMu.Lock()
		for c := range n.conns {
			c.Close()
		}
		n.connsMu.Unlock()
		for _, l := range links {
			l.halt()
		}
	})
}

// acceptLoop serves partner connections. Each conn is registered here,
// before its goroutine starts, under connsMu: shutdown closes stop before
// it sweeps conns under the same lock, so a conn accepted while the node
// closes is either swept or refused below — never left open under a
// serveConn that Close would wait on forever.
func (n *LiveNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.stop:
				return
			default:
				continue
			}
		}
		n.connsMu.Lock()
		select {
		case <-n.stop:
			n.connsMu.Unlock()
			conn.Close()
			return
		default:
		}
		n.conns[conn] = struct{}{}
		n.connsMu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveConn(conn)
		}()
	}
}

func (n *LiveNode) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		n.connsMu.Lock()
		delete(n.conns, conn)
		n.connsMu.Unlock()
	}()
	// Requests are read through one buffered reader: a pipelined burst of
	// forward frames arrives as one segment, so the header/body reads of
	// consecutive frames share syscalls instead of paying three each. Each
	// request decodes into the same Message and body buffer, and fixed-
	// shape replies are built in the same ack Message, so a forward round
	// trip allocates nothing here. Replies collect in one gather list and
	// leave in a single writev before any read that could block — every
	// ack ready when the burst drains shares one syscall — and the
	// checksum also protects the RCT recovery payloads.
	br := bufio.NewReaderSize(conn, 256<<10)
	var (
		req, ack Message
		body     []byte
		replies  frameBatch
	)
	defer replies.reset()
	// The request buffer kept between frames holds at most one full
	// MaxBatchPages forward frame: payload plus the LPN and stamp arrays,
	// with slack for the fixed fields and the origin.
	retain := n.cfg.MaxBatchPages*(n.pageSize+16) + 1<<10
	for {
		if k := replies.frames(); k > 0 && (k >= sendBatchFrames || !frameBuffered(br)) {
			if err := replies.flush(conn); err != nil {
				return
			}
		}
		if err := readFrameInto(br, &req, &body); err != nil {
			// Best effort: answer what was served before the stream broke;
			// the connection closes either way.
			_ = replies.flush(conn)
			return
		}
		// A frame bigger than one full forward batch (RCT fetch answers,
		// resync streams) was read into a one-off buffer: drop it rather
		// than pin up to MaxFrameBytes per connection.
		if cap(body) > retain {
			body = nil
		}
		resp := n.handle(&req, &ack)
		resp.Seq = req.Seq
		if err := replies.add(resp, nil); err != nil {
			return
		}
	}
}

// handle dispatches one partner request. Data-plane frames (forwards,
// resyncs, discards) are epoch-checked first: a frame routed under an
// older ring layout than ours is rejected so late traffic from a previous
// epoch can never land in (or drop from) a hold its sender no longer owns.
//
// m belongs to the connection and is overwritten by the next request, so
// handle copies whatever it keeps (payloads into pooled pages). Fixed-
// shape replies are built in ack, the connection's reusable reply, which
// the caller encodes before the next request; replies carrying a payload
// (RCT data, repair answers) and errors are fresh messages.
func (n *LiveNode) handle(m, ack *Message) *Message {
	switch m.Type {
	case MsgHello:
		return reply(ack, MsgHelloAck)
	case MsgHeartbeat:
		// Record the partner's gossiped GC pressure and answer with ours,
		// so one exchange refreshes both directions.
		if l := n.linkByOrigin(m.Origin); l != nil {
			l.pressure.Store(math.Float64bits(m.Pressure))
		}
		r := reply(ack, MsgHeartbeatAck)
		r.Pressure = n.GCPressure()
		return r
	case MsgWriteFwd:
		if rej := n.checkEpoch(m); rej != nil {
			return rej
		}
		return n.applyBackup(m, ack, MsgWriteAck)
	case MsgResync:
		// A partner re-replicating its degraded-write journal after an
		// outage. Identical stamp-guarded RCT insert as a live forward:
		// resync frames may interleave with fresh forwards once the
		// partner flips back to Healthy, and the newest stamp must win.
		if rej := n.checkEpoch(m); rej != nil {
			return rej
		}
		return n.applyBackup(m, ack, MsgResyncAck)
	case MsgDiscard:
		if rej := n.checkEpoch(m); rej != nil {
			return rej
		}
		n.mu.Lock()
		h := n.holdForLocked(m.Origin, false)
		if h == nil {
			// No backups held for this origin; nothing to drop.
			n.mu.Unlock()
			return reply(ack, MsgDiscardAck)
		}
		dropped := m.LPNs
		if len(m.Stamps) == len(m.LPNs) {
			// A discard only covers the version it was issued for: a
			// backup newer than the discard's stamp must survive. The
			// survivors are filtered out in place — the request is the
			// connection's scratch, and the write index never passes the
			// read index.
			dropped = dropped[:0]
			for i, lpn := range m.LPNs {
				if cur, ok := h.stamp[lpn]; ok && cur > m.Stamps[i] {
					continue
				}
				dropped = append(dropped, lpn)
			}
		}
		h.store.Discard(dropped)
		for _, lpn := range dropped {
			if pg := h.data[lpn]; pg != nil {
				n.putPage(pg)
				delete(h.data, lpn)
			}
			delete(h.stamp, lpn)
		}
		n.mu.Unlock()
		return reply(ack, MsgDiscardAck)
	case MsgFetchRCT:
		ps := n.pageSize
		n.mu.Lock()
		h := n.holdForLocked(m.Origin, false)
		if h == nil {
			n.mu.Unlock()
			return &Message{Type: MsgRCTData}
		}
		lpns := make([]int64, 0, h.store.Len())
		for lpn := range h.data {
			if h.store.Contains(lpn) {
				lpns = append(lpns, lpn)
			}
		}
		sort.Slice(lpns, func(i, j int) bool { return lpns[i] < lpns[j] })
		data := make([]byte, 0, len(lpns)*ps)
		stamps := make([]uint64, 0, len(lpns))
		for _, lpn := range lpns {
			data = append(data, h.data[lpn]...)
			stamps = append(stamps, h.stamp[lpn])
		}
		n.mu.Unlock()
		return &Message{Type: MsgRCTData, LPNs: lpns, Stamps: stamps, Data: data}
	case MsgRepair:
		// A partner asking for the newest backup copies it can get of
		// specific (corrupt on its side) pages. Unlike MsgFetchRCT this is
		// a targeted read-only probe: the hold is NOT cleaned — the pages
		// stay protected until the owner's normal discard flow drops them.
		n.mu.Lock()
		h := n.holdForLocked(m.Origin, false)
		var lpns []int64
		var stamps []uint64
		var data []byte
		if h != nil {
			for _, lpn := range m.LPNs {
				pg := h.data[lpn]
				if pg == nil || !h.store.Contains(lpn) {
					continue
				}
				lpns = append(lpns, lpn)
				stamps = append(stamps, h.stamp[lpn])
				data = append(data, pg...)
			}
		}
		n.mu.Unlock()
		return &Message{Type: MsgRepairResp, LPNs: lpns, Stamps: stamps, Data: data}
	case MsgCleanRemote:
		n.mu.Lock()
		if h := n.holdForLocked(m.Origin, false); h != nil {
			h.store.Drain()
			for lpn, pg := range h.data {
				n.putPage(pg)
				delete(h.data, lpn)
			}
			for lpn := range h.stamp {
				delete(h.stamp, lpn)
			}
		}
		n.mu.Unlock()
		return reply(ack, MsgCleanAck)
	case MsgMembership:
		// A partner proposing a new ring layout. Validate the frame shape
		// and epoch, then apply it through the same SetMembers path a local
		// administrator uses.
		if err := checkMembership(m, n.epochA.Load()); err != nil {
			return &Message{Type: MsgError, Err: err.Error()}
		}
		if err := n.SetMembers(m.Epoch, m.Members); err != nil {
			return &Message{Type: MsgError, Err: err.Error()}
		}
		r := reply(ack, MsgMembershipAck)
		r.Epoch = m.Epoch
		return r
	case MsgWorkloadInfo:
		r := reply(ack, MsgWorkloadInfoAck)
		r.Info = n.usage()
		r.Info.WriteFrac = n.writeFracSince(m.Origin)
		return r
	default:
		return &Message{Type: MsgError, Err: fmt.Sprintf("unhandled message %v", m.Type)}
	}
}

// reply resets the connection's reusable reply message to a bare
// response of type t.
func reply(ack *Message, t MsgType) *Message {
	*ack = Message{Type: t}
	return ack
}

// applyBackup inserts one frame of partner pages (a live MsgWriteFwd or a
// rejoin MsgResync) into the sender's hold under the write-stamp guard,
// copying each accepted page out of the frame, and answers in ack with
// type t.
func (n *LiveNode) applyBackup(m, ack *Message, t MsgType) *Message {
	ps := n.pageSize
	if len(m.Data) != len(m.LPNs)*ps {
		return &Message{Type: MsgError, Err: fmt.Sprintf("%v payload size mismatch", m.Type)}
	}
	if len(m.Stamps) != 0 && len(m.Stamps) != len(m.LPNs) {
		return &Message{Type: MsgError, Err: fmt.Sprintf("%v stamp count mismatch", m.Type)}
	}
	n.mu.Lock()
	h := n.holdForLocked(m.Origin, true)
	h.winInserts += int64(len(m.LPNs))
	h.store.Insert(m.LPNs)
	for i, lpn := range m.LPNs {
		if !h.store.Contains(lpn) {
			continue
		}
		var st uint64
		if len(m.Stamps) > 0 {
			st = m.Stamps[i]
		}
		// Writers enqueue forwards outside the node mutex, so two
		// backups for one page can arrive in either order; keep the
		// one with the newer stamp.
		if cur, ok := h.stamp[lpn]; ok && cur > st {
			continue
		}
		pg := h.data[lpn]
		if pg == nil {
			pg = n.getPage()
		}
		copy(pg, m.Data[i*ps:(i+1)*ps])
		h.data[lpn] = pg
		h.stamp[lpn] = st
	}
	n.gcHoldLocked(h)
	n.mu.Unlock()
	return reply(ack, t)
}

// SnapshotDirty returns a copy of the locally buffered dirty payloads —
// including evicted pages still pinned in the flush pipeline, which are
// volatile in exactly the same way — keyed by LPN. It is an inspection
// hook for invariant checkers (see internal/cluster/check); taking it
// briefly blocks the write path one shard at a time.
func (n *LiveNode) SnapshotDirty() map[int64][]byte {
	out := make(map[int64][]byte)
	for si := range n.shards {
		sh := &n.shards[si]
		n.buf.LockShard(si)
		for lpn, pg := range sh.dirtyData {
			cp := make([]byte, len(pg))
			copy(cp, pg)
			out[lpn] = cp
		}
		for lpn, fp := range sh.inflight {
			if _, ok := out[lpn]; ok {
				continue // a newer dirty version shadows the in-flight one
			}
			cp := make([]byte, len(fp.data))
			copy(cp, fp.data)
			out[lpn] = cp
		}
		n.buf.UnlockShard(si)
	}
	return out
}

// SnapshotRemoteFor returns a copy of the backups held here for one
// origin (a member ID), keyed by LPN; nil when no hold exists for it.
// Inspection hook for invariant checkers.
func (n *LiveNode) SnapshotRemoteFor(origin string) map[int64][]byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	h := n.holdForLocked(origin, false)
	if h == nil {
		return nil
	}
	out := make(map[int64][]byte, len(h.data))
	for lpn, pg := range h.data {
		if !h.store.Contains(lpn) {
			continue
		}
		cp := make([]byte, len(pg))
		copy(cp, pg)
		out[lpn] = cp
	}
	return out
}

// DurableGet returns a copy of the persisted payload for lpn, or nil when
// the page has never been flushed. Inspection hook for invariant checkers.
func (n *LiveNode) DurableGet(lpn int64) []byte {
	pg := make([]byte, n.pageSize)
	if !n.store.getInto(lpn, pg) {
		return nil
	}
	return pg
}
