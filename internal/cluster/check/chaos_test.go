package check

import (
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"flashcoop/internal/cluster"
	"flashcoop/internal/faultnet"
	"flashcoop/internal/flash"
	"flashcoop/internal/ftl"
	"flashcoop/internal/ssd"
	"flashcoop/internal/transport"
)

// The chaos harness drives a localhost cooperative pair with concurrent
// writers under a seeded fault schedule while crashing and recovering both
// sides, then checks the durability invariants at every quiescent point.
// A failing run prints its seed; rerun it with
//
//	CHAOS_SEED=<seed> go test -run TestChaos ./internal/cluster/check
//
// The default seed is fixed so CI stays stable; set CHAOS_SEED to explore.
//
// The fault model is single-failure: the script never takes both nodes
// down at once, matching the paper's availability argument — an acked
// write may live only in one node's RAM plus the partner's RAM, so losing
// both simultaneously is unrecoverable by design.
//
// Each writer owns a disjoint slice of the LPN space (lpn ≡ writer mod
// chaosWriters). With one writer per page, the order in which a page's
// writes are acknowledged is the order they took effect, which is what
// makes the Tracker's "last acked value must survive" judgment sound; two
// concurrent writers racing one page could have their acks observed in
// either order and the checker would cry wolf.

func chaosSeed(t *testing.T) int64 {
	seed := int64(20260805)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	return seed
}

const (
	chaosWriters  = 8
	chaosLPNSpace = 128 // small space forces overwrites and evictions
	chaosMinOps   = 200 // the run must exercise at least this many writes
)

// chaosShards picks the hot-path shard count (CHAOS_SHARDS to override;
// default 4 so the suite always runs the striped configuration).
func chaosShards() int {
	if s := os.Getenv("CHAOS_SHARDS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 4
}

func chaosSSD() ssd.Config {
	return ssd.Config{
		Scheme: "page",
		FTL:    ftl.Config{Flash: flash.Small(256, 8), OPRatio: 0.2},
	}
}

// chaosPair is the harness state: node A takes all client writes, node B
// is its backup partner. Crash cycles swap in replacement nodes; writers
// reach the current A through the pointer guarded by mu.
type chaosPair struct {
	t            *testing.T
	seed         int64
	netA, netB   *faultnet.Network
	faults       faultnet.Faults
	addrA, addrB string
	dirA         string

	// mutate, when set, adjusts every node config before use (the
	// GC-throttled drill tightens the spare pool and defer thresholds).
	mutate func(*cluster.LiveConfig)

	mu sync.RWMutex // writers hold R around each op; cycles hold W to swap A
	a  *cluster.LiveNode
	b  *cluster.LiveNode
}

func (c *chaosPair) nodeConfig(name, addr, dir string, nw *faultnet.Network) cluster.LiveConfig {
	cfg := cluster.LiveConfig{
		Name:       name,
		ListenAddr: addr,
		Policy:     "lar",
		// RemotePages covers the whole LPN space so the RCT never drops a
		// backup for capacity — that overflow is a documented sizing
		// tradeoff (core.RemoteStore), not the bug class hunted here.
		// ... it also gives the RCT room for the flush-pipeline backlog:
		// evicted pages pinned in flight are volatile beyond BufferPages,
		// so the partner must hold more than BufferPages backups or an
		// overflow drop could lose an acked write to a crash (the sizing
		// rule in DESIGN.md §11).
		BufferPages: 48,
		RemotePages: chaosLPNSpace * 2,
		// Stripe the hot path and keep the per-shard eviction queues tiny
		// so the chaos run constantly exercises evictor backpressure and
		// reads that overlap in-flight flushes.
		Shards:            chaosShards(),
		EvictQueue:        4,
		SSD:               chaosSSD(),
		DataDir:           dir,
		SyncWrites:        true, // evictions cross the group-commit section fsync
		HeartbeatInterval: 25 * time.Millisecond,
		FailureThreshold:  2,
		CallTimeout:       250 * time.Millisecond,
		Dialer:            nw.Dial,
		Listener:          nw.Listen,
	}
	if c.mutate != nil {
		c.mutate(&cfg)
	}
	return cfg
}

// startNode creates a node, retrying briefly: a replacement rebinds the
// crashed node's fixed address — partners file a node's backups under its
// member ID, which defaults to that address — and the bind can race the
// old socket's teardown.
func startNode(t *testing.T, seed int64, cfg cluster.LiveConfig) *cluster.LiveNode {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, err := cluster.NewLiveNode(cfg)
		if err == nil {
			return n
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: node %s did not start: %v", seed, cfg.Name, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// joinPair makes n a 2-member ring with peer at epoch 1: what
// LiveConfig.PeerAddr sets up at construction, for a node built before
// its partner's address was known.
func joinPair(t *testing.T, n *cluster.LiveNode, peer string) {
	t.Helper()
	if err := n.SetMembers(1, []string{n.Addr(), peer}); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func (c *chaosPair) waitFor(what string, cond func() bool) {
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			c.t.Fatalf("seed %d: timed out waiting for %s", c.seed, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// calmly retries op until it succeeds. If it keeps failing for a while the
// fault schedule is suspended — an operator running a recovery would stop
// the chaos drill too — and restored afterwards.
func (c *chaosPair) calmly(what string, op func() error) {
	start := time.Now()
	calmed := false
	for {
		err := op()
		if err == nil {
			break
		}
		if time.Since(start) > 12*time.Second {
			c.t.Fatalf("seed %d: %s never succeeded: %v", c.seed, what, err)
		}
		if !calmed && time.Since(start) > 3*time.Second {
			c.netA.SetFaults(faultnet.Faults{})
			c.netB.SetFaults(faultnet.Faults{})
			calmed = true
		}
		time.Sleep(25 * time.Millisecond)
	}
	if calmed {
		c.netA.SetFaults(c.faults)
		c.netB.SetFaults(c.faults)
	}
}

// checkInvariants runs the durability checkers against the current pair.
// Call only at quiescent points (writers paused or finished).
func (c *chaosPair) checkInvariants(tr *Tracker, stage string) {
	vs := Durability(tr, c.a, c.addrA, c.b)
	vs = append(vs, DiscardSafety(tr, c.a, c.addrA, c.b)...)
	for _, v := range vs {
		c.t.Errorf("%s: %s", stage, v)
	}
	if len(vs) > 0 {
		c.t.Fatalf("invariant violations at %q; reproduce with CHAOS_SEED=%d", stage, c.seed)
	}
}

// restartB replaces a crashed B with a fresh node on the same address and
// waits for A's heartbeat to revive the partnership.
// quiesced runs f with the writers paused (they hold c.mu's read lock
// around each op). The lock is released on the way out even when f fails
// the test, so the deferred writer shutdown cannot deadlock on it.
func (c *chaosPair) quiesced(f func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f()
}

// startWriters runs n writer goroutines, each calling body(w, done) and
// returning when done closes. The returned stop closes done and waits for
// every writer; it is idempotent, so a harness defers it at once and also
// calls it where its script winds down. A t.Fatal mid-script then still
// stops the writers before the deferred node shutdown runs, instead of
// leaving them writing into closed nodes — their ever-growing Tracker
// attempts would exhaust memory under the next test.
func startWriters(n int, body func(w int, done <-chan struct{})) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w, done)
		}(w)
	}
	return sync.OnceFunc(func() {
		close(done)
		wg.Wait()
	})
}

func (c *chaosPair) restartB() {
	c.b = startNode(c.t, c.seed, c.nodeConfig("B", c.addrB, c.t.TempDir(), c.netB))
	joinPair(c.t, c.b, c.addrA)
	c.waitFor("A to re-establish the pair", func() bool {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return c.a.PeerAlive()
	})
}

func runChaos(t *testing.T, seed int64, faults faultnet.Faults, tap *SeqChecker) {
	runChaosOver(t, seed, faults, tap, nil, nil)
}

// runChaosOver is runChaos with the fault layer stacked over a custom
// transport: a non-nil inet runs the whole drill on the in-process
// channel transport — same framing bytes, no loopback TCP — so the
// suite covers both the kernel path and the path the experiment grid
// uses.
func runChaosOver(t *testing.T, seed int64, faults faultnet.Faults, tap *SeqChecker, inet *transport.Net, mutate func(*cluster.LiveConfig)) cluster.LiveStats {
	t.Logf("chaos seed %d (rerun: CHAOS_SEED=%d go test -run %s ./internal/cluster/check)", seed, seed, t.Name())

	netA, netB := faultnet.New(seed), faultnet.New(seed+1)
	if inet != nil {
		netA = faultnet.NewOver(seed, inet.Dial, inet.Listen)
		netB = faultnet.NewOver(seed+1, inet.Dial, inet.Listen)
	}
	c := &chaosPair{
		t:      t,
		seed:   seed,
		netA:   netA,
		netB:   netB,
		faults: faults,
		dirA:   t.TempDir(),
		mutate: mutate,
	}
	if tap != nil {
		c.netA.SetTap(tap)
		c.netB.SetTap(tap)
	}

	// Bind both listeners fault-free on :0 first to learn the pair's
	// fixed addresses; replacement nodes rebind the same address.
	c.a = startNode(t, seed, c.nodeConfig("A", "127.0.0.1:0", c.dirA, c.netA))
	c.b = startNode(t, seed, c.nodeConfig("B", "127.0.0.1:0", t.TempDir(), c.netB))
	c.addrA, c.addrB = c.a.Addr(), c.b.Addr()
	joinPair(t, c.a, c.addrB)
	joinPair(t, c.b, c.addrA)
	c.calmly("initial hello", c.a.ConnectPeer)
	c.a.StartHeartbeat()
	closeNodes := func() {
		c.a.Close()
		c.b.Close()
	}
	defer closeNodes()

	c.netA.SetFaults(faults)
	c.netB.SetFaults(faults)

	// Writers hammer node A until the cycle script finishes. Payloads are
	// random pages, so distinct attempts to one LPN are distinguishable
	// when the checkers compare copies against the history.
	tr := NewTracker()
	ps := c.a.Device().PageSize()
	stopWriters := startWriters(chaosWriters, func(w int, done <-chan struct{}) {
		rng := rand.New(rand.NewSource(seed + int64(w)*0x9E3779B9))
		for {
			select {
			case <-done:
				return
			default:
			}
			lpn := int64(w) + chaosWriters*rng.Int63n(chaosLPNSpace/chaosWriters)
			data := make([]byte, ps)
			rng.Read(data)
			id := tr.Attempt(lpn, data)
			c.mu.RLock()
			err := c.a.Write(lpn, data)
			c.mu.RUnlock()
			if err == nil {
				tr.Acked(lpn, id)
			}
			time.Sleep(time.Millisecond)
		}
	})
	defer stopWriters()

	// --- Phase 0: warm up with live replication traffic.
	c.waitFor("warmup writes", func() bool { return tr.Ops() >= chaosMinOps+50 })

	// --- Phase 1: asymmetric partition. A cannot reach B, so forwards
	// fail and A degrades to write-through — while B, which can still
	// serve, keeps holding now-stale backups. Healing re-pairs them; the
	// stale backups stay on B until overwritten, arming the stale-recovery
	// trap that phase 3's crash must not fall into.
	c.netA.SetPartitioned(true)
	c.waitFor("A to declare B dead", func() bool { return !c.a.PeerAlive() })
	time.Sleep(200 * time.Millisecond) // degraded writes pile up
	c.netA.SetPartitioned(false)
	c.waitFor("partition to heal", func() bool { return c.a.PeerAlive() })

	// --- Phase 2: backup failure, triggered from inside the fault
	// schedule: a crash-at-step hook fires B's crash mid-traffic. A loses
	// the backup target, fails over, and flushes its dirty data durable.
	crashed := make(chan struct{})
	c.netB.CrashAt(c.netB.Steps()+20, func() {
		// The hook runs on one of B's connection goroutines; Crash waits
		// for those same goroutines, so it must run elsewhere.
		go func() {
			c.b.Crash()
			close(crashed)
		}()
	})
	select {
	case <-crashed:
	case <-time.After(15 * time.Second):
		t.Fatalf("seed %d: crash-at-step hook never fired", seed)
	}
	c.waitFor("A to fail over", func() bool { return !c.a.PeerAlive() })
	time.Sleep(150 * time.Millisecond) // failover flush + degraded writes
	c.restartB()

	// --- Phase 3: primary failure. A crashes mid-write, losing its RAM;
	// a replacement reopens the same page store and recovers the lost
	// dirty pages from B's RCT. Acked writes must all survive the swap.
	c.a.Crash()
	c.quiesced(func() {
		a2 := startNode(t, seed, c.nodeConfig("A", c.addrA, c.dirA, c.netA))
		joinPair(t, a2, c.addrB)
		c.calmly("post-crash hello", a2.ConnectPeer)
		c.calmly("recover from peer", a2.RecoverFromPeer)
		a2.StartHeartbeat()
		c.a = a2
		c.checkInvariants(tr, "after primary crash+recovery")
	})

	// --- Phase 4: second backup failure, this time a straight kill, so
	// both crash styles (mid-schedule hook and external) are exercised.
	time.Sleep(150 * time.Millisecond)
	c.b.Crash()
	c.waitFor("A to fail over again", func() bool { return !c.a.PeerAlive() })
	time.Sleep(150 * time.Millisecond)
	c.restartB()

	// --- Wind down and verify.
	time.Sleep(150 * time.Millisecond)
	stopWriters()

	c.checkInvariants(tr, "final state")

	// Read-back: node A must serve a tracked value for every acked page.
	for _, lpn := range tr.Pages() {
		got, err := c.a.Read(lpn, 1)
		if err != nil {
			t.Fatalf("seed %d: final read of lpn %d: %v", seed, lpn, err)
		}
		if !tr.Valid(lpn, got) {
			t.Errorf("final read of lpn %d returned an untracked value; reproduce with CHAOS_SEED=%d", lpn, seed)
		}
	}

	if tap != nil {
		// Close the nodes first: a response can be tapped before the write
		// that carried its request has finished tapping, so a parked response
		// is only conclusive once no connection is left mid-write.
		closeNodes()
		for _, v := range tap.Violations() {
			t.Errorf("wire: %s (reproduce with CHAOS_SEED=%d)", v, seed)
		}
	}
	if n := tr.Ops(); n < chaosMinOps {
		t.Errorf("only %d write attempts; the schedule must drive at least %d", n, chaosMinOps)
	}

	st := c.a.Stats()
	t.Logf("ops=%d acked_pages=%d forwards=%d fwd_failures=%d failovers=%d stale_recovery_skips=%d drain_defers=%d discard_defers=%d net_steps=%d/%d",
		tr.Ops(), len(tr.Pages()), st.Forwards, st.ForwardFailures, st.Failovers,
		st.StaleRecoverySkips, st.DrainDeferrals, st.DiscardDeferrals, c.netA.Steps(), c.netB.Steps())
	return st
}

// TestChaosClean runs the script under framing-preserving faults (latency
// and connection resets) with the wire-level seq checker tapped in.
func TestChaosClean(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short mode")
	}
	runChaos(t, chaosSeed(t), faultnet.Faults{
		DelayProb: 0.2,
		DelayMax:  2 * time.Millisecond,
		ResetProb: 0.01,
	}, NewSeqChecker())
}

// TestChaosCorrupting adds byte-level mangling — dropped, duplicated, and
// truncated frames — which desynchronizes framing and drives the decode/
// session-teardown/redial paths. No seq tap: reassembly is meaningless on
// a deliberately garbled stream.
func TestChaosCorrupting(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short mode")
	}
	runChaos(t, chaosSeed(t)+100, faultnet.Faults{
		DelayProb:    0.15,
		DelayMax:     time.Millisecond,
		DropProb:     0.003,
		DupProb:      0.006,
		TruncateProb: 0.003,
		ResetProb:    0.008,
	}, nil)
}

// TestChaosInproc runs the clean-fault script on the in-process channel
// transport (internal/transport) instead of loopback TCP: the durability
// invariants must hold on the exact framing code the experiment grid
// exercises.
func TestChaosInproc(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short mode")
	}
	runChaosOver(t, chaosSeed(t)+200, faultnet.Faults{
		DelayProb: 0.2,
		DelayMax:  2 * time.Millisecond,
		ResetProb: 0.01,
	}, NewSeqChecker(), transport.NewNet(), nil)
}

// TestChaosGCThrottled runs the clean-fault script with both nodes'
// spare pools squeezed so the FTLs report sustained GC pressure past the
// deferral threshold. The drain and discard deferral paths then fire
// while partitions, crashes, and recoveries run — and the
// same durability and discard-safety invariants must hold: deferral may
// delay flushes and advisory discards, never drop or misorder them.
func TestChaosGCThrottled(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short mode")
	}
	throttled := func(cfg *cluster.LiveConfig) {
		// A flash barely larger than the chaos LPN space: the write churn
		// fills it, simulated GC runs continuously, and the free pool
		// hovers at the watermarks so GCPressure stays high.
		cfg.SSD = ssd.Config{
			Scheme: "page",
			FTL:    ftl.Config{Flash: flash.Small(24, 8), OPRatio: 0.2},
		}
	}
	st := runChaosOver(t, chaosSeed(t)+300, faultnet.Faults{
		DelayProb: 0.2,
		DelayMax:  2 * time.Millisecond,
		ResetProb: 0.01,
	}, NewSeqChecker(), nil, throttled)
	// The drill only means something if the throttle actually engaged.
	if st.DrainDeferrals == 0 && st.DiscardDeferrals == 0 {
		t.Error("GC-throttled drill never deferred a drain or a discard; the pressure path did not engage")
	}
}
