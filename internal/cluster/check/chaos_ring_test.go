package check

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"flashcoop/internal/cluster"
	"flashcoop/internal/faultnet"
)

// The membership-churn harness drives an N-node cooperative ring under a
// seeded fault schedule while the member list itself churns: a node joins,
// a node leaves, a backup crashes and is crashed AGAIN mid-resync, and
// finally the primary (the node taking all client writes) crashes and
// recovers its RAM from the surviving holders. The pair suite's durability
// and discard-safety invariants are checked after every heal, with the
// remote side generalized to the UNION of every live member's per-origin
// hold — on a ring the primary's backups are spread across its partners,
// and after a reshape stale duplicates may linger on former owners.
//
// A failing run prints its seed; rerun one subtest with
//
//	CHAOS_SEED=<seed> go test -run 'TestChaosMembershipChurn/<seed>' ./internal/cluster/check

const ringSlots = 4 // 3-node initial ring + one joiner

// chaosRing is the harness state: slot 0 is the primary taking all client
// writes; slots 1..3 are backups that join, leave, and crash. Writers
// reach the current primary through the pointer guarded by mu.
type chaosRing struct {
	t      *testing.T
	seed   int64
	faults faultnet.Faults
	nets   []*faultnet.Network
	addrs  []string
	dir0   string // the primary's page store survives its crash

	mu     sync.RWMutex
	nodes  []*cluster.LiveNode
	inRing []bool // slots currently in the layout
	epoch  uint64
}

func (c *chaosRing) nodeConfig(name, addr, dir string, nw *faultnet.Network) cluster.LiveConfig {
	return cluster.LiveConfig{
		Name:       name,
		ListenAddr: addr,
		Policy:     "lar",
		// Same sizing rationale as the pair harness (chaos_test.go): the
		// RCT must cover the LPN space plus the flush-pipeline backlog so
		// capacity overflow never masquerades as a durability bug.
		BufferPages:       48,
		RemotePages:       chaosLPNSpace * 2,
		Shards:            chaosShards(),
		EvictQueue:        4,
		SSD:               chaosSSD(),
		DataDir:           dir,
		SyncWrites:        true,
		Replication:       1,
		HeartbeatInterval: 25 * time.Millisecond,
		FailureThreshold:  2,
		CallTimeout:       250 * time.Millisecond,
		Dialer:            nw.Dial,
		Listener:          nw.Listen,
	}
}

func (c *chaosRing) startNode(slot int, dir string) *cluster.LiveNode {
	cfg := c.nodeConfig(fmt.Sprintf("R%d", slot), c.addrs[slot], dir, c.nets[slot])
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, err := cluster.NewLiveNode(cfg)
		if err == nil {
			return n
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("seed %d: node R%d did not start: %v", c.seed, slot, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (c *chaosRing) waitFor(what string, cond func() bool) {
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			c.t.Fatalf("seed %d: timed out waiting for %s", c.seed, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// calmly retries op until it succeeds, suspending the fault schedule on
// every net if it keeps failing (as an operator running a reconfiguration
// would), and restoring it afterwards.
func (c *chaosRing) calmly(what string, op func() error) {
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
			for _, nw := range c.nets {
				nw.SetFaults(faultnet.Faults{})
			}
			calmed = true
		}
		time.Sleep(25 * time.Millisecond)
	}
	if calmed {
		for _, nw := range c.nets {
			nw.SetFaults(c.faults)
		}
	}
}

// layoutMembers is the member-ID list of the current layout.
func (c *chaosRing) layoutMembers() []string {
	var members []string
	for s := 0; s < ringSlots; s++ {
		if c.inRing[s] {
			members = append(members, c.addrs[s])
		}
	}
	return members
}

// propose pushes the current c.inRing layout through the primary's
// ProposeMembership and waits for every live member of the new layout to
// adopt the epoch. Broadcast failures re-propose (bumping the epoch), the
// documented retry path.
func (c *chaosRing) propose(what string) {
	members := c.layoutMembers()
	c.calmly(what, func() error {
		e, err := c.nodes[0].ProposeMembership(members)
		if err == nil {
			c.epoch = e
		}
		return err
	})
	c.waitFor(what+": epoch convergence", func() bool {
		for s := 0; s < ringSlots; s++ {
			if c.inRing[s] && c.nodes[s] != nil && c.nodes[s].RingEpoch() < c.epoch {
				return false
			}
		}
		return true
	})
}

// primarySees reports the primary's lifecycle state for a slot's link.
func (c *chaosRing) primarySees(slot int) (cluster.PeerState, bool) {
	st, ok := c.nodes[0].PeerStates()[c.addrs[slot]]
	return st, ok
}

// checkInvariants runs the ring-generalized checkers against the primary.
// Call only with writers quiesced (c.mu write-held or writers stopped).
func (c *chaosRing) checkInvariants(tr *Tracker, stage string) {
	var holders []RemoteHolder
	for s := 1; s < ringSlots; s++ {
		if c.nodes[s] != nil {
			holders = append(holders, c.nodes[s])
		}
	}
	vs := Durability(tr, c.nodes[0], c.addrs[0], holders...)
	vs = append(vs, DiscardSafety(tr, c.nodes[0], c.addrs[0], holders...)...)
	for _, v := range vs {
		c.t.Errorf("%s: %s", stage, v)
	}
	if len(vs) > 0 {
		c.t.Fatalf("invariant violations at %q; reproduce with CHAOS_SEED=%d", stage, c.seed)
	}
}

// crashBackupMidResync crashes a backup slot twice: once to drive the
// primary into degraded writes, and once more while the replacement is
// being resynced — the journal push must survive losing its target and
// complete against the second replacement.
func (c *chaosRing) crashBackupMidResync(slot int) {
	c.nodes[slot].Crash()
	c.nodes[slot] = nil
	c.waitFor(fmt.Sprintf("primary to see R%d dead", slot), func() bool {
		st, ok := c.primarySees(slot)
		return ok && st != cluster.StateHealthy && st != cluster.StateSuspect
	})
	time.Sleep(150 * time.Millisecond) // degraded writes pile up, journal grows

	// First replacement: fresh store, current layout. Crash it the moment
	// the primary's link leaves Degraded — mid-probe or mid-resync.
	n := c.startNode(slot, c.t.TempDir())
	if err := n.SetMembers(c.epoch, c.layoutMembers()); err != nil {
		c.t.Fatalf("seed %d: replacement R%d rejected layout: %v", c.seed, slot, err)
	}
	n.StartHeartbeat()
	c.waitFor(fmt.Sprintf("primary to start reviving R%d", slot), func() bool {
		st, _ := c.primarySees(slot)
		return st == cluster.StateProbing || st == cluster.StateResyncing || st == cluster.StateHealthy
	})
	n.Crash()
	c.waitFor(fmt.Sprintf("primary to see R%d dead again", slot), func() bool {
		st, ok := c.primarySees(slot)
		return ok && (st == cluster.StateDegraded || st == cluster.StateProbing)
	})

	// Second replacement heals for good.
	n = c.startNode(slot, c.t.TempDir())
	if err := n.SetMembers(c.epoch, c.layoutMembers()); err != nil {
		c.t.Fatalf("seed %d: replacement R%d rejected layout: %v", c.seed, slot, err)
	}
	c.calmly(fmt.Sprintf("replacement R%d hello", slot), n.ConnectPeer)
	n.StartHeartbeat()
	c.nodes[slot] = n
	c.waitFor(fmt.Sprintf("primary to heal R%d", slot), func() bool {
		st, _ := c.primarySees(slot)
		return st == cluster.StateHealthy
	})
}

func runChurn(t *testing.T, seed int64) {
	t.Logf("churn seed %d (rerun: CHAOS_SEED=%d go test -run 'TestChaosMembershipChurn/%d' ./internal/cluster/check)",
		seed, seed, seed)
	rng := rand.New(rand.NewSource(seed))
	faults := faultnet.Faults{
		DelayProb: 0.2,
		DelayMax:  2 * time.Millisecond,
		ResetProb: 0.01,
	}
	c := &chaosRing{
		t: t, seed: seed, faults: faults,
		nets:   make([]*faultnet.Network, ringSlots),
		addrs:  make([]string, ringSlots),
		nodes:  make([]*cluster.LiveNode, ringSlots),
		inRing: make([]bool, ringSlots),
		dir0:   t.TempDir(),
	}
	// One seq checker per network: faultnet conn IDs are per-Network, so a
	// shared checker would interleave different networks' streams under
	// one ID and cry wolf.
	taps := make([]*SeqChecker, ringSlots)
	for s := 0; s < ringSlots; s++ {
		c.nets[s] = faultnet.New(seed + int64(s))
		taps[s] = NewSeqChecker()
		c.nets[s].SetTap(taps[s])
		c.addrs[s] = "127.0.0.1:0"
	}

	// Bind all slots fault-free first to learn their fixed addresses;
	// replacements rebind the same address. Slot 3 starts outside the ring
	// (a solo node waiting to join).
	for s := 0; s < ringSlots; s++ {
		dir := c.dir0
		if s != 0 {
			dir = t.TempDir()
		}
		c.nodes[s] = c.startNode(s, dir)
		c.addrs[s] = c.nodes[s].Addr()
		c.inRing[s] = s < 3
	}
	closeNodes := func() {
		for _, n := range c.nodes {
			if n != nil {
				n.Close()
			}
		}
	}
	defer closeNodes()
	for s := 0; s < 3; s++ {
		if err := c.nodes[s].SetMembers(1, c.layoutMembers()); err != nil {
			t.Fatal(err)
		}
	}
	c.epoch = 1
	c.calmly("initial hello", c.nodes[0].ConnectPeer)
	for s := 0; s < ringSlots; s++ {
		c.nodes[s].StartHeartbeat()
	}
	for _, nw := range c.nets {
		nw.SetFaults(faults)
	}

	// Writers hammer the primary; disjoint LPN slices per writer keep the
	// Tracker's last-acked judgment sound (see chaos_test.go).
	tr := NewTracker()
	ps := c.nodes[0].Device().PageSize()
	stopWriters := startWriters(chaosWriters, func(w int, done <-chan struct{}) {
		wrng := rand.New(rand.NewSource(seed + int64(w)*0x9E3779B9))
		for {
			select {
			case <-done:
				return
			default:
			}
			lpn := int64(w) + chaosWriters*wrng.Int63n(chaosLPNSpace/chaosWriters)
			data := make([]byte, ps)
			wrng.Read(data)
			id := tr.Attempt(lpn, data)
			c.mu.RLock()
			err := c.nodes[0].Write(lpn, data)
			c.mu.RUnlock()
			if err == nil {
				tr.Acked(lpn, id)
			}
			time.Sleep(time.Millisecond)
		}
	})
	defer stopWriters()
	// quiesced checks the invariants with the writers paused; the lock is
	// released even when the check fails the test (see startWriters).
	quiesced := func(stage string) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.checkInvariants(tr, stage)
	}

	// --- Phase 0: warm up with ring replication traffic.
	c.waitFor("warmup writes", func() bool { return tr.Ops() >= chaosMinOps })

	// --- Phase 1: JOIN. Slot 3 enters; the reshape re-journals moved
	// blocks to their new owners while writes keep flowing.
	c.inRing[3] = true
	c.propose("join of R3")
	c.calmly("joined R3 hello", c.nodes[3].ConnectPeer)
	quiesced("after join")

	// --- Phase 2: LEAVE. A seed-picked backup departs. It is deliberately
	// NOT told (removed members are typically gone): it keeps running with
	// the stale layout and its late frames must bounce off everyone's
	// epoch gate, never land in a hold.
	gone := 1 + rng.Intn(3)
	c.inRing[gone] = false
	c.propose(fmt.Sprintf("leave of R%d", gone))
	// Drive client writes through the departed node: it still routes by
	// the old layout, so its forwards (and, once it degrades and its
	// prober revives a link, its resync pushes) carry the stale epoch and
	// must bounce off the survivors' epoch gate instead of landing in a
	// hold they no longer own.
	staleData := make([]byte, ps)
	c.waitFor("a stale-epoch frame to bounce", func() bool {
		_ = c.nodes[gone].Write(int64(rng.Intn(chaosLPNSpace)), staleData)
		var rejects int64
		for s := 0; s < ringSlots; s++ {
			if s != gone && c.nodes[s] != nil {
				rejects += c.nodes[s].Stats().EpochRejects
			}
		}
		return rejects > 0
	})
	quiesced("after leave")

	// --- Phase 3: crash-mid-resync on a remaining backup.
	var backups []int
	for s := 1; s < ringSlots; s++ {
		if c.inRing[s] {
			backups = append(backups, s)
		}
	}
	victim := backups[rng.Intn(len(backups))]
	c.crashBackupMidResync(victim)
	quiesced("after backup crash-mid-resync")

	// --- Phase 4: REJOIN the departed member (still running, still on the
	// stale epoch — the proposal must override it).
	c.inRing[gone] = true
	c.propose(fmt.Sprintf("rejoin of R%d", gone))
	c.calmly(fmt.Sprintf("rejoined R%d hello", gone), c.nodes[gone].ConnectPeer)
	quiesced("after rejoin")

	// --- Phase 5: PRIMARY crash. Its RAM (dirty buffer + flush pipeline)
	// is lost; the replacement reopens the same page store and recovers
	// the lost pages from every surviving holder's per-origin hold, newest
	// stamp winning across holders.
	func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.nodes[0].Crash()
		p2 := c.startNode(0, c.dir0)
		if err := p2.SetMembers(c.epoch, c.layoutMembers()); err != nil {
			c.t.Fatalf("seed %d: replacement primary rejected layout: %v", c.seed, err)
		}
		c.calmly("post-crash hello", p2.ConnectPeer)
		c.calmly("recover from ring", p2.RecoverFromPeer)
		p2.StartHeartbeat()
		c.nodes[0] = p2
		c.checkInvariants(tr, "after primary crash+recovery")
	}()

	// --- Wind down and verify.
	time.Sleep(150 * time.Millisecond)
	stopWriters()

	quiesced("final state")

	// Read-back: the primary must serve a tracked value for every acked page.
	for _, lpn := range tr.Pages() {
		got, err := c.nodes[0].Read(lpn, 1)
		if err != nil {
			t.Fatalf("seed %d: final read of lpn %d: %v", seed, lpn, err)
		}
		if !tr.Valid(lpn, got) {
			t.Errorf("final read of lpn %d returned an untracked value; reproduce with CHAOS_SEED=%d", lpn, seed)
		}
	}
	// Close the nodes first: a response can be tapped before the write
	// that carried its request has finished tapping, so a parked response
	// is only conclusive once no connection is left mid-write.
	closeNodes()
	for s, tap := range taps {
		for _, v := range tap.Violations() {
			t.Errorf("wire (net R%d): %s (reproduce with CHAOS_SEED=%d)", s, v, seed)
		}
	}
	if n := tr.Ops(); n < chaosMinOps {
		t.Errorf("only %d write attempts; the schedule must drive at least %d", n, chaosMinOps)
	}

	st := c.nodes[0].Stats()
	var rejects int64
	for s := 1; s < ringSlots; s++ {
		if c.nodes[s] != nil {
			rejects += c.nodes[s].Stats().EpochRejects
		}
	}
	t.Logf("ops=%d acked_pages=%d epoch=%d forwards=%d fwd_failures=%d failovers=%d membership_changes=%d peer_epoch_rejects=%d",
		tr.Ops(), len(tr.Pages()), c.epoch, st.Forwards, st.ForwardFailures, st.Failovers,
		st.MembershipChanges, rejects)
}

// TestChaosMembershipChurn runs the churn script under framing-preserving
// faults on three derived seeds (override the base with CHAOS_SEED); every
// seed must complete the full join/leave/crash-mid-resync/rejoin/primary-
// crash cycle with zero invariant violations.
func TestChaosMembershipChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short mode")
	}
	base := chaosSeed(t)
	for i := int64(0); i < 3; i++ {
		seed := base + i*1000
		t.Run(fmt.Sprintf("%d", seed), func(t *testing.T) { runChurn(t, seed) })
	}
}
