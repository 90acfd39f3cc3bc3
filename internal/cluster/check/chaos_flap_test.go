package check

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"flashcoop/internal/faultnet"
)

// flapCycles reports how many partition/heal cycles the link-flap run
// drives: default 4, overridable with CHAOS_FLAPS (CI uses a shorter
// budget for the -race smoke). The acceptance floor is 3.
func flapCycles(t *testing.T) int {
	cycles := 4
	if s := os.Getenv("CHAOS_FLAPS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("bad CHAOS_FLAPS %q", s)
		}
		cycles = v
	}
	return cycles
}

// TestChaosLinkFlap exercises the peer lifecycle state machine under a
// flapping link: repeated asymmetric partitions cut A→B while 8 writers
// run, so A fails over, writes through (journaling every page), then — on
// each heal — probes, resyncs the journal into B's RCT, and resumes
// cooperative buffering. The durability and discard-safety invariants are
// checked after every heal and at the end; the old silent-rejoin bug
// (peerAlive flipped back by one good heartbeat, skipping resync) fails
// this test on the first cycle.
func TestChaosLinkFlap(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short mode")
	}
	seed := chaosSeed(t) + 200
	cycles := flapCycles(t)
	t.Logf("chaos seed %d (rerun: CHAOS_SEED=%d go test -run %s ./internal/cluster/check)", seed, seed, t.Name())

	tap := NewSeqChecker()
	c := &chaosPair{
		t:    t,
		seed: seed,
		netA: faultnet.New(seed),
		netB: faultnet.New(seed + 1),
		// Framing-preserving faults so the seq tap stays meaningful; the
		// flapping itself is the failure mode under test.
		faults: faultnet.Faults{
			DelayProb: 0.2,
			DelayMax:  2 * time.Millisecond,
			ResetProb: 0.01,
		},
		dirA: t.TempDir(),
	}
	c.netA.SetTap(tap)
	c.netB.SetTap(tap)

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

	c.netA.SetFaults(c.faults)
	c.netB.SetFaults(c.faults)

	// Same writer scheme as runChaos: disjoint LPN slices, random
	// payloads, ack tracked only on success — a write shed with
	// ErrOverloaded is an unacked attempt like any other failure.
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

	c.waitFor("warmup writes", func() bool { return tr.Ops() >= 100 })

	for cycle := 1; cycle <= cycles; cycle++ {
		rejoinsBefore := c.a.Stats().Rejoins

		// Cut A→B only (asymmetric: B never notices). Forwards fail, A
		// degrades and journals its write-throughs.
		c.netA.SetPartitioned(true)
		c.waitFor(fmt.Sprintf("cycle %d: A to fail over", cycle), func() bool {
			return !c.a.PeerAlive()
		})
		time.Sleep(150 * time.Millisecond) // degraded writes pile into the journal

		// Heal. A must probe, stream the journal, and only then rejoin.
		c.netA.SetPartitioned(false)
		c.waitFor(fmt.Sprintf("cycle %d: resynced rejoin", cycle), func() bool {
			return c.a.PeerAlive() && c.a.Stats().Rejoins > rejoinsBefore
		})
		time.Sleep(100 * time.Millisecond) // cooperative traffic resumes

		// Quiesce the writers (they hold RLock per op) and verify the
		// invariants hold after this heal.
		c.quiesced(func() { c.checkInvariants(tr, fmt.Sprintf("after heal %d", cycle)) })
	}

	stopWriters()
	c.checkInvariants(tr, "final state")

	// Read-back: every acked page serves a tracked value (no lost acked
	// writes, no stale rollbacks).
	for _, lpn := range tr.Pages() {
		got, err := c.a.Read(lpn, 1)
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
	for _, v := range tap.Violations() {
		t.Errorf("wire: %s (reproduce with CHAOS_SEED=%d)", v, seed)
	}

	st := c.a.Stats()
	if st.Rejoins < int64(cycles) {
		t.Errorf("Rejoins = %d, want >= %d (one resynced rejoin per heal)", st.Rejoins, cycles)
	}
	if st.ResyncedPages < 1 {
		t.Errorf("ResyncedPages = %d: degraded writes were never re-replicated", st.ResyncedPages)
	}
	if st.Failovers < int64(cycles) {
		t.Errorf("Failovers = %d, want >= %d", st.Failovers, cycles)
	}
	t.Logf("ops=%d acked_pages=%d failovers=%d suspects=%d probes=%d probe_failures=%d rejoins=%d resynced=%d resync_failures=%d journal_drops=%d overloads=%d net_steps=%d",
		tr.Ops(), len(tr.Pages()), st.Failovers, st.Suspects, st.Probes, st.ProbeFailures,
		st.Rejoins, st.ResyncedPages, st.ResyncFailures, st.JournalDrops, st.Overloads, c.netA.Steps())
}
