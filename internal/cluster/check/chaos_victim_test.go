package check

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"flashcoop/internal/cluster"
	"flashcoop/internal/faultfs"
)

// The victim-tier chaos drill proves the flash victim cache is STRICTLY a
// cache: a power cut that tears the store mid-eviction also takes every
// victim-log entry with it, and nothing the cluster guarantees may depend
// on those entries surviving. The drill churns admissible (warm, reused)
// evictions through the tier until it is demonstrably serving reads, then
// crashes the node at a seeded I/O step, restarts over the damaged
// directory, and checks that (a) the reborn tier starts cold — zero hits
// served before new admissions — (b) every durability and discard-safety
// invariant holds against the full write history, and (c) the tier earns
// fresh admissions afterwards, so losing it cost performance and nothing
// else.
//
// A failing seed reruns with:
//
//	CHAOS_SEED=<seed> go test -run TestChaosVictimTierIsStrictlyCache ./internal/cluster/check

const victimChaosWriters = 4

func victimNodeConfig(name, addr, dir string, fs faultfs.FS) cluster.LiveConfig {
	cfg := diskNodeConfig(name, addr, dir, fs)
	// An 8x8-page tier over a 128-page LPN space: big enough that warm
	// evictions accumulate and segments seal, small enough that whole-
	// segment reclamation churns too.
	cfg.VictimSegments = 8
	return cfg
}

// TestChaosVictimTierIsStrictlyCache: crash + restart at three pinned
// seeds — the victim log's contents are forfeit at every crash, and no
// invariant may notice.
func TestChaosVictimTierIsStrictlyCache(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short mode")
	}
	base := chaosSeed(t)
	for _, seed := range []int64{base + 70, base + 1070, base + 2070} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runVictimChaos(t, seed)
		})
	}
}

// victimChurn drives one writer's share of admissible eviction traffic:
// half-block (4-page) writes issued twice back-to-back, so each block
// evicts Warm with demonstrated reuse (LAR counts a multi-page write as
// ONE access) and clears the tier's admission gate. Every page write is
// tracked; block ownership is disjoint per writer, so per-page ack order
// is sound for the Tracker.
func victimChurn(t *testing.T, a *cluster.LiveNode, tr *Tracker, w int, rng *rand.Rand, done <-chan struct{}) {
	ps := a.Device().PageSize()
	blocks := chaosLPNSpace / 8
	for {
		select {
		case <-done:
			return
		default:
		}
		blk := int64(w) + victimChaosWriters*rng.Int63n(int64(blocks)/victimChaosWriters)
		for pass := 0; pass < 2; pass++ {
			data := make([]byte, 4*ps)
			rng.Read(data)
			base := blk * 8
			ids := make([]uint64, 4)
			for i := 0; i < 4; i++ {
				ids[i] = tr.Attempt(base+int64(i), data[i*ps:(i+1)*ps])
			}
			if err := a.Write(base, data); err == nil {
				for i := 0; i < 4; i++ {
					tr.Acked(base+int64(i), ids[i])
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
}

func runVictimChaos(t *testing.T, seed int64) {
	t.Logf("victim chaos seed %d (rerun: CHAOS_SEED=%d go test -run TestChaosVictimTierIsStrictlyCache ./internal/cluster/check)", seed, seed)
	dirA := t.TempDir()
	inj := faultfs.New(seed)
	a, err := cluster.NewLiveNode(victimNodeConfig("A", "127.0.0.1:0", dirA, inj))
	if err != nil {
		t.Fatal(err)
	}
	if !a.VictimEnabled() {
		a.Close()
		t.Fatal("victim tier not enabled")
	}
	b, err := cluster.NewLiveNode(victimNodeConfig("B", "127.0.0.1:0", t.TempDir(), nil))
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	defer b.Close()
	addrA, addrB := a.Addr(), b.Addr()
	joinPair(t, a, addrB)
	joinPair(t, b, addrA)
	if err := a.ConnectPeer(); err != nil {
		t.Fatal(err)
	}
	a.StartHeartbeat()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: timed out waiting for %s", seed, what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// --- Phase 0: admissible churn until the tier is demonstrably live —
	// admissions flowing AND at least one read served from the log (the
	// probe reader sweeps the space; misses fall through harmlessly).
	tr := NewTracker()
	stopWriters := startWriters(victimChaosWriters, func(w int, done <-chan struct{}) {
		victimChurn(t, a, tr, w, rand.New(rand.NewSource(seed+int64(w)*0x9E3779B9)), done)
	})
	defer stopWriters()
	waitFor("warmup writes", func() bool { return tr.Ops() >= chaosMinOps })
	waitFor("victim admissions", func() bool { return a.Stats().VictimAdmits >= 8 })
	var probe int64
	waitFor("a victim-served read", func() bool {
		probe++
		a.Read(probe%chaosLPNSpace, 1) //nolint:errcheck // probing for tier hits, value unchecked mid-churn
		return a.Stats().VictimHits >= 1
	})

	// --- Phase 1: power-cut mid-traffic (same inline-injector discipline
	// as the disk drill: overlay resolves first, node crash elsewhere).
	// Whatever the victim log held — including the sealed-segment mirror
	// file's unsynced tail — is gone.
	crashed := make(chan struct{})
	inj.CrashAt(inj.Steps()+25, func() {
		inj.Crash()
		go func() {
			a.Crash()
			close(crashed)
		}()
	})
	select {
	case <-crashed:
	case <-time.After(15 * time.Second):
		t.Fatalf("seed %d: crash-at-step hook never fired", seed)
	}
	stopWriters()
	preCrash := a.Stats()

	// --- Phase 2: restart over the damaged directory with the tier still
	// configured. The victim log is never read back: the reborn tier MUST
	// start cold, and recovery + repair must converge from B alone.
	inj2 := faultfs.New(seed + 7)
	a2 := startNode(t, seed, victimNodeConfig("A2", addrA, dirA, inj2))
	joinPair(t, a2, addrB)
	if err := a2.ConnectPeer(); err != nil {
		t.Fatalf("seed %d: post-crash hello: %v", seed, err)
	}
	if err := a2.RecoverFromPeer(); err != nil {
		t.Fatalf("seed %d: recover from peer: %v", seed, err)
	}
	a2.StartHeartbeat()
	waitFor("repair to converge", func() bool {
		if a2.RepairQueueLen() != 0 {
			return false
		}
		_, corrupt := a2.ScrubOnce()
		return corrupt == 0
	})

	// Read back the full write history BEFORE any new admissions: every
	// page must carry a tracked value served without a single victim hit —
	// a hit here would mean pre-crash log contents leaked into the reborn
	// tier.
	for _, lpn := range tr.Pages() {
		got, err := a2.Read(lpn, 1)
		if err != nil {
			t.Fatalf("seed %d: post-crash read of lpn %d: %v", seed, lpn, err)
		}
		if !tr.Valid(lpn, got) {
			t.Errorf("post-crash read of lpn %d returned an untracked value; reproduce with CHAOS_SEED=%d", lpn, seed)
		}
	}
	st2 := a2.Stats()
	if st2.VictimHits != 0 {
		t.Errorf("reborn victim tier served %d hits before any admission — stale log contents leaked; reproduce with CHAOS_SEED=%d",
			st2.VictimHits, seed)
	}
	for _, v := range append(Durability(tr, a2, addrA, b), DiscardSafety(tr, a2, addrA, b)...) {
		t.Errorf("after crash+restart: %s (reproduce with CHAOS_SEED=%d)", v, seed)
	}
	if t.Failed() {
		t.Fatalf("victim-tier invariant violations; reproduce with CHAOS_SEED=%d", seed)
	}

	// --- Phase 3: the tier must come back to life — fresh churn earns
	// fresh admissions, proving the crash cost cache contents only.
	stopChurn := startWriters(victimChaosWriters, func(w int, done <-chan struct{}) {
		victimChurn(t, a2, tr, w, rand.New(rand.NewSource(seed+0x5bd1e995+int64(w))), done)
	})
	defer stopChurn()
	waitFor("post-restart victim admissions", func() bool { return a2.Stats().VictimAdmits >= 8 })
	stopChurn()

	st := a2.Stats()
	t.Logf("ops=%d acked_pages=%d pre_crash_admits=%d pre_crash_hits=%d post_admits=%d repaired=%d store_steps=%d",
		tr.Ops(), len(tr.Pages()), preCrash.VictimAdmits, preCrash.VictimHits,
		st.VictimAdmits, st.RepairedPages, inj.Steps())
	a2.Close()
}
