package check

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flashcoop/internal/cluster"
	"flashcoop/internal/faultfs"
)

// rotHeldRecords flips one payload byte in up to max live records of the
// v1 store files under dir whose LPNs the partner still backs in its RCT
// — damage the ring can provably repair. The record layout is pinned by
// DESIGN.md §15: a 16-byte file header, then 24-byte slot headers
// ([4B CRC][1B flags][3B zero][8B lpn BE][8B stamp BE]) each followed by
// a pageSize payload; a zero flags byte marks a live record.
func rotHeldRecords(t *testing.T, dir string, ps int, holder *cluster.LiveNode, max int) int {
	t.Helper()
	const hdrSize, slotHdr = 16, 24
	paths, err := filepath.Glob(filepath.Join(dir, "pagestore*"))
	if err != nil {
		t.Fatal(err)
	}
	rotted := 0
	for _, path := range paths {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		rs := int64(slotHdr + ps)
		rec := make([]byte, slotHdr)
		for off := int64(hdrSize); off+rs <= st.Size() && rotted < max; off += rs {
			if _, err := f.ReadAt(rec, off); err != nil {
				t.Fatal(err)
			}
			if rec[4] != 0 { // not a live record (free slot or crash debris)
				continue
			}
			lpn := int64(binary.BigEndian.Uint64(rec[8:16]))
			if lpn < 0 || !holder.RemoteContains(lpn) {
				continue
			}
			var b [1]byte
			f.ReadAt(b[:], off+slotHdr)
			b[0] ^= 0xFF
			if _, err := f.WriteAt(b[:], off+slotHdr); err != nil {
				t.Fatal(err)
			}
			rotted++
		}
		f.Close()
	}
	return rotted
}

// The disk-chaos drill is the storage-side sibling of the network chaos
// script: node A's page store runs over a faultfs.Injector, a crash-at-
// I/O-step hook power-cuts the store mid-eviction (unsynced writes land
// torn, partially, or not at all), and a replacement node must come back
// over the damaged files with zero checksum mismatches after scrub and
// ring repair — then a poisoned fsync must drive the pair to Degraded
// instead of acking unsyncable writes. The network stays clean: this
// drill isolates the storage fault model.
//
// A failing seed reruns with:
//
//	CHAOS_SEED=<seed> go test -run TestChaosTornWriteRepair ./internal/cluster/check

const diskChaosWriters = 4

func diskNodeConfig(name, addr, dir string, fs faultfs.FS) cluster.LiveConfig {
	return cluster.LiveConfig{
		Name:       name,
		ListenAddr: addr,
		Policy:     "lar",
		// Small buffer against the LPN space keeps evictions (and their
		// fsyncs — the injector's attack surface) flowing; RemotePages
		// covers the space so the RCT never sheds a backup for capacity.
		BufferPages:       48,
		RemotePages:       chaosLPNSpace * 2,
		Shards:            chaosShards(),
		EvictQueue:        4,
		SSD:               chaosSSD(),
		DataDir:           dir,
		FS:                fs,
		SyncWrites:        true, // unsynced overlay dies at crash; DiscardSafety demands the fsync boundary
		HeartbeatInterval: 25 * time.Millisecond,
		FailureThreshold:  2,
		CallTimeout:       250 * time.Millisecond,
	}
}

// TestChaosTornWriteRepair: torn write + crash + restart at three pinned
// seeds — scrub/repair must converge to zero checksum mismatches with
// every durability invariant intact, and the fsyncgate drill must degrade
// the node rather than ack writes it cannot persist.
func TestChaosTornWriteRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short mode")
	}
	base := chaosSeed(t)
	for _, seed := range []int64{base + 40, base + 1040, base + 2040} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDiskChaos(t, seed)
		})
	}
}

func runDiskChaos(t *testing.T, seed int64) {
	t.Logf("disk chaos seed %d (rerun: CHAOS_SEED=%d go test -run TestChaosTornWriteRepair ./internal/cluster/check)", seed, seed)
	dirA := t.TempDir()
	inj := faultfs.New(seed)
	a, err := cluster.NewLiveNode(diskNodeConfig("A", "127.0.0.1:0", dirA, inj))
	if err != nil {
		t.Fatal(err)
	}
	b, err := cluster.NewLiveNode(diskNodeConfig("B", "127.0.0.1:0", t.TempDir(), nil))
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

	// --- Phase 0: writers hammer A while its store takes real I/O.
	tr := NewTracker()
	ps := a.Device().PageSize()
	stopWriters := startWriters(diskChaosWriters, func(w int, done <-chan struct{}) {
		rng := rand.New(rand.NewSource(seed + int64(w)*0x9E3779B9))
		for {
			select {
			case <-done:
				return
			default:
			}
			lpn := int64(w) + diskChaosWriters*rng.Int63n(chaosLPNSpace/diskChaosWriters)
			data := make([]byte, ps)
			rng.Read(data)
			id := tr.Attempt(lpn, data)
			if err := a.Write(lpn, data); err == nil {
				tr.Acked(lpn, id)
			}
			time.Sleep(time.Millisecond)
		}
	})
	defer stopWriters()
	waitFor("warmup writes", func() bool { return tr.Ops() >= chaosMinOps })
	waitFor("evictions reaching the store", func() bool { return a.Stats().Persists >= 1 })

	// --- Phase 1: power-cut the store mid-traffic. The injector crashes
	// INLINE in the hook — the goroutine that crossed the step holds no
	// file lock yet, and resolving the overlay at that exact I/O step is
	// what catches a dirty eviction batch mid-fsync (torn writes). The
	// node crash runs elsewhere: it waits on the very goroutines the hook
	// is running on. Injector strictly first, so the node's shutdown
	// fsync cannot retroactively save data a real power cut takes.
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

	// On top of whatever the seeded crash tore, deterministically rot a
	// few durable records whose pages B still backs — every seed then
	// exercises detect → queue → repair end to end, not just the lucky
	// ones whose overlay resolved to a torn prefix.
	rotted := rotHeldRecords(t, dirA, ps, b, 3)
	if rotted == 0 {
		t.Fatalf("seed %d: no durable record with a live backup to rot", seed)
	}

	// --- Phase 2: a replacement node reopens the damaged store (fresh
	// injector, nothing armed — a rebooted host gets a fresh page cache)
	// and recovers the lost dirty pages from B's RCT.
	inj2 := faultfs.New(seed + 7)
	a2 := startNode(t, seed, diskNodeConfig("A2", addrA, dirA, inj2))
	joinPair(t, a2, addrB)
	if err := a2.ConnectPeer(); err != nil {
		t.Fatalf("seed %d: post-crash hello: %v", seed, err)
	}
	if err := a2.RecoverFromPeer(); err != nil {
		t.Fatalf("seed %d: recover from peer: %v", seed, err)
	}
	a2.StartHeartbeat()

	// Every record the crash tore must converge to intact: recovery and
	// the repair loop heal from B, and a full scrub must come back clean.
	waitFor("scrub+repair to converge to zero mismatches", func() bool {
		if a2.RepairQueueLen() != 0 {
			return false
		}
		_, corrupt := a2.ScrubOnce()
		return corrupt == 0
	})

	// Durability invariants and read-back against the full write history.
	for _, v := range append(Durability(tr, a2, addrA, b), DiscardSafety(tr, a2, addrA, b)...) {
		t.Errorf("after crash+repair: %s (reproduce with CHAOS_SEED=%d)", v, seed)
	}
	if t.Failed() {
		t.Fatalf("invariant violations after crash+repair; reproduce with CHAOS_SEED=%d", seed)
	}
	st2 := a2.Stats()
	if st2.CorruptSlots < int64(rotted) {
		t.Errorf("CorruptSlots = %d, want >= %d rotted records detected; reproduce with CHAOS_SEED=%d",
			st2.CorruptSlots, rotted, seed)
	}
	if st2.RepairedPages < 1 {
		t.Errorf("RepairedPages = %d, want >= 1; reproduce with CHAOS_SEED=%d", st2.RepairedPages, seed)
	}
	for _, lpn := range tr.Pages() {
		got, err := a2.Read(lpn, 1)
		if err != nil {
			t.Fatalf("seed %d: final read of lpn %d: %v", seed, lpn, err)
		}
		if !tr.Valid(lpn, got) {
			t.Errorf("final read of lpn %d returned an untracked value; reproduce with CHAOS_SEED=%d", lpn, seed)
		}
	}

	// --- Phase 3: fsyncgate. One failed fsync must poison its section,
	// degrade the pair, and reject writes to that section instead of
	// acking data the kernel already dropped.
	inj2.FailFsyncs(1)
	for i := int64(0); i < chaosLPNSpace; i++ {
		data := make([]byte, ps)
		a2.Write(i, data) //nolint:errcheck // driving evictions into the armed fsync
	}
	a2.FlushAll() //nolint:errcheck // the poisoning flush itself may carry the error
	waitFor("fsync poison to latch", func() bool { return a2.Stats().FsyncPoisoned >= 1 })
	waitFor("poisoned node to degrade", func() bool { return !a2.PeerAlive() })
	poisonSeen := false
	for i := int64(0); i < chaosLPNSpace; i++ {
		if err := a2.Write(i, make([]byte, ps)); errors.Is(err, cluster.ErrSyncPoisoned) {
			poisonSeen = true
			break
		}
	}
	if !poisonSeen {
		t.Fatalf("seed %d: no write to the poisoned section was rejected", seed)
	}

	st := a2.Stats()
	t.Logf("ops=%d acked_pages=%d corrupt=%d repaired=%d scrubs=%d poisoned=%d stale_skips=%d store_steps=%d",
		tr.Ops(), len(tr.Pages()), st.CorruptSlots, st.RepairedPages, st.ScrubPasses,
		st.FsyncPoisoned, st.StaleRecoverySkips, inj.Steps())
	a2.Close() //nolint:errcheck // close on a poisoned store surfaces the latched error by design
}
