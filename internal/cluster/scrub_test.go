package cluster

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// scanRecord finds lpn's live record in a v1 store file, returning its
// stamp; when flip is set, one payload byte is inverted in place — the
// offline bit-rot primitive the integrity tests poke stores with.
func scanRecord(t *testing.T, path string, ps int, lpn int64, flip bool) uint64 {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	rs := int64(slotHeaderSize + ps)
	rec := make([]byte, rs)
	for off := int64(storeHeaderSize); off+rs <= st.Size(); off += rs {
		if _, err := f.ReadAt(rec, off); err != nil {
			t.Fatal(err)
		}
		glpn, gstamp, free, ok := decodeSlot(rec, ps)
		if !ok || free || glpn != lpn {
			continue
		}
		if flip {
			var b [1]byte
			f.ReadAt(b[:], off+slotHeaderSize)
			b[0] ^= 0xFF
			if _, err := f.WriteAt(b[:], off+slotHeaderSize); err != nil {
				t.Fatal(err)
			}
		}
		return gstamp
	}
	t.Fatalf("lpn %d has no live record in %s", lpn, path)
	return 0
}

func waitFor(t *testing.T, what string, d time.Duration, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// A record that rots while the node is live is caught by ScrubOnce,
// queued, and healed from the partner's backup copy via MsgRepair — and
// the partner's hold survives the read-only probe.
func TestLiveScrubRepairFromPeer(t *testing.T) {
	dir := t.TempDir()
	a, err := NewLiveNode(LiveConfig{
		Name: "a", ListenAddr: "127.0.0.1:0",
		BufferPages: 32, RemotePages: 32, SSD: liveSSD(),
		DataDir: dir, Shards: 1,
		HeartbeatInterval: 20 * time.Millisecond,
		CallTimeout:       500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLiveNode(LiveConfig{
		Name: "b", ListenAddr: "127.0.0.1:0", PeerAddr: a.Addr(),
		BufferPages: 32, RemotePages: 32, SSD: liveSSD(),
		HeartbeatInterval: 20 * time.Millisecond,
		CallTimeout:       500 * time.Millisecond,
	})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	joinPair(t, a, b.Addr())
	if err := a.ConnectPeer(); err != nil {
		t.Fatal(err)
	}
	if err := b.ConnectPeer(); err != nil {
		t.Fatal(err)
	}

	ps := a.Device().PageSize()
	const lpn = int64(3)
	if err := a.Write(lpn, page(0xAB, ps)); err != nil {
		t.Fatal(err)
	}
	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// FlushAll persists without discarding, so b still holds the backup —
	// the surviving replica repair will pull from.
	if !b.RemoteContains(lpn) {
		t.Fatal("no backup on partner after flush")
	}

	// Rot the durable record behind the node's back, then scrub.
	scanRecord(t, filepath.Join(dir, shardStoreName(0)), ps, lpn, true)
	checked, corrupt := a.ScrubOnce()
	if checked == 0 || corrupt == 0 {
		t.Fatalf("ScrubOnce = (%d, %d), want the rotted record found", checked, corrupt)
	}
	if a.Stats().CorruptSlots == 0 || a.Stats().ScrubPasses == 0 {
		t.Fatalf("stats after scrub: %+v", a.Stats())
	}

	waitFor(t, "ring repair of rotted page", 2*time.Second, func() bool {
		return a.Stats().RepairedPages >= 1
	})
	if got := a.DurableGet(lpn); got == nil || got[0] != 0xAB {
		t.Fatalf("repaired record = %v, want holder copy", got)
	}
	if _, corrupt := a.ScrubOnce(); corrupt != 0 {
		t.Fatalf("scrub after repair still finds %d corrupt records", corrupt)
	}
	if a.RepairQueueLen() != 0 {
		t.Fatalf("repair queue not drained: %d", a.RepairQueueLen())
	}
	// MsgRepair is a read-only probe: the hold must survive it.
	if !b.RemoteContains(lpn) {
		t.Fatal("repair probe cleaned the partner's hold")
	}
}

// Recovery with a corrupt local store AND a partially stale holder: the
// newest intact version of each page wins — the stale backup is skipped
// (StaleRecoverySkips), the corrupt page is healed from its equal-stamp
// backup (RepairedPages), and both counters advance in one pass.
func TestRecoveryRepairsCorruptSkipsStale(t *testing.T) {
	dir := t.TempDir()
	const lpnX, lpnY = int64(5), int64(6)
	mk := func(name, listen, peer string) *LiveNode {
		cfg := LiveConfig{
			Name: name, ListenAddr: listen,
			BufferPages: 32, RemotePages: 32, SSD: liveSSD(),
			DataDir: dir, Shards: 1,
			CallTimeout: 500 * time.Millisecond,
		}
		if name == "b" {
			cfg.DataDir = "" // the holder keeps backups in memory only
		}
		cfg.PeerAddr = peer
		n, err := NewLiveNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	// Life before the crash: a standalone node writes X then Y (degraded
	// write-through — no peer), so both are durable with ascending stamps.
	a1 := mk("a1", "127.0.0.1:0", "")
	ps := a1.Device().PageSize()
	if err := a1.Write(lpnX, page(0x11, ps)); err != nil {
		t.Fatal(err)
	}
	if err := a1.Write(lpnY, page(0x22, ps)); err != nil {
		t.Fatal(err)
	}
	if err := a1.Close(); err != nil {
		t.Fatal(err)
	}

	// Offline damage: X's durable payload rots. Y stays intact.
	path := filepath.Join(dir, shardStoreName(0))
	stX := scanRecord(t, path, ps, lpnX, true)
	stY := scanRecord(t, path, ps, lpnY, false)
	if stY <= stX {
		t.Fatalf("stamps not ascending: X=%d Y=%d", stX, stY)
	}

	// The holder: an equal-stamp copy of X (the only intact version left)
	// and a STALE copy of Y that a blind recovery would roll back to.
	b := mk("b", "127.0.0.1:0", "")
	defer b.Close()
	if resp := b.handle(&Message{Type: MsgWriteFwd, Seq: 1,
		LPNs:   []int64{lpnX, lpnY},
		Stamps: []uint64{stX, stY - 1},
		Data:   append(page(0x33, ps), page(0x44, ps)...),
		Origin: a1.Addr()}, new(Message)); resp.Type != MsgWriteAck {
		t.Fatalf("hold seeding answered %v", resp.Type)
	}

	// The restarted node — back on a1's address, the member ID b filed
	// the hold under — notices X's rot at open, then recovers from b.
	a2 := mk("a2", a1.Addr(), b.Addr())
	defer a2.Close()
	if a2.Stats().CorruptSlots < 1 {
		t.Fatalf("open-time scan missed the rotted record: %+v", a2.Stats())
	}
	if err := a2.ConnectPeer(); err != nil {
		t.Fatal(err)
	}
	if err := a2.RecoverFromPeer(); err != nil {
		t.Fatal(err)
	}

	got, err := a2.Read(lpnX, 1)
	if err != nil || got[0] != 0x33 {
		t.Fatalf("X after recovery = %x, %v; want the holder's intact copy", got[0], err)
	}
	got, err = a2.Read(lpnY, 1)
	if err != nil || got[0] != 0x22 {
		t.Fatalf("Y after recovery = %x, %v; want the local newer version", got[0], err)
	}
	s := a2.Stats()
	if s.StaleRecoverySkips < 1 {
		t.Fatalf("StaleRecoverySkips = %d, want >= 1 (stale Y backup must be skipped)", s.StaleRecoverySkips)
	}
	if s.RepairedPages < 1 {
		t.Fatalf("RepairedPages = %d, want >= 1 (corrupt X must count as repaired)", s.RepairedPages)
	}
}

// The background scrubber (ScrubInterval > 0) completes passes on its
// own; a memory-backed node has nothing to scrub and says so.
func TestBackgroundScrubber(t *testing.T) {
	n, err := NewLiveNode(LiveConfig{
		Name: "scrub", ListenAddr: "127.0.0.1:0",
		BufferPages: 32, RemotePages: 32, SSD: liveSSD(),
		DataDir:       t.TempDir(),
		ScrubInterval: 2 * time.Millisecond,
		CallTimeout:   200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ps := n.Device().PageSize()
	for i := int64(0); i < 8; i++ {
		if err := n.Write(i, page(byte(i), ps)); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.FlushAll(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a background scrub pass", 2*time.Second, func() bool {
		return n.Stats().ScrubPasses >= 1
	})
	if n.Stats().CorruptSlots != 0 {
		t.Fatalf("scrubber flagged healthy records: %+v", n.Stats())
	}

	mem, err := NewLiveNode(LiveConfig{
		Name: "mem", ListenAddr: "127.0.0.1:0",
		BufferPages: 32, RemotePages: 32, SSD: liveSSD(),
		CallTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if checked, corrupt := mem.ScrubOnce(); checked != 0 || corrupt != 0 {
		t.Fatalf("memory-store ScrubOnce = (%d, %d), want (0, 0)", checked, corrupt)
	}
}
