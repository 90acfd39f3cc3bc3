package cluster

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"flashcoop/internal/faultfs"
)

// filePair builds a partnered pair: a keeps a one-shard file store in
// dir, b holds a's backups in memory.
func filePair(t *testing.T, dir string) (a, b *LiveNode) {
	t.Helper()
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
	b, err = NewLiveNode(LiveConfig{
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
	return a, b
}

// A durable record that rotted keeps its index stamp, so a persist of
// the same version sees an equal stamp. The stamp guard must not trust
// it: persistSet rewrites the record instead of skipping it.
func TestPersistSetRewritesRottedEqualStamp(t *testing.T) {
	dir := t.TempDir()
	n, err := NewLiveNode(LiveConfig{
		Name: "solo", ListenAddr: "127.0.0.1:0",
		BufferPages: 32, RemotePages: 32, SSD: liveSSD(),
		DataDir: dir, Shards: 1,
		CallTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ps := n.Device().PageSize()
	const lpn = int64(4)
	v := page(0x5A, ps)
	// No partner: the write goes through to the store at once.
	if err := n.Write(lpn, v); err != nil {
		t.Fatal(err)
	}
	st := scanRecord(t, filepath.Join(dir, shardStoreName(0)), ps, lpn, true)
	if n.store.verify(lpn) {
		t.Fatal("rotted record still verifies")
	}

	sh := &n.shards[n.buf.ShardIndex(lpn)]
	sh.persistMu.Lock()
	done, skipped, err := n.persistSet([]flushPage{{lpn: lpn, data: v, stamp: st}}, true, false)
	sh.persistMu.Unlock()
	if err != nil || len(done) != 1 || skipped != 0 {
		t.Fatalf("persistSet = (%d done, %d skipped, %v), want the page written", len(done), skipped, err)
	}
	if !n.store.verify(lpn) || !bytes.Equal(n.DurableGet(lpn), v) {
		t.Fatal("rotted record was not rewritten")
	}
}

// Recovery applies a holder's contiguous backup run the way a flush
// does: one device write for the run, not one per page.
func TestRecoveryWritesOneDeviceRunPerRun(t *testing.T) {
	a, b := filePair(t, t.TempDir())
	ps := a.Device().PageSize()
	const pages = 4
	if err := a.Write(0, page(0x21, pages*ps)); err != nil {
		t.Fatal(err)
	}
	if got := len(b.SnapshotRemoteFor(a.Addr())); got != pages {
		t.Fatalf("holder has %d backups, want %d", got, pages)
	}
	a.devMu.Lock()
	writes0 := a.dev.Stats().WriteLengths.Total()
	runs0 := a.dev.Stats().WriteLengths.Count(pages)
	a.devMu.Unlock()
	if err := a.RecoverFromPeer(); err != nil {
		t.Fatal(err)
	}
	a.devMu.Lock()
	writes := a.dev.Stats().WriteLengths.Total() - writes0
	runs := a.dev.Stats().WriteLengths.Count(pages) - runs0
	a.devMu.Unlock()
	if writes != 1 || runs != 1 {
		t.Fatalf("recovery made %d device writes (%d of %d pages), want one %d-page run", writes, runs, pages, pages)
	}
	for i := int64(0); i < pages; i++ {
		if got := a.DurableGet(i); got == nil || got[0] != 0x21 {
			t.Fatalf("page %d not recovered", i)
		}
	}
}

// A scrub repair makes a page durable like any other persist, so it
// counts in Persists.
func TestScrubRepairCountsPersist(t *testing.T) {
	dir := t.TempDir()
	a, _ := filePair(t, dir)
	ps := a.Device().PageSize()
	const lpn = int64(3)
	if err := a.Write(lpn, page(0xAB, ps)); err != nil {
		t.Fatal(err)
	}
	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	scanRecord(t, filepath.Join(dir, shardStoreName(0)), ps, lpn, true)
	persists := a.Stats().Persists
	if _, corrupt := a.ScrubOnce(); corrupt == 0 {
		t.Fatal("scrub missed the rotted record")
	}
	waitFor(t, "ring repair of rotted page", 2*time.Second, func() bool {
		return a.Stats().RepairedPages >= 1
	})
	if got := a.Stats().Persists; got <= persists {
		t.Fatalf("Persists = %d after repair, want > %d", got, persists)
	}
}

// A FlushAll whose fsync fails has made nothing durable: the injected
// failure drops the unsynced writes, as a real failed fsync may. The
// page must stay resident, so a read still returns the acked payload
// instead of what the store lost.
func TestFlushAllFailedSyncKeepsPagesResident(t *testing.T) {
	inj := faultfs.New(1)
	n, err := NewLiveNode(LiveConfig{
		Name: "a", ListenAddr: "127.0.0.1:0",
		BufferPages: 32, RemotePages: 32, SSD: liveSSD(),
		DataDir: t.TempDir(), Shards: 1, SyncWrites: true, FS: inj,
		CallTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLiveNode(LiveConfig{
		Name: "b", ListenAddr: "127.0.0.1:0", PeerAddr: n.Addr(),
		BufferPages: 32, RemotePages: 32, SSD: liveSSD(),
		CallTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		n.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close(); b.Close() })
	joinPair(t, n, b.Addr())
	if err := n.ConnectPeer(); err != nil {
		t.Fatal(err)
	}
	ps := n.Device().PageSize()
	const lpn = int64(3)
	v := page(0xAB, ps)
	if err := n.Write(lpn, v); err != nil {
		t.Fatal(err)
	}
	inj.FailFsyncs(1)
	if err := n.FlushAll(); !errors.Is(err, ErrSyncPoisoned) {
		t.Fatalf("FlushAll = %v, want ErrSyncPoisoned", err)
	}
	got, err := n.Read(lpn, 1)
	if err != nil || !bytes.Equal(got, v) {
		t.Fatalf("read after failed sync = %x…, %v; want the acked payload", got[:1], err)
	}
}
