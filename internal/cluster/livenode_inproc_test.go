package cluster

import (
	"sync"
	"testing"
	"time"

	"flashcoop/internal/transport"
)

// inprocPair brings up a connected live pair on the in-process channel
// transport: no loopback TCP, but the exact same framing bytes.
func inprocPair(t *testing.T, mutate func(cfg *LiveConfig)) (*LiveNode, *LiveNode) {
	t.Helper()
	inet := transport.NewNet()
	mk := func(name, peer string) *LiveNode {
		cfg := LiveConfig{
			Name: name, ListenAddr: ":0", PeerAddr: peer,
			BufferPages: 64, RemotePages: 256, SSD: liveSSD(),
			HeartbeatInterval: 20 * time.Millisecond,
			CallTimeout:       500 * time.Millisecond,
			Dialer:            inet.Dial,
			Listener:          inet.Listen,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		n, err := NewLiveNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	a := mk("a", "")
	b := mk("b", a.Addr())
	joinPair(t, a, b.Addr())
	if err := a.ConnectPeer(); err != nil {
		t.Fatal(err)
	}
	if err := b.ConnectPeer(); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestInprocPairRoundTrip drives replicated writes over the in-process
// transport and reads them back from both the writer and the backup's
// RCT, proving the v2 writev path works end to end off the kernel.
func TestInprocPairRoundTrip(t *testing.T) {
	a, b := inprocPair(t, nil)
	ps := a.Device().PageSize()
	for lpn := int64(0); lpn < 32; lpn++ {
		if err := a.Write(lpn, page(byte(lpn+1), ps)); err != nil {
			t.Fatalf("write %d: %v", lpn, err)
		}
	}
	for lpn := int64(0); lpn < 32; lpn++ {
		got, err := a.Read(lpn, 1)
		if err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
		if got[0] != byte(lpn+1) {
			t.Fatalf("lpn %d read back %#x", lpn, got[0])
		}
	}
	if st := a.Stats(); st.Forwards == 0 {
		t.Fatal("no forwards recorded; the pair is not replicating")
	}
	if got := b.RemoteLen(); got == 0 {
		t.Fatal("backup holds no pages after replicated writes")
	}
}

// TestInprocPairConcurrent hammers the pair from several writers so the
// batched writev path (many frames per syscall-equivalent) and the
// in-process channels run under -race.
func TestInprocPairConcurrent(t *testing.T) {
	a, _ := inprocPair(t, nil)
	ps := a.Device().PageSize()
	const writers, per = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lpn := int64(w*per + i)
				if err := a.Write(lpn, page(byte(w+1), ps)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestInprocPairGroupCommit runs the pair with a durable, fsyncing store:
// evictions must settle through the coordinator's passes
// (GroupCommitBatches counts them, PagesSynced the pages they covered, at
// least one page each), while the partner, whose store does not fsync,
// counts none.
func TestInprocPairGroupCommit(t *testing.T) {
	dir := t.TempDir()
	a, b := inprocPair(t, func(cfg *LiveConfig) {
		if cfg.Name == "a" {
			cfg.BufferPages = 16 // tiny buffer: every write evicts
			cfg.Shards = 4
			cfg.EvictQueue = 2
			cfg.DataDir = dir
			cfg.SyncWrites = true
		}
	})
	ps := a.Device().PageSize()
	for lpn := int64(0); lpn < 96; lpn++ {
		if err := a.Write(lpn, page(byte(lpn%250+1), ps)); err != nil {
			t.Fatalf("write %d: %v", lpn, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().GroupCommitBatches == 0 {
		if time.Now().After(deadline) {
			t.Fatal("group-commit coordinator never ran a pass")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := a.Stats()
	if st.PagesSynced < st.GroupCommitBatches {
		t.Fatalf("pages per sync below 1: %d pages over %d batches", st.PagesSynced, st.GroupCommitBatches)
	}
	if bs := b.Stats(); bs.GroupCommitBatches != 0 || bs.PagesSynced != 0 {
		t.Fatalf("non-fsyncing partner counted syncs: %d syncs, %d pages", bs.GroupCommitBatches, bs.PagesSynced)
	}
}
