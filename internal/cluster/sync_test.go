package cluster

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"flashcoop/internal/faultfs"
)

// countFS wraps the real filesystem and counts the syncs issued on each
// file it opens. Its files are not *faultfs.OSFile, so the store's
// datasync goes through their Sync, where the counting happens. The
// next Sync on a file listed in failNext returns errSyncFailed without
// syncing, and every Sync sleeps delay first so concurrent flushes
// overlap it.
type countFS struct {
	delay time.Duration

	mu       sync.Mutex
	syncs    map[string]int
	failNext map[string]bool
}

var errSyncFailed = errors.New("counted sync failure")

func newCountFS() *countFS {
	return &countFS{syncs: make(map[string]int), failNext: make(map[string]bool)}
}

func (c *countFS) OpenFile(path string) (faultfs.File, error) {
	f, err := faultfs.OS().OpenFile(path)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, name: filepath.Base(path)}, nil
}

func (c *countFS) Rename(oldpath, newpath string) error { return faultfs.OS().Rename(oldpath, newpath) }
func (c *countFS) Remove(path string) error             { return faultfs.OS().Remove(path) }

// synced reports how many syncs reached the file with this base name.
func (c *countFS) synced(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncs[name]
}

// failNextSync makes the next sync of the file with this base name fail;
// later syncs of it succeed again, as Linux allows after a writeback
// error.
func (c *countFS) failNextSync(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failNext[name] = true
}

type countFile struct {
	faultfs.File
	fs   *countFS
	name string
}

func (f *countFile) Sync() error {
	time.Sleep(f.fs.delay)
	f.fs.mu.Lock()
	f.fs.syncs[f.name]++
	fail := f.fs.failNext[f.name]
	delete(f.fs.failNext, f.name)
	f.fs.mu.Unlock()
	if fail {
		return errSyncFailed
	}
	return f.File.Sync()
}

// flushAll runs n concurrent flushes of sec and returns their errors.
func flushAll(sec section, n int) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = sec.flush()
		}(i)
	}
	wg.Wait()
	return errs
}

// A flush with no put since the last completed sync is already covered:
// the section's generation check returns without touching the file.
func TestFileStoreFlushSkipsCoveredGeneration(t *testing.T) {
	const ps = 64
	fsys := newCountFS()
	s, err := newFileStoreFS(fsys, t.TempDir(), "s.dat", ps, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if err := s.flush(); err != nil {
		t.Fatal(err)
	}
	if got := fsys.synced("s.dat"); got != 0 {
		t.Fatalf("flush of a fresh store issued %d syncs, want 0", got)
	}
	if err := s.put(1, fillPage(ps, 1), 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := fsys.synced("s.dat"); got != 1 {
		t.Fatalf("one put and three flushes issued %d syncs, want 1", got)
	}
	if err := s.put(2, fillPage(ps, 2), 2); err != nil {
		t.Fatal(err)
	}
	if err := s.flush(); err != nil {
		t.Fatal(err)
	}
	if got := fsys.synced("s.dat"); got != 2 {
		t.Fatalf("a put after a covered flush left %d syncs, want 2", got)
	}
}

// A section whose sync fails reports the failure to every one of its own
// callers and to no other section's: a sibling section's callers,
// flushing at the same time, succeed. The callers queued behind the
// failed sync must not retry it — a retry that succeeds would report
// pages durable that the failed writeback may have dropped — so the
// failing file sees exactly one sync.
func TestFileStoreFlushErrorStaysInSection(t *testing.T) {
	const ps, ppb, callers = 64, 4, 8
	fsys := newCountFS()
	fsys.delay = 2 * time.Millisecond // hold the failing sync so the callers queue behind it
	s, err := newShardedFileStore(fsys, t.TempDir(), ps, true, 2, ppb)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	good, bad := int64(0), int64(ppb) // blocks 0 and 1 route to sections 0 and 1
	if s.sub(good) == s.sub(bad) {
		t.Fatal("test pages share a section")
	}
	fsys.failNextSync(shardStoreName(1))
	for _, lpn := range []int64{good, bad} {
		if err := s.put(lpn, fillPage(ps, byte(lpn+1)), 1); err != nil {
			t.Fatal(err)
		}
	}
	var goodErrs, badErrs []error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); goodErrs = flushAll(s.sub(good), callers) }()
	go func() { defer wg.Done(); badErrs = flushAll(s.sub(bad), callers) }()
	wg.Wait()
	for _, err := range goodErrs {
		if err != nil {
			t.Fatalf("healthy section's flush = %v, want nil", err)
		}
	}
	for _, err := range badErrs {
		if !errors.Is(err, ErrSyncPoisoned) || !strings.Contains(err.Error(), errSyncFailed.Error()) {
			t.Fatalf("failing section's flush = %v, want ErrSyncPoisoned carrying %q", err, errSyncFailed)
		}
	}
	for i, name := range []string{shardStoreName(0), shardStoreName(1)} {
		if got := fsys.synced(name); got != 1 {
			t.Fatalf("section %d synced %d times, want 1", i, got)
		}
	}
}

// syncNode starts a solo node over a countFS-backed data directory.
func syncNode(t *testing.T, fsys *countFS, syncWrites bool) *LiveNode {
	t.Helper()
	n, err := NewLiveNode(LiveConfig{
		Name: "s", ListenAddr: "127.0.0.1:0",
		BufferPages: 64, RemotePages: 64, SSD: liveSSD(),
		Shards:  1,
		DataDir: t.TempDir(), SyncWrites: syncWrites, FS: fsys,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// On a node whose store fsyncs, a lone syncSection runs one coordinator
// pass that counts the caller's pages; a node whose store does not fsync
// counts nothing. Once the node is stopping, syncSection fails fast with
// errNodeClosing without touching the file — the sync stages still
// draining after a Crash must flush nothing.
func TestSyncSectionCountsAndStops(t *testing.T) {
	for _, syncWrites := range []bool{true, false} {
		fsys := newCountFS()
		n := syncNode(t, fsys, syncWrites)
		file := shardStoreName(0)
		ps := n.Device().PageSize()
		if err := n.store.put(3, fillPage(ps, 3), 1); err != nil {
			t.Fatal(err)
		}
		if err := n.syncSection(3, 5); err != nil {
			t.Fatalf("SyncWrites=%v: syncSection = %v", syncWrites, err)
		}
		st := n.Stats()
		wantSyncs, wantBatches, wantPages := 0, int64(0), int64(0)
		if syncWrites {
			wantSyncs, wantBatches, wantPages = 1, 1, 5
		}
		if got := fsys.synced(file); got != wantSyncs {
			t.Fatalf("SyncWrites=%v: %d file syncs, want %d", syncWrites, got, wantSyncs)
		}
		if st.GroupCommitBatches != wantBatches || st.PagesSynced != wantPages {
			t.Fatalf("SyncWrites=%v: GroupCommitBatches=%d PagesSynced=%d, want %d and %d",
				syncWrites, st.GroupCommitBatches, st.PagesSynced, wantBatches, wantPages)
		}

		if err := n.store.put(4, fillPage(ps, 4), 2); err != nil {
			t.Fatal(err)
		}
		n.shutdown()
		if err := n.syncSection(4, 1); !errors.Is(err, errNodeClosing) {
			t.Fatalf("SyncWrites=%v: syncSection after stop = %v, want errNodeClosing", syncWrites, err)
		}
		if got := fsys.synced(file); got != wantSyncs {
			t.Fatalf("SyncWrites=%v: syncSection after stop reached the file (%d syncs, want %d)", syncWrites, got, wantSyncs)
		}
		if st := n.Stats(); st.GroupCommitBatches != wantBatches || st.PagesSynced != wantPages {
			t.Fatalf("SyncWrites=%v: a refused sync was counted: GroupCommitBatches=%d PagesSynced=%d",
				syncWrites, st.GroupCommitBatches, st.PagesSynced)
		}
		n.Crash()
	}
}

// TestGroupCommitCoalesces checks that the node's syncs of one section
// pending at the same time share fsyncs instead of each paying its own:
// N concurrent syncSection calls after one put go through the
// coordinator's passes and reach the file once, and the passes account
// for every caller's pages.
func TestGroupCommitCoalesces(t *testing.T) {
	const waiters = 16
	fsys := newCountFS()
	fsys.delay = 2 * time.Millisecond // hold the sync so the callers pile up behind it
	n := syncNode(t, fsys, true)
	defer n.Crash()
	if err := n.store.put(1, fillPage(n.Device().PageSize(), 1), 1); err != nil {
		t.Fatal(err)
	}
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = n.syncSection(1, 1)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("syncSection: %v", err)
		}
	}
	if got := fsys.synced(shardStoreName(0)); got != 1 {
		t.Fatalf("%d file syncs for %d coalescable waiters, want 1", got, waiters)
	}
	st := n.Stats()
	if st.GroupCommitBatches < 1 || st.GroupCommitBatches > waiters || st.PagesSynced != waiters {
		t.Fatalf("GroupCommitBatches=%d PagesSynced=%d, want 1..%d passes covering %d pages",
			st.GroupCommitBatches, st.PagesSynced, waiters, waiters)
	}
}
