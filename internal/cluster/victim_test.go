package cluster

import (
	"bytes"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flashcoop/internal/faultfs"
	"flashcoop/internal/victim"
)

// victimPair brings up a connected pair whose primary runs the flash
// victim-cache tier. The tiny buffer forces eviction churn quickly; the
// tier is sized to hold several erase blocks of evictees.
func victimPair(t *testing.T) (*LiveNode, *LiveNode) {
	t.Helper()
	a, err := NewLiveNode(LiveConfig{
		Name: "a", ListenAddr: "127.0.0.1:0",
		BufferPages: 64, RemotePages: 4096, SSD: liveSSD(),
		VictimSegments: 16, VictimSegmentPages: 8,
		HeartbeatInterval: 20 * time.Millisecond,
		CallTimeout:       500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLiveNode(LiveConfig{
		Name: "b", ListenAddr: "127.0.0.1:0", PeerAddr: a.Addr(),
		BufferPages: 64, RemotePages: 4096, SSD: liveSSD(),
		HeartbeatInterval: 20 * time.Millisecond,
		CallTimeout:       500 * time.Millisecond,
	})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	joinPair(t, a, b.Addr())
	if err := a.ConnectPeer(); err != nil {
		t.Fatal(err)
	}
	if err := b.ConnectPeer(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

// churnHotWrites overflows the buffer with half-block (4-page) dirty
// writes, each issued twice back-to-back: enough dirty pages to dodge
// LAR's small-write clustering (which tags units Cold), and the repeat
// while the block is still buffered raises its popularity to 2 — with
// SeqAsOneAccess a single multi-page write counts as one access — so the
// block evicts Warm with demonstrated reuse, meeting the admission floor.
func churnHotWrites(t *testing.T, a *LiveNode, blocks int64, fill func(i int64) byte) {
	t.Helper()
	ps := a.Device().PageSize()
	buf := make([]byte, 4*ps)
	for i := int64(0); i < blocks; i++ {
		for k := 0; k < 4; k++ {
			copy(buf[k*ps:], page(fill(i), ps))
		}
		for pass := 0; pass < 2; pass++ {
			if err := a.Write(i*8, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestVictimReadPath drives the full tier loop: admissible evictions
// enter the victim log, and buffer misses on them are served from the
// tier — correct payloads, hits counted, and strictly fewer home-device
// reads than misses.
func TestVictimReadPath(t *testing.T) {
	a, _ := victimPair(t)
	if !a.VictimEnabled() {
		t.Fatal("victim tier not enabled")
	}
	const blocks = 150 // 600 written pages vs a 64-page buffer: heavy eviction churn
	churnHotWrites(t, a, blocks, func(i int64) byte { return byte(i) })
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && a.Stats().VictimAdmits == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if st := a.Stats(); st.VictimAdmits == 0 {
		t.Fatalf("no victim admits after churn: %+v", st)
	}
	// Read everything back: payload correctness regardless of which tier
	// serves each page.
	for i := int64(0); i < blocks; i++ {
		got, err := a.Read(i*8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("page %d = %#x via victim-enabled read path, want %#x", i*8, got[0], byte(i))
		}
	}
	st := a.Stats()
	if st.VictimHits == 0 {
		t.Fatalf("no victim hits on read-back: %+v", st)
	}
	if st.VictimPrograms == 0 || st.VictimPrograms != st.VictimAdmits {
		t.Fatalf("VictimPrograms = %d, VictimAdmits = %d; every admit is exactly one tier program",
			st.VictimPrograms, st.VictimAdmits)
	}
}

// TestVictimStatsSnapshot: while a writer churns evictions into the tier,
// every Stats snapshot shows VictimPrograms == VictimAdmits. Both come
// from one snapshot of the tier, so no Offer can land between them.
func TestVictimStatsSnapshot(t *testing.T) {
	a, _ := victimPair(t)
	ps := a.Device().PageSize()
	stop := make(chan struct{})
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 4*ps)
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// The churnHotWrites pattern, cycled: half-block writes issued
			// twice so each block evicts Warm with reuse and is admitted.
			blk := i % 150
			for k := range buf {
				buf[k] = byte(blk)
			}
			for pass := 0; pass < 2; pass++ {
				if err := a.Write(blk*8, buf); err != nil {
					errc <- err
					return
				}
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	const wantAdmits = 4000
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := a.Stats()
		if st.VictimPrograms != st.VictimAdmits {
			t.Fatalf("torn snapshot: VictimPrograms = %d, VictimAdmits = %d", st.VictimPrograms, st.VictimAdmits)
		}
		if st.VictimAdmits >= wantAdmits || time.Now().After(deadline) {
			if st.VictimAdmits == 0 {
				t.Fatal("no victim admits during churn")
			}
			break
		}
		select {
		case err := <-errc:
			t.Fatal(err)
		default:
		}
	}
}

// TestVictimCoherenceAfterRewrite: a page admitted to the tier, then
// rewritten and re-evicted, must never serve the superseded payload.
func TestVictimCoherenceAfterRewrite(t *testing.T) {
	a, _ := victimPair(t)
	const blocks = 150
	churnHotWrites(t, a, blocks, func(i int64) byte { return byte(i) })
	// Rewrite every block with new payloads and churn again so the old
	// victim entries are superseded or invalidated.
	churnHotWrites(t, a, blocks, func(i int64) byte { return byte(i) + 0x40 })
	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < blocks; i++ {
		got, err := a.Read(i*8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i)+0x40 {
			t.Fatalf("page %d = %#x after rewrite, want %#x (stale tier entry served?)",
				i*8, got[0], byte(i)+0x40)
		}
	}
}

// TestVictimDisabledByDefault: the zero config keeps the tier off — no
// accessor surprises, no victim counters moving.
func TestVictimDisabledByDefault(t *testing.T) {
	a, _ := livePair(t)
	if a.VictimEnabled() {
		t.Fatal("victim tier on without VictimSegments")
	}
	if fs := a.VictimFlashStats(); fs.Programs != 0 {
		t.Fatalf("victim flash stats on disabled tier: %+v", fs)
	}
	ps := a.Device().PageSize()
	for i := int64(0); i < 100; i++ {
		if err := a.Write(i*8, page(byte(i), ps)); err != nil {
			t.Fatal(err)
		}
	}
	if st := a.Stats(); st.VictimAdmits != 0 || st.VictimHits != 0 {
		t.Fatalf("victim counters moved with the tier off: %+v", st)
	}
}

// TestReadMissDeviceRunSplit pins the non-contiguous miss-fill fix: a
// buffered page between two miss runs must split the device charge into
// two bursts covering exactly the miss pages, not one burst starting at
// the first miss and spanning a page the device never served.
func TestReadMissDeviceRunSplit(t *testing.T) {
	a, _ := livePair(t)
	ps := a.Device().PageSize()
	// Persist pages 0..3 durably, then empty the buffer of them.
	for i := int64(0); i < 4; i++ {
		if err := a.Write(i, page(byte(0xA0+i), ps)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Re-buffer page 1 only: the next 4-page read misses {0, 2, 3}.
	if err := a.Write(1, page(0xA1, ps)); err != nil {
		t.Fatal(err)
	}
	before := *a.Device().Stats()
	got, err := a.Read(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		if got[i*int64(ps)] != byte(0xA0+i) {
			t.Fatalf("page %d = %#x, want %#x", i, got[i*int64(ps)], byte(0xA0+i))
		}
	}
	after := *a.Device().Stats()
	if ops, pages := after.ReadOps-before.ReadOps, after.ReadPages-before.ReadPages; ops != 2 || pages != 3 {
		t.Fatalf("device charged %d ops / %d pages for misses {0,2,3}, want 2 ops / 3 pages", ops, pages)
	}
}

// readGate blocks gated File.ReadAt calls while armed, reporting the
// first blocked reader on blocked.
type readGate struct {
	armed   atomic.Bool
	blocked chan struct{}
	release chan struct{}
	open    sync.Once
}

func newReadGate() *readGate {
	return &readGate{blocked: make(chan struct{}, 16), release: make(chan struct{})}
}

// unblock disarms the gate and releases every parked reader, exactly once.
func (g *readGate) unblock() {
	g.armed.Store(false)
	g.open.Do(func() { close(g.release) })
}

func (g *readGate) wait() {
	if !g.armed.Load() {
		return
	}
	select {
	case g.blocked <- struct{}{}:
	default:
	}
	<-g.release
}

type gatedFS struct {
	faultfs.FS
	gate *readGate
}

func (g gatedFS) OpenFile(path string) (faultfs.File, error) {
	f, err := g.FS.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return gatedFile{File: f, gate: g.gate}, nil
}

type gatedFile struct {
	faultfs.File
	gate *readGate
}

func (f gatedFile) ReadAt(p []byte, off int64) (int, error) {
	f.gate.wait()
	return f.File.ReadAt(p, off)
}

// TestReadMissFillOffShardLock is the off-lock acceptance check: a reader
// stuck in a store fill (ReadAt gated shut) must NOT hold the shard lock,
// so a concurrent write to the SAME shard completes while the fill is
// still blocked. Before the rework the fill ran inside the shard critical
// section and this write would hang with the reader.
func TestReadMissFillOffShardLock(t *testing.T) {
	gate := newReadGate()
	a, err := NewLiveNode(LiveConfig{
		Name: "a", ListenAddr: "127.0.0.1:0",
		BufferPages: 64, RemotePages: 128, SSD: liveSSD(),
		Shards:  1, // one shard: reader and writer MUST share the lock
		DataDir: t.TempDir(),
		FS:      gatedFS{FS: faultfs.OS(), gate: gate},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		gate.unblock()
		a.Close()
	}()
	ps := a.Device().PageSize()
	// Two pages, persisted durably (degraded mode writes through).
	if err := a.Write(0, page(0x11, ps)); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(8, page(0x22, ps)); err != nil {
		t.Fatal(err)
	}
	gate.armed.Store(true)
	readDone := make(chan error, 1)
	go func() {
		got, rerr := a.Read(0, 1)
		if rerr == nil && got[0] != 0x11 {
			rerr = errBadRead
		}
		readDone <- rerr
	}()
	select {
	case <-gate.blocked:
	case err := <-readDone:
		t.Fatalf("read finished without touching the gated store (err=%v); fill path changed?", err)
	case <-time.After(2 * time.Second):
		t.Fatal("reader never reached the store fill")
	}
	// The reader is parked inside its fill. A same-shard write must not
	// wait for it.
	writeDone := make(chan error, 1)
	go func() { writeDone <- a.Write(8, page(0x33, ps)) }()
	select {
	case err := <-writeDone:
		if err != nil {
			t.Fatalf("concurrent write failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write blocked behind a miss fill: shard lock held across the store read")
	}
	gate.unblock()
	if err := <-readDone; err != nil {
		t.Fatalf("gated read: %v", err)
	}
}

var errBadRead = errorString("read returned wrong payload")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestVictimMirrorFileWritten: with DataDir set, sealing segments leaves
// a victim.log whose first segment decodes (debugging surface, never read
// back by the node itself).
func TestVictimMirrorFileWritten(t *testing.T) {
	dir := t.TempDir()
	a, err := NewLiveNode(LiveConfig{
		Name: "a", ListenAddr: "127.0.0.1:0",
		BufferPages: 64, RemotePages: 4096, SSD: liveSSD(),
		VictimSegments: 8, VictimSegmentPages: 4,
		DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLiveNode(LiveConfig{
		Name: "b", ListenAddr: "127.0.0.1:0", PeerAddr: a.Addr(),
		BufferPages: 64, RemotePages: 4096, SSD: liveSSD(),
	})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	joinPair(t, a, b.Addr())
	if err := a.ConnectPeer(); err != nil {
		t.Fatal(err)
	}
	if err := b.ConnectPeer(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	churnHotWrites(t, a, 150, func(i int64) byte { return byte(i) })
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && a.Stats().VictimAdmits < 8 {
		time.Sleep(2 * time.Millisecond)
	}
	if a.Stats().VictimAdmits < 8 {
		t.Fatalf("too few admits to seal a segment: %+v", a.Stats())
	}
	f, err := faultfs.OS().OpenFile(filepath.Join(dir, "victim.log"))
	if err != nil {
		t.Fatalf("victim.log missing: %v", err)
	}
	defer f.Close()
	hdr := make([]byte, victim.EncodedSize(4))
	if _, err := f.ReadAt(hdr, 0); err != nil {
		t.Fatalf("mirror read: %v", err)
	}
	if !bytes.Equal(hdr[:4], []byte("FCVS")) {
		t.Fatalf("mirror magic = %q", hdr[:4])
	}
}
