package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"flashcoop/internal/faultfs"
)

// fillPage builds a pageSize payload with a recognizable fill byte.
func fillPage(ps int, fill byte) []byte {
	p := make([]byte, ps)
	for i := range p {
		p[i] = fill
	}
	return p
}

// v1SlotOff computes a record field offset in a closed v1 store file.
func v1SlotOff(ps int, slot int64) int64 {
	return storeHeaderSize + slot*int64(slotHeaderSize+ps)
}

// A file without the store header — a pre-checksum store, or any other
// file at the store's path — is refused with an error naming the path,
// and left byte-identical: scanning it as slots would free every record
// as corrupt.
func TestFileStoreRefusesHeaderless(t *testing.T) {
	const ps = 128
	legacy := make([]byte, 3*(16+ps)) // three headerless 16-byte-header slots
	for slot := 0; slot < 3; slot++ {
		rec := legacy[slot*(16+ps):]
		binary.BigEndian.PutUint64(rec[:8], uint64(slot+1))
		binary.BigEndian.PutUint64(rec[8:16], 7)
		copy(rec[16:16+ps], fillPage(ps, byte(0xA0+slot)))
	}
	for name, raw := range map[string][]byte{
		"legacy": legacy,
		"short":  []byte("FCP"),
		"text":   []byte("not a page store, just some bytes on disk\n"),
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, fileStoreName)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := newFileStore(dir, ps, false)
		if err == nil {
			s.close()
			t.Fatalf("%s: headerless file opened as a store", name)
		}
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: error %q does not name %s", name, err, path)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("%s: refused file was modified (%d bytes -> %d)", name, len(raw), len(got))
		}
	}
}

// Opening with a different page size than the file was built with must
// fail loudly, via the v1 header.
func TestFileStoreHeaderRejectsMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := newFileStore(dir, 256, false)
	if err != nil {
		t.Fatal(err)
	}
	storePut(s, 1, fillPage(256, 1), 1)
	s.close()
	if _, err := newFileStore(dir, 512, false); err == nil {
		t.Fatal("reopen with wrong page size succeeded")
	}
	// Unknown future version is refused, not misparsed.
	path := filepath.Join(dir, fileStoreName)
	raw, _ := os.ReadFile(path)
	raw[4] = storeVersion + 1
	os.WriteFile(path, raw, 0o644)
	if _, err := newFileStore(dir, 256, false); err == nil {
		t.Fatal("reopen with future version succeeded")
	}
}

// A payload flipped while the store was closed is caught by the open-time
// scan: counted, its LPN queued as a repair suspect, the slot freed and
// scrubbed clean so the next open is quiet.
func TestFileStoreLoadDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	const ps = 64
	s, err := newFileStore(dir, ps, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := storePut(s, 10+i, fillPage(ps, byte(0xC0+i)), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte of slot 1 (lpn 11).
	path := filepath.Join(dir, fileStoreName)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := v1SlotOff(ps, 1) + slotHeaderSize + 5
	var b [1]byte
	f.ReadAt(b[:], off)
	b[0] ^= 0x40
	f.WriteAt(b[:], off)
	f.Close()

	s, err = newFileStore(dir, ps, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.corruptCount() != 1 {
		t.Fatalf("corruptCount = %d, want 1", s.corruptCount())
	}
	if sus := s.takeCorrupt(); len(sus) != 1 || sus[0] != 11 {
		t.Fatalf("suspects = %v, want [11]", sus)
	}
	if s.takeCorrupt() != nil {
		t.Fatal("takeCorrupt not drained")
	}
	if storeGet(s, 11, s.pageSize) != nil {
		t.Fatal("corrupt record served")
	}
	if storeGet(s, 10, s.pageSize) == nil || storeGet(s, 12, s.pageSize) == nil {
		t.Fatal("intact neighbors lost")
	}
	// The freed slot is reusable and the store works on.
	if err := storePut(s, 99, fillPage(ps, 0x99), 50); err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}

	// The slot was rewritten clean: a fresh open reports nothing.
	s, err = newFileStore(dir, ps, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.corruptCount() != 0 {
		t.Fatalf("reopen still reports %d corrupt slots", s.corruptCount())
	}
	s.close()
}

// Corruption that lands while the store is open is caught by getInto (counted
// once, reported once through onCorrupt, healed by a fresh put) and by
// the scrubber.
func TestFileStoreRuntimeCorruptionAndScrub(t *testing.T) {
	dir := t.TempDir()
	const ps = 64
	s, err := newFileStore(dir, ps, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	var reported []int64
	s.onCorrupt = func(lpn int64) { reported = append(reported, lpn) }
	for i := int64(0); i < 4; i++ {
		if err := storePut(s, i, fillPage(ps, byte(i+1)), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}

	// Rot slot 2 (lpn 2) behind the store's back.
	f, err := os.OpenFile(filepath.Join(dir, fileStoreName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := v1SlotOff(ps, 2) + slotHeaderSize
	var b [1]byte
	f.ReadAt(b[:], off)
	b[0] ^= 0x01
	f.WriteAt(b[:], off)
	f.Close()

	if storeGet(s, 2, s.pageSize) != nil {
		t.Fatal("rotted record served")
	}
	// Second read, into a buffer holding other bytes: no double count, and
	// none of the rotted record reaches dst.
	if dst := fillPage(ps, 0xEE); s.getInto(2, dst) || !bytes.Equal(dst, fillPage(ps, 0xEE)) {
		t.Fatal("rotted record's bytes reached dst")
	}
	if s.corruptCount() != 1 || len(reported) != 1 || reported[0] != 2 {
		t.Fatalf("count=%d reported=%v, want 1/[2]", s.corruptCount(), reported)
	}
	if s.verify(2) || !s.verify(1) {
		t.Fatal("verify disagrees with get")
	}
	// The index entry survives — its stamp still ranks repair candidates.
	if st, ok := s.getStamp(2); !ok || st != 3 {
		t.Fatalf("stamp of corrupt record = %d, %v; want 3, true", st, ok)
	}

	// A full scrub reports the known-bad record without recounting it.
	next, checked, bad := s.scrubRange(0, 1024)
	if next != 0 || checked != 4 {
		t.Fatalf("scrub = (next %d, checked %d), want wrap over 4 slots", next, checked)
	}
	if len(bad) != 1 || bad[0] != 2 || s.corruptCount() != 1 || len(reported) != 1 {
		t.Fatalf("scrub bad=%v count=%d reported=%v", bad, s.corruptCount(), reported)
	}

	// A fresh put heals the slot in place.
	if err := storePut(s, 2, fillPage(ps, 0xFF), 40); err != nil {
		t.Fatal(err)
	}
	if got := storeGet(s, 2, s.pageSize); got == nil || got[0] != 0xFF {
		t.Fatal("healed record unreadable")
	}
	if _, _, bad := s.scrubRange(0, 1024); len(bad) != 0 {
		t.Fatalf("scrub after heal still reports %v", bad)
	}
}

// The scrubber also detects rot that getInto has not touched yet, reporting
// it through onCorrupt exactly once across passes.
func TestFileStoreScrubDetectsColdRot(t *testing.T) {
	dir := t.TempDir()
	const ps = 64
	s, err := newFileStore(dir, ps, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	var reported []int64
	s.onCorrupt = func(lpn int64) { reported = append(reported, lpn) }
	for i := int64(0); i < 8; i++ {
		storePut(s, i, fillPage(ps, byte(i+1)), uint64(i+1))
	}
	f, _ := os.OpenFile(filepath.Join(dir, fileStoreName), os.O_RDWR, 0)
	for _, slot := range []int64{1, 6} {
		off := v1SlotOff(ps, slot) + 16 // stamp field: header rot, CRC catches it
		var b [1]byte
		f.ReadAt(b[:], off)
		b[0] ^= 0x80
		f.WriteAt(b[:], off)
	}
	f.Close()

	// Walk in small batches to exercise the cursor.
	var bad []int64
	cursor, passes := int64(0), 0
	for {
		next, _, b := s.scrubRange(cursor, 3)
		bad = append(bad, b...)
		cursor = next
		if next == 0 {
			passes++
			if passes == 2 {
				break
			}
		}
	}
	// Two passes: each finds both rotted slots, but only the first pass
	// counts and reports them.
	if len(bad) != 4 || s.corruptCount() != 2 || len(reported) != 2 {
		t.Fatalf("bad=%v count=%d reported=%v", bad, s.corruptCount(), reported)
	}
}

// A trailing partial record — a torn append at crash — is normalized into
// a free slot at open and reused by the next put.
func TestFileStoreTornTailRecord(t *testing.T) {
	dir := t.TempDir()
	const ps = 64
	s, err := newFileStore(dir, ps, false)
	if err != nil {
		t.Fatal(err)
	}
	storePut(s, 1, fillPage(ps, 1), 1)
	storePut(s, 2, fillPage(ps, 2), 2)
	s.close()

	path := filepath.Join(dir, fileStoreName)
	f, _ := os.OpenFile(path, os.O_RDWR, 0)
	st, _ := f.Stat()
	f.WriteAt(fillPage((slotHeaderSize+ps)/2, 0xEE), st.Size()) // half a record
	f.Close()

	s, err = newFileStore(dir, ps, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if s.corruptCount() != 1 || s.pages() != 2 {
		t.Fatalf("count=%d pages=%d after torn tail", s.corruptCount(), s.pages())
	}
	sizeBefore, _ := s.f.Size()
	if err := storePut(s, 3, fillPage(ps, 3), 3); err != nil {
		t.Fatal(err)
	}
	sizeAfter, _ := s.f.Size()
	if sizeAfter != sizeBefore {
		t.Fatalf("put after torn tail grew the file %d -> %d, want freed-slot reuse", sizeBefore, sizeAfter)
	}
}

// A failed fsync permanently poisons the section: the error is typed,
// latched, reported once through onPoison, and every later put/flush
// fails fast instead of pretending a retry can make the data durable.
func TestFileStorePoisonLatch(t *testing.T) {
	dir := t.TempDir()
	const ps = 64
	inj := faultfs.New(31)
	s, err := newFileStoreFS(inj, dir, "s.dat", ps, true)
	if err != nil {
		t.Fatal(err)
	}
	var hooks []error
	s.onPoison = func(err error) { hooks = append(hooks, err) }
	if err := storePut(s, 1, fillPage(ps, 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.flush(); err != nil {
		t.Fatalf("healthy flush: %v", err)
	}

	inj.FailFsyncs(1)
	if err := storePut(s, 2, fillPage(ps, 2), 2); err != nil {
		t.Fatal(err)
	}
	if err := s.flush(); !errors.Is(err, ErrSyncPoisoned) {
		t.Fatalf("poisoning flush = %v, want ErrSyncPoisoned", err)
	}
	if len(hooks) != 1 || !errors.Is(hooks[0], ErrSyncPoisoned) {
		t.Fatalf("onPoison hooks = %v, want one typed error", hooks)
	}
	if !s.poisoned() {
		t.Fatal("poison flag not latched")
	}
	// Everything mutating fails fast with the same typed error — no
	// lying retry (the injector's next fsync would "succeed").
	if err := s.flush(); !errors.Is(err, ErrSyncPoisoned) {
		t.Fatalf("flush retry = %v, want latched poison", err)
	}
	if err := storePut(s, 3, fillPage(ps, 3), 3); !errors.Is(err, ErrSyncPoisoned) {
		t.Fatalf("put = %v, want latched poison", err)
	}
	if err := s.put([]flushPage{{lpn: 4, data: fillPage(ps, 4), stamp: 4}, {lpn: 5, data: fillPage(ps, 5), stamp: 5}}); !errors.Is(err, ErrSyncPoisoned) {
		t.Fatalf("run put = %v, want latched poison", err)
	}
	if err := s.remove(1); !errors.Is(err, ErrSyncPoisoned) {
		t.Fatalf("remove = %v, want latched poison", err)
	}
	if len(hooks) != 1 {
		t.Fatalf("onPoison fired %d times, want once", len(hooks))
	}
	// Reads still work — the surviving records stay readable.
	if got := storeGet(s, 1, s.pageSize); got == nil || got[0] != 1 {
		t.Fatal("read on poisoned section lost data")
	}
	if err := s.close(); !errors.Is(err, ErrSyncPoisoned) {
		t.Fatalf("close = %v, want poison surfaced", err)
	}
}

// A record that rots under a live node reads as zeros: the file section
// verifies each record in its own buffer and copies only a verified
// payload, so ReadInto zeroes the page even in a buffer that held other
// bytes. The rot is reported once, and a later put heals the slot. The
// test's hook replaces the node's (which would queue a ring repair) so
// that only the put can heal it.
func TestLiveReadOfCorruptRecordReadsZeros(t *testing.T) {
	a, _ := inprocPair(t, func(cfg *LiveConfig) {
		cfg.DataDir = t.TempDir()
		cfg.Shards = 1
		cfg.HeartbeatInterval = time.Hour
	})
	ps := a.Device().PageSize()
	const lpn = int64(5)
	if err := a.Write(lpn, fillPage(ps, 0xAB)); err != nil {
		t.Fatal(err)
	}
	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	sec := a.store.files[0]
	var mu sync.Mutex
	var reported []int64
	sec.mu.Lock()
	sec.onCorrupt = func(l int64) { mu.Lock(); reported = append(reported, l); mu.Unlock() }
	sec.mu.Unlock()
	scanRecord(t, filepath.Join(a.cfg.DataDir, shardStoreName(0)), ps, lpn, true)

	dst := fillPage(ps, 0xEE)
	if err := a.ReadInto(lpn, 1, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, make([]byte, ps)) {
		t.Fatalf("ReadInto of a rotted record left %#x..., want zeros", dst[:4])
	}
	got, err := a.Read(lpn, 1) // second read: no second report
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, ps)) {
		t.Fatalf("Read of a rotted record = %#x..., want zeros", got[:4])
	}
	mu.Lock()
	if len(reported) != 1 || reported[0] != lpn {
		t.Fatalf("onCorrupt reports %v, want [%d] once", reported, lpn)
	}
	mu.Unlock()

	if err := a.Write(lpn, fillPage(ps, 0xCD)); err != nil {
		t.Fatal(err)
	}
	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if !sec.verify(lpn) {
		t.Fatal("put did not heal the rotted slot")
	}
	if got, err := a.Read(lpn, 1); err != nil || !bytes.Equal(got, fillPage(ps, 0xCD)) {
		t.Fatalf("read after heal = %#x..., %v; want the new payload", got[:4], err)
	}
}
