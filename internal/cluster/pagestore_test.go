package cluster

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// storeGet reads lpn's ps-byte payload from s into a fresh buffer, or
// returns nil when getInto reports it absent or unverified.
func storeGet(s section, lpn int64, ps int) []byte {
	pg := make([]byte, ps)
	if !s.getInto(lpn, pg) {
		return nil
	}
	return pg
}

func TestMemStoreBasics(t *testing.T) {
	s := newMemStore()
	if storeGet(s, 1, 1) != nil || s.pages() != 0 {
		t.Fatal("empty store not empty")
	}
	if err := s.put(1, []byte{0xAA}, 5); err != nil {
		t.Fatal(err)
	}
	if got := storeGet(s, 1, 1); got == nil || got[0] != 0xAA {
		t.Fatal("get after put wrong")
	}
	if st, ok := s.getStamp(1); !ok || st != 5 {
		t.Fatalf("stamp = %d, %v; want 5, true", st, ok)
	}
	if s.maxStamp() != 5 {
		t.Fatalf("maxStamp = %d", s.maxStamp())
	}
	if err := s.remove(1); err != nil {
		t.Fatal(err)
	}
	if storeGet(s, 1, 1) != nil || s.pages() != 0 {
		t.Fatal("remove failed")
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const ps = 512
	s, err := newFileStore(dir, ps, false)
	if err != nil {
		t.Fatal(err)
	}
	pg := func(fill byte) []byte {
		p := make([]byte, ps)
		for i := range p {
			p[i] = fill
		}
		return p
	}
	for i := int64(0); i < 20; i++ {
		if err := s.put(i*7, pg(byte(i)), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite reuses the slot (and bumps the stamp).
	if err := s.put(0, pg(0xEE), 42); err != nil {
		t.Fatal(err)
	}
	if s.pages() != 20 {
		t.Fatalf("pages = %d", s.pages())
	}
	if got := storeGet(s, 0, ps); !bytes.Equal(got, pg(0xEE)) {
		t.Fatal("overwrite lost")
	}
	// Remove frees a slot that a later put reuses.
	if err := s.remove(7); err != nil {
		t.Fatal(err)
	}
	slotsBefore := s.slots
	if err := s.put(999, pg(0x77), 43); err != nil {
		t.Fatal(err)
	}
	if s.slots != slotsBefore {
		t.Fatal("free slot not reused")
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything except the removed page survives.
	s2, err := newFileStore(dir, ps, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.close()
	if s2.pages() != 20 {
		t.Fatalf("pages after reopen = %d", s2.pages())
	}
	if got := storeGet(s2, 0, ps); !bytes.Equal(got, pg(0xEE)) {
		t.Fatal("page 0 lost across restart")
	}
	if storeGet(s2, 7, ps) != nil {
		t.Fatal("removed page resurrected")
	}
	if got := storeGet(s2, 999, ps); !bytes.Equal(got, pg(0x77)) {
		t.Fatal("page 999 lost across restart")
	}
	// Write stamps survive the restart too: recovery relies on them to
	// rank durable data against peer backups.
	if st, ok := s2.getStamp(0); !ok || st != 42 {
		t.Fatalf("stamp of page 0 after reopen = %d, %v; want 42, true", st, ok)
	}
	if s2.maxStamp() != 43 {
		t.Fatalf("maxStamp after reopen = %d; want 43", s2.maxStamp())
	}
}

func TestFileStoreRejectsWrongPageSize(t *testing.T) {
	dir := t.TempDir()
	s, err := newFileStore(dir, 512, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.put(0, make([]byte, 100), 1); err == nil {
		t.Fatal("short put accepted")
	}
	if err := s.put(0, make([]byte, 512), 1); err != nil {
		t.Fatal(err)
	}
	s.close()
	// Reopening with a different page size is detected.
	if _, err := newFileStore(dir, 4096, false); err == nil {
		t.Fatal("page-size mismatch not detected")
	}
}

func TestFileStoreFuzzAgainstMem(t *testing.T) {
	dir := t.TempDir()
	const ps = 256
	fs, err := newFileStore(dir, ps, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.close()
	ms := newMemStore()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		lpn := rng.Int63n(64)
		switch rng.Intn(3) {
		case 0, 1:
			pg := make([]byte, ps)
			rng.Read(pg)
			st := uint64(i + 1)
			if err := fs.put(lpn, pg, st); err != nil {
				t.Fatal(err)
			}
			if err := ms.put(lpn, pg, st); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := fs.remove(lpn); err != nil {
				t.Fatal(err)
			}
			if err := ms.remove(lpn); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fs.pages() != ms.pages() {
		t.Fatalf("pages: file %d != mem %d", fs.pages(), ms.pages())
	}
	for lpn := int64(0); lpn < 64; lpn++ {
		a, b := storeGet(fs, lpn, fs.pageSize), storeGet(ms, lpn, fs.pageSize)
		if (a == nil) != (b == nil) || (a != nil && !bytes.Equal(a, b)) {
			t.Fatalf("divergence at lpn %d", lpn)
		}
		sa, oka := fs.getStamp(lpn)
		sb, okb := ms.getStamp(lpn)
		if oka != okb || sa != sb {
			t.Fatalf("stamp divergence at lpn %d: file (%d,%v) mem (%d,%v)", lpn, sa, oka, sb, okb)
		}
	}
}

// TestLiveNodeDurableRestart is the end-to-end durability story: a node
// with a DataDir persists flushed data; after a clean shutdown a new node
// over the same directory serves it back.
func TestLiveNodeDurableRestart(t *testing.T) {
	dir := t.TempDir()
	mk := func() *LiveNode {
		n, err := NewLiveNode(LiveConfig{
			Name: "durable", ListenAddr: "127.0.0.1:0",
			BufferPages: 32, RemotePages: 32, SSD: liveSSD(),
			DataDir:     dir,
			CallTimeout: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n := mk()
	ps := n.Device().PageSize()
	for i := int64(0); i < 10; i++ {
		if err := n.Write(i, page(byte(0x40+i), ps)); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Close(); err != nil { // flushes dirty data to the file store
		t.Fatal(err)
	}

	n2 := mk()
	defer n2.Close()
	for i := int64(0); i < 10; i++ {
		got, err := n2.Read(i, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(0x40+i) {
			t.Fatalf("page %d lost across restart: %x", i, got[0])
		}
	}
}
