package victim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"flashcoop/internal/stream"
)

const testPageSize = 64

func testCache(t *testing.T, segments, segPages int, minReuse int64) *Cache {
	t.Helper()
	c, err := New(Config{
		Segments:     segments,
		SegmentPages: segPages,
		PageSize:     testPageSize,
		MinReuse:     minReuse,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func pageData(lpn int64) []byte {
	b := make([]byte, testPageSize)
	for i := range b {
		b[i] = byte(lpn + int64(i))
	}
	return b
}

func mustOffer(t *testing.T, c *Cache, lpn int64, stamp uint64, strm stream.Stream, pop int64) bool {
	t.Helper()
	ok, err := c.Offer(lpn, stamp, strm, pop, pageData(lpn))
	if err != nil {
		t.Fatalf("Offer(%d): %v", lpn, err)
	}
	return ok
}

// TestAdmissionPolicy tables out the full admission matrix: stream class
// gate first, then the popularity floor, with ghost hits and residency
// overriding a weak popularity signal.
func TestAdmissionPolicy(t *testing.T) {
	cases := []struct {
		name  string
		strm  stream.Stream
		pop   int64
		ghost bool // pre-seed the lpn into the ghost index
		want  bool
	}{
		{"hot reused", stream.Hot, 3, false, true},
		{"warm reused", stream.Warm, 2, false, true},
		{"hot at floor", stream.Hot, 2, false, true},
		{"hot below floor", stream.Hot, 1, false, false},
		{"warm below floor", stream.Warm, 0, false, false},
		{"cold reused", stream.Cold, 100, false, false},
		{"seq reused", stream.Seq, 100, false, false},
		{"cold ghosted", stream.Cold, 0, true, false},
		{"hot ghost rescue", stream.Hot, 0, true, true},
		{"warm ghost rescue", stream.Warm, 1, true, true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testCache(t, 4, 8, 2)
			lpn := int64(100 + i)
			if tc.ghost {
				c.mu.Lock()
				c.ghostAddLocked(lpn)
				c.mu.Unlock()
			}
			got := mustOffer(t, c, lpn, 1, tc.strm, tc.pop)
			if got != tc.want {
				t.Fatalf("admit = %v, want %v", got, tc.want)
			}
			if got != c.Contains(lpn) {
				t.Fatalf("Contains(%d) = %v after admit=%v", lpn, c.Contains(lpn), got)
			}
			st, _ := c.Snapshot()
			if got && st.Admits != 1 {
				t.Fatalf("Admits = %d, want 1", st.Admits)
			}
			if !got && st.Rejects != 1 {
				t.Fatalf("Rejects = %d, want 1", st.Rejects)
			}
			if tc.ghost && tc.want && st.GhostAdmits != 1 {
				t.Fatalf("GhostAdmits = %d, want 1", st.GhostAdmits)
			}
		})
	}
}

// TestResidentRefreshBypassesFloor: a page already in the tier re-admits
// on update even below the popularity floor — residency is its own proof
// of reuse — and the old version dies.
func TestResidentRefreshBypassesFloor(t *testing.T) {
	c := testCache(t, 4, 8, 2)
	if !mustOffer(t, c, 7, 1, stream.Hot, 5) {
		t.Fatal("initial admit refused")
	}
	data := make([]byte, testPageSize)
	data[0] = 0xAA
	ok, err := c.Offer(7, 2, stream.Warm, 0, data)
	if err != nil || !ok {
		t.Fatalf("refresh: ok=%v err=%v", ok, err)
	}
	got := make([]byte, testPageSize)
	stamp, hit := c.GetInto(7, got)
	if !hit || stamp != 2 || got[0] != 0xAA {
		t.Fatalf("after refresh: hit=%v stamp=%d b0=%#x", hit, stamp, got[0])
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestStaleOfferIgnored: an offer older than the cached version must not
// clobber it (out-of-order persist completions race this way).
func TestStaleOfferIgnored(t *testing.T) {
	c := testCache(t, 4, 8, 2)
	mustOffer(t, c, 9, 10, stream.Hot, 5)
	mustOffer(t, c, 9, 4, stream.Hot, 5)
	got := make([]byte, testPageSize)
	stamp, hit := c.GetInto(9, got)
	if !hit || stamp != 10 {
		t.Fatalf("stamp = %d (hit=%v), want 10", stamp, hit)
	}
}

func TestGetMissAndHit(t *testing.T) {
	c := testCache(t, 4, 8, 2)
	dst := make([]byte, testPageSize)
	if _, hit := c.GetInto(42, dst); hit {
		t.Fatal("hit on empty cache")
	}
	mustOffer(t, c, 42, 7, stream.Hot, 3)
	stamp, hit := c.GetInto(42, dst)
	if !hit || stamp != 7 || !bytes.Equal(dst, pageData(42)) {
		t.Fatalf("hit=%v stamp=%d data-ok=%v", hit, stamp, bytes.Equal(dst, pageData(42)))
	}
	st, _ := c.Snapshot()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("Hits/Misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
}

func TestInvalidateOlder(t *testing.T) {
	c := testCache(t, 4, 8, 2)
	mustOffer(t, c, 5, 10, stream.Hot, 3)
	c.InvalidateOlder(5, 10) // equal stamp: keep
	if !c.Contains(5) {
		t.Fatal("equal-stamp invalidate dropped the entry")
	}
	c.InvalidateOlder(5, 11) // newer durable version: drop
	if c.Contains(5) {
		t.Fatal("stale entry survived a newer durable version")
	}
	if st, _ := c.Snapshot(); st.Invalidates != 1 {
		t.Fatalf("Invalidates = %d, want 1", st.Invalidates)
	}
}

// TestRejectInvalidatesStale: even a bypassed offer must kill an older
// cached version — the caller is about to persist the newer data.
func TestRejectInvalidatesStale(t *testing.T) {
	c := testCache(t, 4, 8, 2)
	mustOffer(t, c, 5, 1, stream.Hot, 3)
	// The block cooled off: its next eviction is Cold and bypasses, but the
	// stale stamp-1 entry must not serve reads anymore.
	if ok := mustOffer(t, c, 5, 2, stream.Cold, 9); ok {
		t.Fatal("cold offer admitted")
	}
	if c.Contains(5) {
		t.Fatal("stale entry survived a rejected newer persist")
	}
}

func TestDrop(t *testing.T) {
	c := testCache(t, 4, 8, 2)
	mustOffer(t, c, 5, 1, stream.Hot, 3)
	c.mu.Lock()
	c.ghostAddLocked(6)
	c.mu.Unlock()
	c.Drop(5)
	c.Drop(6)
	c.Drop(7) // absent: no-op
	if c.Contains(5) {
		t.Fatal("Drop left the entry live")
	}
	// A dropped ghost must not grant re-admission.
	if mustOffer(t, c, 6, 1, stream.Hot, 0) {
		t.Fatal("dropped ghost still granted admission")
	}
}

// TestSegmentDisciplineInvariant is the tentpole invariant: under heavy
// churn (admits, refreshes, invalidates, wraps) the victim log is written
// strictly sequentially in whole erase-block segments and reclaimed whole,
// so the tier induces ZERO internal GC. The flash model underneath errors
// on any out-of-order program (ErrProgramOrder) or live-block erase
// (ErrEraseLiveBlock), so the churn completing without a fault is the
// proof; the copy counters staying at zero shows no relocation happened.
func TestSegmentDisciplineInvariant(t *testing.T) {
	const (
		segments = 8
		segPages = 16
		ops      = 20000
		space    = 256 // working set ≫ capacity forces constant wrapping
	)
	c := testCache(t, segments, segPages, 2)
	rng := rand.New(rand.NewSource(1))
	shadow := map[int64]uint64{} // lpn -> newest stamp offered
	var stamp uint64
	for i := 0; i < ops; i++ {
		lpn := int64(rng.Intn(space))
		switch rng.Intn(10) {
		case 0:
			c.InvalidateOlder(lpn, shadow[lpn]+1)
			delete(shadow, lpn)
		case 1:
			c.Drop(lpn)
			delete(shadow, lpn)
		default:
			stamp++
			strm := stream.Stream(rng.Intn(stream.NumStreams))
			pop := int64(rng.Intn(6))
			ok, err := c.Offer(lpn, stamp, strm, pop, pageData(lpn))
			if err != nil {
				t.Fatalf("op %d: Offer(%d): %v", i, lpn, err)
			}
			if ok {
				shadow[lpn] = stamp
			} else {
				delete(shadow, lpn) // bypass invalidated any older entry
			}
		}
	}
	st, _ := c.Snapshot()
	if st.Faults != 0 {
		t.Fatalf("flash-model faults = %d; the log violated write discipline", st.Faults)
	}
	fs := c.FlashStats()
	if fs.CopyReads != 0 || fs.CopyPrograms != 0 {
		t.Fatalf("GC copies in the victim tier: reads=%d programs=%d, want 0/0 (whole-segment reclaim only)",
			fs.CopyReads, fs.CopyPrograms)
	}
	if fs.Programs != st.Admits {
		t.Fatalf("Programs = %d, Admits = %d; every admit must be exactly one sequential program", fs.Programs, st.Admits)
	}
	wantErases := st.Seals - int64(segments-1) // ring wraps: all but the first lap's seals erased a segment
	if wantErases < 0 {
		wantErases = 0
	}
	if fs.Erases != wantErases {
		t.Fatalf("Erases = %d, want %d (one whole-segment erase per wrap)", fs.Erases, wantErases)
	}
	if st.Seals < 2*segments {
		t.Fatalf("Seals = %d; churn never wrapped the ring, invariant untested", st.Seals)
	}
	// Coherence spot-check: every cached entry matches the newest offer.
	dst := make([]byte, testPageSize)
	for lpn, want := range shadow {
		if got, hit := c.GetInto(lpn, dst); hit {
			if got != want {
				t.Fatalf("lpn %d cached stamp %d, newest offered %d", lpn, got, want)
			}
			if !bytes.Equal(dst, pageData(lpn)) {
				t.Fatalf("lpn %d payload corrupt", lpn)
			}
		}
	}
	if c.Len() > segments*segPages {
		t.Fatalf("Len = %d exceeds capacity %d", c.Len(), segments*segPages)
	}
}

// TestWholeSegmentReclaimFeedsGhost: wrapping the ring evicts the oldest
// segment's survivors into the ghost index, and a ghosted page re-admits
// without meeting the popularity floor.
func TestWholeSegmentReclaimFeedsGhost(t *testing.T) {
	const segments, segPages = 3, 4
	c := testCache(t, segments, segPages, 2)
	// Fill segments 0 and 1 with distinct pages; head moves to 2.
	for i := int64(0); i < 2*segPages; i++ {
		mustOffer(t, c, i, uint64(i)+1, stream.Hot, 5)
	}
	// Fill segment 2: sealing it reclaims segment 0 (lpns 0..3).
	for i := int64(100); i < 100+segPages; i++ {
		mustOffer(t, c, i, uint64(i), stream.Hot, 5)
	}
	for i := int64(0); i < segPages; i++ {
		if c.Contains(i) {
			t.Fatalf("lpn %d survived whole-segment reclaim", i)
		}
	}
	st, _ := c.Snapshot()
	if st.Evictions != segPages {
		t.Fatalf("Evictions = %d, want %d", st.Evictions, segPages)
	}
	// The reclaimed page re-admits on ghost feedback despite pop 0.
	if !mustOffer(t, c, 0, 99, stream.Warm, 0) {
		t.Fatal("ghosted page refused re-admission")
	}
	if st, _ := c.Snapshot(); st.GhostAdmits != 1 {
		t.Fatalf("GhostAdmits = %d, want 1", st.GhostAdmits)
	}
}

func TestGhostIndexBounded(t *testing.T) {
	c, err := New(Config{Segments: 2, SegmentPages: 4, PageSize: testPageSize, MinReuse: 2, GhostPages: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		c.mu.Lock()
		c.ghostAddLocked(i)
		c.mu.Unlock()
	}
	c.mu.Lock()
	n, fifo := len(c.ghost), len(c.ghostFIFO)
	c.mu.Unlock()
	if n != 3 || fifo != 3 {
		t.Fatalf("ghost size %d/%d, want 3/3", n, fifo)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Segments: 1, SegmentPages: 4, PageSize: 64},
		{Segments: 2, SegmentPages: 0, PageSize: 64},
		{Segments: 2, SegmentPages: 4, PageSize: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: New accepted invalid config %+v", i, cfg)
		}
	}
	c := testCache(t, 2, 4, 2)
	if _, err := c.Offer(1, 1, stream.Hot, 5, make([]byte, testPageSize-1)); err == nil {
		t.Fatal("short payload accepted")
	}
}

// TestConcurrentChurn shakes the lock discipline under the race detector:
// concurrent offers, gets, invalidates, and drops over a shared key space.
func TestConcurrentChurn(t *testing.T) {
	c := testCache(t, 4, 8, 2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			dst := make([]byte, testPageSize)
			for i := 0; i < 2000; i++ {
				lpn := int64(rng.Intn(64))
				switch rng.Intn(4) {
				case 0:
					c.GetInto(lpn, dst)
				case 1:
					c.InvalidateOlder(lpn, uint64(i))
				case 2:
					c.Drop(lpn)
				default:
					if _, err := c.Offer(lpn, uint64(i)+1, stream.Hot, 3, pageData(lpn)); err != nil {
						t.Errorf("Offer: %v", err)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if st, _ := c.Snapshot(); st.Faults != 0 {
		t.Fatalf("Faults = %d under concurrent churn", st.Faults)
	}
}

func TestSegmentHeaderRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64} {
		h := SegmentHeader{Seq: uint64(n) * 977}
		for i := 0; i < n; i++ {
			h.Entries = append(h.Entries, SlotRecord{LPN: int64(i * 31), Stamp: uint64(i) + 5})
		}
		enc := EncodeSegmentHeader(h)
		if len(enc) != EncodedSize(n) {
			t.Fatalf("n=%d: encoded %d bytes, want %d", n, len(enc), EncodedSize(n))
		}
		dec, used, err := DecodeSegmentHeader(enc, n)
		if err != nil || used != len(enc) {
			t.Fatalf("n=%d: decode: used=%d err=%v", n, used, err)
		}
		if dec.Seq != h.Seq || len(dec.Entries) != n {
			t.Fatalf("n=%d: round trip mismatch: %+v", n, dec)
		}
		for i := range h.Entries {
			if dec.Entries[i] != h.Entries[i] {
				t.Fatalf("n=%d entry %d: %+v != %+v", n, i, dec.Entries[i], h.Entries[i])
			}
		}
	}
}

func TestSegmentHeaderRejects(t *testing.T) {
	good := EncodeSegmentHeader(SegmentHeader{Seq: 1, Entries: []SlotRecord{{LPN: 9, Stamp: 2}}})
	cases := map[string]func() []byte{
		"short":       func() []byte { return good[:8] },
		"bad magic":   func() []byte { b := bytes.Clone(good); b[0] = 'X'; return b },
		"bad version": func() []byte { b := bytes.Clone(good); b[4] = 9; return b },
		"nonzero pad": func() []byte { b := bytes.Clone(good); b[5] = 1; return b },
		"flip crc":    func() []byte { b := bytes.Clone(good); b[len(b)-1] ^= 0xFF; return b },
		"flip body":   func() []byte { b := bytes.Clone(good); b[20] ^= 0x01; return b },
		"count > cap": func() []byte {
			return EncodeSegmentHeader(SegmentHeader{Entries: make([]SlotRecord, 5)})
		},
		"truncated entries": func() []byte {
			b := EncodeSegmentHeader(SegmentHeader{Entries: make([]SlotRecord, 4)})
			return b[:len(b)-10]
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			if _, _, err := DecodeSegmentHeader(mk(), 1); !errors.Is(err, ErrBadSegment) {
				t.Fatalf("err = %v, want ErrBadSegment", err)
			}
		})
	}
}

// mirrorFile is a minimal in-memory faultfs.File for the mirror test.
type mirrorFile struct {
	mu   sync.Mutex
	data []byte
}

func (f *mirrorFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= int64(len(f.data)) {
		return 0, fmt.Errorf("eof")
	}
	return copy(p, f.data[off:]), nil
}

func (f *mirrorFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if need := off + int64(len(p)); need > int64(len(f.data)) {
		f.data = append(f.data, make([]byte, need-int64(len(f.data)))...)
	}
	return copy(f.data[off:], p), nil
}

func (f *mirrorFile) Sync() error      { return nil }
func (f *mirrorFile) Close() error     { return nil }
func (f *mirrorFile) Size() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.data)), nil
}

// TestMirrorLogLayout: sealing writes a decodable header + payloads at the
// segment's fixed offset, and a decode of the mirror matches what was
// admitted there.
func TestMirrorLogLayout(t *testing.T) {
	const segPages = 4
	mf := &mirrorFile{}
	c, err := New(Config{Segments: 3, SegmentPages: segPages, PageSize: testPageSize, MinReuse: 1, Log: mf})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < segPages; i++ { // exactly one seal
		mustOffer(t, c, 10+i, uint64(i)+1, stream.Hot, 5)
	}
	segBytes := EncodedSize(segPages) + segPages*testPageSize
	buf := make([]byte, segBytes)
	if _, err := mf.ReadAt(buf, 0); err != nil {
		t.Fatalf("mirror read: %v", err)
	}
	h, used, err := DecodeSegmentHeader(buf, segPages)
	if err != nil {
		t.Fatalf("mirror decode: %v", err)
	}
	if h.Seq != 1 || len(h.Entries) != segPages {
		t.Fatalf("mirror header %+v", h)
	}
	for i, e := range h.Entries {
		if e.LPN != 10+int64(i) || e.Stamp != uint64(i)+1 {
			t.Fatalf("entry %d = %+v", i, e)
		}
		payload := buf[used+i*testPageSize : used+(i+1)*testPageSize]
		if !bytes.Equal(payload, pageData(e.LPN)) {
			t.Fatalf("entry %d payload mismatch", i)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestOfferFillGhostGate pins the read-miss fill path's write-minimizing
// admission: the first miss of a page records metadata only (ghost), a
// repeat miss within the ghost window earns the flash write, and a
// resident page never re-admits.
func TestOfferFillGhostGate(t *testing.T) {
	c := testCache(t, 4, 4, 2)
	if ok, err := c.OfferFill(7, 1, pageData(7)); err != nil || ok {
		t.Fatalf("first fill offer: admitted=%v err=%v, want ghost-only bypass", ok, err)
	}
	if c.Contains(7) {
		t.Fatal("first fill offer left the page resident: the first miss must cost no flash write")
	}
	if ok, err := c.OfferFill(7, 1, pageData(7)); err != nil || !ok {
		t.Fatalf("repeat fill offer: admitted=%v err=%v, want admission", ok, err)
	}
	dst := make([]byte, testPageSize)
	if _, ok := c.GetInto(7, dst); !ok || !bytes.Equal(dst, pageData(7)) {
		t.Fatal("admitted fill payload not served back")
	}
	if ok, err := c.OfferFill(7, 1, pageData(7)); err != nil || ok {
		t.Fatalf("resident fill offer: admitted=%v err=%v, want reject", ok, err)
	}
	st, _ := c.Snapshot()
	if st.Admits != 1 || st.FillAdmits != 1 {
		t.Fatalf("admits=%d fillAdmits=%d, want 1/1", st.Admits, st.FillAdmits)
	}
	if st.Rejects != 2 {
		t.Fatalf("rejects=%d, want 2 (first miss + resident)", st.Rejects)
	}
	if fs := c.FlashStats(); fs.Programs != st.Admits {
		t.Fatalf("programs=%d admits=%d: a fill admission must cost exactly one program", fs.Programs, st.Admits)
	}
	if _, err := c.OfferFill(8, 1, make([]byte, testPageSize-1)); err == nil {
		t.Fatal("short payload accepted")
	}
}

// TestSecondChanceBelowFloor pins the eviction path's ghost feedback: an
// admissible-class eviction below the popularity floor is rejected but
// ghosted, so its next eviction inside the ghost window is the
// demonstrated reuse and admits. Cold evictions stay flat bypasses (see
// TestAdmissionPolicy) — the second chance is for the warm band only.
func TestSecondChanceBelowFloor(t *testing.T) {
	c := testCache(t, 4, 4, 4)
	if mustOffer(t, c, 9, 1, stream.Warm, 2) {
		t.Fatal("warm eviction below the floor admitted outright")
	}
	if !mustOffer(t, c, 9, 2, stream.Warm, 2) {
		t.Fatal("repeat warm eviction of a ghosted page rejected: the ghost second chance is gone")
	}
	st, _ := c.Snapshot()
	if st.GhostAdmits != 1 {
		t.Fatalf("ghostAdmits=%d, want 1", st.GhostAdmits)
	}
	// A cold eviction must not have earned a ghost entry on its way out.
	if mustOffer(t, c, 10, 1, stream.Cold, 1) {
		t.Fatal("cold eviction admitted")
	}
	if mustOffer(t, c, 10, 2, stream.Cold, 1) {
		t.Fatal("repeat cold eviction admitted: class gate must not ghost-feed")
	}
}

// TestOfferFillInvalidatedByNewerPersist pins the coherence half the
// cluster's fill handshake relies on: a fill-admitted entry dies to a
// strictly-newer InvalidateOlder (a racing persist), while one carrying
// the same stamp survives it.
func TestOfferFillInvalidatedByNewerPersist(t *testing.T) {
	c := testCache(t, 4, 4, 2)
	c.OfferFill(3, 5, pageData(3)) // ghost
	if ok, _ := c.OfferFill(3, 5, pageData(3)); !ok {
		t.Fatal("repeat fill offer rejected")
	}
	c.InvalidateOlder(3, 5)
	if !c.Contains(3) {
		t.Fatal("same-stamp invalidate killed the entry: InvalidateOlder must be strictly-older-only")
	}
	c.InvalidateOlder(3, 6)
	if c.Contains(3) {
		t.Fatal("newer persist left a stale fill admission resident")
	}
}
