package cluster

import (
	"bytes"
	"io"
	"testing"
	"time"

	"flashcoop/internal/stream"
	"flashcoop/internal/testutil"
)

// Allocation ceilings for the write-ack path, one per layer, so a
// regression names the layer that started allocating. Each runs the
// operation once to warm its reused buffers, then measures the steady
// state with testing.AllocsPerRun.

// onePageForward is the frame a healthy one-page write sends its partner.
func onePageForward(ps int) *Message {
	return &Message{
		Type: MsgWriteFwd, Seq: 7, LPNs: []int64{42}, Stamps: []uint64{9},
		Data: bytes.Repeat([]byte{0x5A}, ps), Origin: testOrigin, Epoch: 1,
	}
}

// TestAllocsReadFrameInto: decoding a one-page forward frame into a
// reused Message and body buffer allocates nothing.
func TestAllocsReadFrameInto(t *testing.T) {
	testutil.SkipUnderRace(t)
	var wire bytes.Buffer
	if err := WriteFrameV2(&wire, onePageForward(4096)); err != nil {
		t.Fatal(err)
	}
	var (
		r   bytes.Reader
		m   Message
		buf []byte
	)
	read := func() {
		r.Reset(wire.Bytes())
		if err := readFrameInto(&r, &m, &buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(200, read); got != 0 {
		t.Fatalf("readFrameInto: %.1f allocs per frame, want 0", got)
	}
	if len(m.LPNs) != 1 || m.LPNs[0] != 42 || m.Origin != testOrigin || len(m.Data) != 4096 {
		t.Fatalf("decoded frame wrong: %+v", m)
	}
}

// TestAllocsApplyBackup: overwriting a page already in an origin's hold
// allocates nothing (the page buffer, hold maps and reply are reused).
func TestAllocsApplyBackup(t *testing.T) {
	testutil.SkipUnderRace(t)
	n := bareNode(t)
	m := onePageForward(n.pageSize)
	var ack Message
	apply := func() {
		if r := n.applyBackup(m, &ack, MsgWriteAck); r.Type != MsgWriteAck {
			t.Fatalf("applyBackup answered %v: %s", r.Type, r.Err)
		}
	}
	if got := testing.AllocsPerRun(200, apply); got != 0 {
		t.Fatalf("applyBackup: %.1f allocs per frame, want 0", got)
	}
}

// TestAllocsReplyEncode: handling a forward and encoding its ack into the
// connection's reply batch, then flushing it, allocates nothing.
func TestAllocsReplyEncode(t *testing.T) {
	testutil.SkipUnderRace(t)
	n := bareNode(t)
	req := onePageForward(n.pageSize)
	var (
		ack     Message
		replies frameBatch
	)
	reply := func() {
		resp := n.handle(req, &ack)
		resp.Seq = req.Seq
		if err := replies.add(resp, nil); err != nil {
			t.Fatal(err)
		}
		if err := replies.flush(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(200, reply); got != 0 {
		t.Fatalf("reply encode: %.1f allocs per ack, want 0", got)
	}
}

// TestAllocsLiveWrite bounds a whole one-page Write on a healthy pair over
// the in-process transport: buffer insert, forward, partner apply and
// ack. Before the per-connection decode buffers, in-place replies and the
// per-link completion goroutine it measured 55 allocations. With LAR's
// intrusive bucket lists and the shard split appending into the write's
// pooled scratch it measures 4, all in the in-process transport's copy of
// each written chunk: three pieces of the forward frame and one ack.
func TestAllocsLiveWrite(t *testing.T) {
	testutil.SkipUnderRace(t)
	a, _ := inprocPair(t, func(cfg *LiveConfig) {
		cfg.HeartbeatInterval = time.Hour
	})
	pg := page(0x77, a.Device().PageSize())
	write := func() {
		if err := a.Write(3, pg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		write()
	}
	const ceiling = 5
	if got := testing.AllocsPerRun(500, write); got > ceiling {
		t.Fatalf("one-page Write: %.1f allocs, ceiling %d", got, ceiling)
	}
}

// TestAllocsLiveReadInto: ReadInto copies a page once, from whichever
// source serves it straight into the caller's buffer, so a one-page read
// allocates nothing on a dirty-RAM hit, a store hit (memory or file) or a
// victim-tier hit.
func TestAllocsLiveReadInto(t *testing.T) {
	testutil.SkipUnderRace(t)
	const lpn = 3
	flushed := func(t *testing.T, a *LiveNode) {
		if err := a.Write(lpn, page(0x5C, a.Device().PageSize())); err != nil {
			t.Fatal(err)
		}
		if err := a.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(cfg *LiveConfig)
		// setup fills the source and returns the page each read should
		// ask for next and the byte it must find there.
		setup func(t *testing.T, a *LiveNode) (next func() int64, want func(int64) byte)
	}{
		{"dirty", nil, func(t *testing.T, a *LiveNode) (func() int64, func(int64) byte) {
			if err := a.Write(lpn, page(0x5C, a.Device().PageSize())); err != nil {
				t.Fatal(err)
			}
			return func() int64 { return lpn }, func(int64) byte { return 0x5C }
		}},
		{"mem-store", nil, func(t *testing.T, a *LiveNode) (func() int64, func(int64) byte) {
			flushed(t, a)
			return func() int64 { return lpn }, func(int64) byte { return 0x5C }
		}},
		{"file-store", func(cfg *LiveConfig) { cfg.DataDir = t.TempDir() }, func(t *testing.T, a *LiveNode) (func() int64, func(int64) byte) {
			flushed(t, a)
			return func() int64 { return lpn }, func(int64) byte { return 0x5C }
		}},
		{"victim", func(cfg *LiveConfig) { cfg.VictimSegments = 32 }, func(t *testing.T, a *LiveNode) (func() int64, func(int64) byte) {
			// 96 one-page blocks held only by the tier (room for 256 pages),
			// cycled through a 64-page buffer: every read misses RAM and
			// hits the tier.
			ps := a.Device().PageSize()
			for k := int64(0); k < 96; k++ {
				if ok, err := a.victim.Offer(k*8, 1, stream.Hot, 8, page(byte(k), ps)); !ok || err != nil {
					t.Fatalf("offer of page %d: admitted %v, %v", k*8, ok, err)
				}
			}
			var i int64
			return func() int64 { i++; return i % 96 * 8 }, func(p int64) byte { return byte(p / 8) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, _ := inprocPair(t, func(cfg *LiveConfig) {
				cfg.HeartbeatInterval = time.Hour
				if tc.mutate != nil {
					tc.mutate(cfg)
				}
			})
			next, want := tc.setup(t, a)
			dst := make([]byte, a.Device().PageSize())
			read := func() {
				p := next()
				if err := a.ReadInto(p, 1, dst); err != nil {
					t.Fatal(err)
				}
				if dst[0] != want(p) {
					t.Fatalf("page %d read %#x, want %#x", p, dst[0], want(p))
				}
			}
			for i := 0; i < 300; i++ {
				read()
			}
			hits := a.Stats().VictimHits
			if got := testing.AllocsPerRun(500, read); got != 0 {
				t.Fatalf("one-page ReadInto: %.1f allocs, want 0", got)
			}
			if tc.name == "victim" && a.Stats().VictimHits-hits < 500 {
				t.Fatalf("%d victim hits over 500 reads, want every read served by the tier", a.Stats().VictimHits-hits)
			}
		})
	}
}

// TestAllocsLiveRead: the public Read allocates exactly the buffer it
// returns.
func TestAllocsLiveRead(t *testing.T) {
	testutil.SkipUnderRace(t)
	a, _ := inprocPair(t, func(cfg *LiveConfig) {
		cfg.HeartbeatInterval = time.Hour
	})
	if err := a.Write(3, page(0x5C, a.Device().PageSize())); err != nil {
		t.Fatal(err)
	}
	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if got, err := a.Read(3, 1); err != nil || got[0] != 0x5C {
			t.Fatalf("Read = %v, %v", got[:1], err)
		}
	}
	for i := 0; i < 100; i++ {
		read()
	}
	if got := testing.AllocsPerRun(500, read); got > 1 {
		t.Fatalf("one-page Read: %.1f allocs, ceiling 1", got)
	}
}

// TestAllocsFileStoreVerify: scrub and recovery verify one record per
// page, and each check reads into the section's pooled record buffer.
func TestAllocsFileStoreVerify(t *testing.T) {
	testutil.SkipUnderRace(t)
	s, err := newFileStore(t.TempDir(), 4096, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if err := s.put(1, page(0x5C, 4096), 1); err != nil {
		t.Fatal(err)
	}
	verify := func() {
		if !s.verify(1) {
			t.Fatal("intact record failed verification")
		}
	}
	verify()
	if got := testing.AllocsPerRun(200, verify); got != 0 {
		t.Fatalf("fileStore.verify: %.1f allocs per record, want 0", got)
	}
}
