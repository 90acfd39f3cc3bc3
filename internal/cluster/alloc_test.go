package cluster

import (
	"bytes"
	"io"
	"testing"
	"time"

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
