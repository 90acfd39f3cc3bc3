package cluster

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
)

// canonMsg normalizes a hand-built message through a marshal round trip
// so nil and empty slices compare equal against decoder output.
func canonMsg(t *testing.T, m *Message) *Message {
	t.Helper()
	b, err := m.Marshal()
	if err != nil {
		t.Fatalf("canon marshal: %v", err)
	}
	var out Message
	if err := out.Unmarshal(b); err != nil {
		t.Fatalf("canon unmarshal: %v", err)
	}
	return &out
}

// TestFrameV2RoundTrip checks every seed message survives the encoder
// and the reader, back to back on one stream.
func TestFrameV2RoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := fuzzSeedMessages()
	for i, m := range msgs {
		if err := WriteFrameV2(&buf, m); err != nil {
			t.Fatalf("msg %d: WriteFrameV2: %v", i, err)
		}
	}
	for i, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("msg %d: ReadFrame: %v", i, err)
		}
		if !messagesEqual(got, canonMsg(t, want)) {
			t.Fatalf("msg %d changed in flight:\n  sent: %+v\n  got:  %+v", i, want, got)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d trailing bytes after reading all frames", buf.Len())
	}
}

// TestFrameV2Chunks checks the gather-list encoder: payload supplied as
// chunks must decode identically to the same payload carried in Data,
// including empty and multi-chunk splits.
func TestFrameV2Chunks(t *testing.T) {
	payload := []byte("the quick brown fox jumps over the lazy dog")
	cases := [][][]byte{
		{payload},
		{payload[:7], payload[7:]},
		{payload[:1], {}, payload[1:20], payload[20:]},
	}
	for i, chunks := range cases {
		m := &Message{Type: MsgWriteFwd, Seq: uint64(i + 1), LPNs: []int64{1, 2}, Stamps: []uint64{3, 4}}
		bufs, sp, err := appendFrameV2(nil, m, chunks)
		if err != nil {
			t.Fatalf("case %d: appendFrameV2: %v", i, err)
		}
		var wire bytes.Buffer
		if _, err := bufs.WriteTo(&wire); err != nil {
			t.Fatalf("case %d: WriteTo: %v", i, err)
		}
		releaseFrameScratch(sp)
		got, err := ReadFrame(&wire)
		if err != nil {
			t.Fatalf("case %d: ReadFrame: %v", i, err)
		}
		if !bytes.Equal(got.Data, payload) {
			t.Fatalf("case %d: chunked payload decoded to %q, want %q", i, got.Data, payload)
		}
	}
	// Data and chunks together: chunks follow Data on the wire.
	m := &Message{Type: MsgWriteFwd, Seq: 9, Data: []byte("head-")}
	bufs, sp, err := appendFrameV2(nil, m, [][]byte{[]byte("tail")})
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if _, err := bufs.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	releaseFrameScratch(sp)
	got, err := ReadFrame(&wire)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data) != "head-tail" {
		t.Fatalf("Data+chunks decoded to %q, want %q", got.Data, "head-tail")
	}
}

// TestFrameV2Corruption flips every byte of a valid v2 frame in turn:
// each mutation must be rejected (checksum, header validation, or decode
// error), never silently accepted as a different message and never a
// panic.
func TestFrameV2Corruption(t *testing.T) {
	m := &Message{Type: MsgWriteFwd, Seq: 77, LPNs: []int64{5, 6}, Stamps: []uint64{8, 9}, Data: []byte("payload-bytes")}
	var buf bytes.Buffer
	if err := WriteFrameV2(&buf, m); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		got, err := ReadFrame(bytes.NewReader(mut))
		if err == nil {
			// Flipping a bit inside the CRC of an otherwise-intact frame
			// can never collide, and any body flip must break the CRC; the
			// only way to "succeed" is to decode the original message —
			// which a single flip cannot reproduce.
			t.Fatalf("byte %d flipped: frame accepted as %+v", i, got)
		}
	}
}

// TestFrameV2Truncation feeds every strict prefix of a valid frame: all
// must fail with an error (EOF family or decode error), never block the
// wrong way or panic.
func TestFrameV2Truncation(t *testing.T) {
	m := &Message{Type: MsgResync, Seq: 3, LPNs: []int64{1}, Stamps: []uint64{2}, Data: []byte("abcdexyz")}
	var buf bytes.Buffer
	if err := WriteFrameV2(&buf, m); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for n := 0; n < len(frame); n++ {
		if _, err := ReadFrame(bytes.NewReader(frame[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(frame))
		}
	}
}

// TestFrameV2HeaderValidation checks the reserved bytes, version, and
// length bounds are enforced before any body is read.
func TestFrameV2HeaderValidation(t *testing.T) {
	m := &Message{Type: MsgHello, Seq: 1}
	var buf bytes.Buffer
	if err := WriteFrameV2(&buf, m); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()

	for _, tc := range []struct {
		name string
		mut  func([]byte)
	}{
		{"bad version", func(b []byte) { b[1] = 0x03 }},
		{"reserved byte 2", func(b []byte) { b[2] = 1 }},
		{"reserved byte 3", func(b []byte) { b[3] = 0xFF }},
	} {
		mut := append([]byte(nil), frame...)
		tc.mut(mut)
		_, err := ReadFrame(bytes.NewReader(mut))
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: got %v, want ErrBadFrame", tc.name, err)
		}
	}

	// Oversized length: header claims more than MaxFrameBytes.
	mut := append([]byte(nil), frame...)
	mut[4], mut[5], mut[6], mut[7] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := ReadFrame(bytes.NewReader(mut)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized length: got %v, want ErrFrameTooLarge", err)
	}

	// Checksum mismatch surfaces as ErrChecksum specifically.
	mut = append([]byte(nil), frame...)
	mut[8] ^= 0xFF
	if _, err := ReadFrame(bytes.NewReader(mut)); !errors.Is(err, ErrChecksum) {
		t.Errorf("bad checksum: got %v, want ErrChecksum", err)
	}
}

// TestFrameV2OversizeEncode checks the encoder refuses to build a frame
// past MaxFrameBytes instead of emitting one the reader would reject.
func TestFrameV2OversizeEncode(t *testing.T) {
	m := &Message{Type: MsgWriteFwd, Seq: 1}
	big := make([]byte, MaxFrameBytes)
	_, sp, err := appendFrameV2(nil, m, [][]byte{big})
	if sp != nil {
		releaseFrameScratch(sp)
	}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

// TestFrameV2RejectsLongFields checks the encoder refuses any field too
// long for its u16 length prefix instead of writing a truncated length
// under a valid CRC.
func TestFrameV2RejectsLongFields(t *testing.T) {
	long := strings.Repeat("x", 70000)
	for name, m := range map[string]*Message{
		"origin":      {Type: MsgWriteFwd, Origin: long},
		"err":         {Type: MsgError, Err: long},
		"member":      {Type: MsgMembership, Epoch: 1, Members: []string{"a:1", long}},
		"member list": {Type: MsgMembership, Epoch: 1, Members: make([]string, 1<<16)},
	} {
		var buf bytes.Buffer
		if err := WriteFrameV2(&buf, m); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s: got %v, want ErrBadFrame", name, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("%s: %d bytes written for a refused frame", name, buf.Len())
		}
	}
}

// TestFrameV2ScratchReuse exercises the scratch pool across many frames
// with payload sizes around the pool block capacity, ensuring a recycled
// block never leaks bytes between frames.
func TestFrameV2ScratchReuse(t *testing.T) {
	for i := 0; i < 64; i++ {
		lpns := make([]int64, (i*37)%700)
		stamps := make([]uint64, len(lpns))
		for j := range lpns {
			lpns[j], stamps[j] = int64(i*1000+j), uint64(j)
		}
		m := &Message{Type: MsgDiscard, Seq: uint64(i), LPNs: lpns, Stamps: stamps}
		var wire bytes.Buffer
		if err := WriteFrameV2(&wire, m); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := ReadFrame(&wire)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !messagesEqual(got, m) {
			t.Fatalf("frame %d changed through pooled encode", i)
		}
	}
}

// TestFrameV2GatherWritev checks a whole batch appended into one
// net.Buffers writes every frame intact — the writeLoop's send path.
func TestFrameV2GatherWritev(t *testing.T) {
	var (
		bufs    net.Buffers
		scratch []*[]byte
		msgs    = fuzzSeedMessages()
	)
	for _, m := range msgs {
		nb, sp, err := appendFrameV2(bufs, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		bufs, scratch = nb, append(scratch, sp)
	}
	var wire bytes.Buffer
	if _, err := bufs.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	for _, sp := range scratch {
		releaseFrameScratch(sp)
	}
	for i, want := range msgs {
		got, err := ReadFrame(&wire)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !messagesEqual(got, canonMsg(t, want)) {
			t.Fatalf("frame %d changed in the gathered batch", i)
		}
	}
	if _, err := ReadFrame(&wire); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF after the batch, got %v", err)
	}
}
