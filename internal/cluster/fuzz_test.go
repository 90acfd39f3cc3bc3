package cluster

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"flashcoop/internal/core"
	"flashcoop/internal/ssd"
	"flashcoop/internal/stream"
)

// messagesEqual compares two messages field by field, with the floats
// compared bitwise: the wire format preserves NaN payloads and signed
// zeros exactly, but NaN != NaN under reflect.DeepEqual.
func messagesEqual(a, b *Message) bool {
	bits := func(m *Message) [5]uint64 {
		i := m.Info
		return [5]uint64{
			math.Float64bits(i.WriteFrac), math.Float64bits(i.Mem),
			math.Float64bits(i.CPU), math.Float64bits(i.Net),
			math.Float64bits(m.Pressure),
		}
	}
	return a.Type == b.Type && a.Seq == b.Seq && a.Err == b.Err &&
		reflect.DeepEqual(a.LPNs, b.LPNs) &&
		reflect.DeepEqual(a.Stamps, b.Stamps) &&
		bytes.Equal(a.Data, b.Data) &&
		reflect.DeepEqual(a.Streams, b.Streams) &&
		bits(a) == bits(b) &&
		a.Epoch == b.Epoch && a.Origin == b.Origin &&
		reflect.DeepEqual(a.Members, b.Members)
}

// fuzzSeedMessages are valid frames covering every field combination, so
// the fuzzers start from the interesting part of the input space.
func fuzzSeedMessages() []*Message {
	return []*Message{
		{Type: MsgHello, Seq: 1},
		{Type: MsgHeartbeatAck, Seq: 1<<63 + 7},
		{Type: MsgWriteFwd, Seq: 42, LPNs: []int64{1, 2, 3}, Stamps: []uint64{9, 10, 11}, Data: []byte("abcdef")},
		{Type: MsgDiscard, Seq: 5, LPNs: []int64{-1, 0, 1 << 40}, Stamps: []uint64{0, ^uint64(0), 1}},
		{Type: MsgRCTData, Seq: 9, LPNs: []int64{7}, Stamps: []uint64{3}, Data: bytes.Repeat([]byte{0xAB}, 512)},
		{Type: MsgWorkloadInfo, Seq: 2, Info: core.WorkloadInfo{WriteFrac: 0.75, Mem: 0.5, CPU: 0.1, Net: 0.9}},
		{Type: MsgError, Seq: 3, Err: "something broke"},
		{Type: MsgResync, Seq: 11, LPNs: []int64{4, 5}, Stamps: []uint64{8, 2}, Data: bytes.Repeat([]byte{0xCD}, 1024)},
		// Trailing-extension frames: stream-tagged discards (one per tag,
		// one mixed) and GC-pressure heartbeats, so the fuzzers mutate the
		// optional tail as well as the fixed body.
		{Type: MsgDiscard, Seq: 13, LPNs: []int64{8, 9, 10, 11}, Stamps: []uint64{1, 2, 3, 4},
			Streams: []stream.Stream{stream.Hot, stream.Warm, stream.Cold, stream.Seq}},
		{Type: MsgDiscard, Seq: 14, LPNs: []int64{12}, Stamps: []uint64{5},
			Streams: []stream.Stream{stream.Seq}, Pressure: 0.25},
		{Type: MsgHeartbeat, Seq: 15, Pressure: 1},
		{Type: MsgHeartbeatAck, Seq: 16, Pressure: math.SmallestNonzeroFloat64},
		// Ring-mode frames: data-plane traffic stamped with the sender's
		// identity and ownership epoch, and the membership control frames,
		// so the fuzzers mutate the second trailing extension too.
		{Type: MsgWriteFwd, Seq: 17, LPNs: []int64{20}, Stamps: []uint64{4}, Data: []byte("zz"),
			Origin: "10.0.0.1:7000", Epoch: 3},
		{Type: MsgDiscard, Seq: 18, LPNs: []int64{21}, Stamps: []uint64{5},
			Origin: "10.0.0.2:7001", Epoch: ^uint64(0)},
		{Type: MsgHeartbeat, Seq: 19, Pressure: 0.5, Origin: "10.0.0.3:7002"},
		{Type: MsgMembership, Seq: 20, Epoch: 7, Origin: "10.0.0.2:7001",
			Members: []string{"10.0.0.1:7000", "10.0.0.2:7001", "10.0.0.3:7002"}},
		{Type: MsgMembershipAck, Seq: 21, Epoch: 7},
	}
}

// FuzzDecodeMessage checks that Unmarshal never panics on arbitrary bytes
// and that any message it does accept survives a marshal/unmarshal round
// trip unchanged — the decoder and encoder must agree on the format.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		b, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := m.Unmarshal(data); err != nil {
			return
		}
		b, err := m.Marshal()
		if err != nil {
			t.Fatalf("accepted message failed to re-marshal: %v", err)
		}
		var m2 Message
		if err := m2.Unmarshal(b); err != nil {
			t.Fatalf("re-marshaled message failed to decode: %v", err)
		}
		if !messagesEqual(&m, &m2) {
			t.Fatalf("round trip changed the message:\n  first:  %+v\n  second: %+v", m, m2)
		}
	})
}

// FuzzDecodeResync decodes arbitrary bytes as a MsgResync frame and feeds
// the result to a live node's request handler: the stamp-guarded RCT
// insert must reject malformed shapes (payload/stamp count mismatches,
// hostile LPNs) with MsgError, never panic, and any accepted frame must
// survive a marshal round trip. This is the path a partner's rejoin
// stream arrives on, so a malicious or corrupted peer must not be able to
// crash the backup side.
func FuzzDecodeResync(f *testing.F) {
	// A bare node, not NewLiveNode: the resync handler only needs the RCT
	// side, and skipping the listener + background goroutines keeps each
	// fuzz worker process self-contained.
	dev, err := ssd.New(liveSSD())
	if err != nil {
		f.Fatal(err)
	}
	n := &LiveNode{dev: dev, remoteBudget: 128}
	ps := dev.PageSize()
	n.pageSize = ps

	well := &Message{Type: MsgResync, Seq: 1, LPNs: []int64{0, 3}, Stamps: []uint64{5, 6}, Data: make([]byte, 2*ps)}
	short := &Message{Type: MsgResync, Seq: 2, LPNs: []int64{1}, Stamps: []uint64{1}, Data: []byte{0xEE}}
	skewed := &Message{Type: MsgResync, Seq: 3, LPNs: []int64{2, 4}, Stamps: []uint64{7}, Data: make([]byte, 2*ps)}
	hostile := &Message{Type: MsgResync, Seq: 4, LPNs: []int64{-9, 1 << 50}, Stamps: []uint64{^uint64(0), 0}, Data: make([]byte, 2*ps)}
	for _, m := range []*Message{well, short, skewed, hostile} {
		b, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := m.Unmarshal(data); err != nil {
			return
		}
		// Every decodable message is retyped into the resync path so the
		// handler's shape validation sees the full input space, not just
		// the tiny fraction that fuzzed the type byte right.
		m.Type = MsgResync
		resp := n.handle(&m, new(Message))
		if resp == nil {
			t.Fatal("handler returned no response")
		}
		if resp.Type != MsgResyncAck && resp.Type != MsgError {
			t.Fatalf("resync frame answered with %v, want resync-ack or error", resp.Type)
		}
		b, err := m.Marshal()
		if err != nil {
			t.Fatalf("decoded resync frame failed to re-marshal: %v", err)
		}
		var m2 Message
		if err := m2.Unmarshal(b); err != nil {
			t.Fatalf("re-marshaled resync frame failed to decode: %v", err)
		}
		if !messagesEqual(&m, &m2) {
			t.Fatalf("round trip changed the frame:\n  first:  %+v\n  second: %+v", m, m2)
		}
	})
}

// FuzzReadFrameV2 feeds arbitrary byte streams to the version-sniffing
// frame reader with v2 seeds: it must reject garbage (including frames
// with valid headers and corrupted bodies — the CRC's job) with an
// error, never panic, and any accepted frame must survive a v2
// re-encode/read round trip.
func FuzzReadFrameV2(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		var buf bytes.Buffer
		if err := WriteFrameV2(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{FrameMagicV2})
	f.Add([]byte{FrameMagicV2, FrameVersion2, 0, 0})
	f.Add([]byte{FrameMagicV2, FrameVersion2, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0})
	f.Add([]byte{FrameMagicV2, 0xFF, 1, 2, 0xDE, 0xAD, 0xBE, 0xEF})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrameV2(&buf, m); err != nil {
			t.Fatalf("accepted frame failed to re-encode as v2: %v", err)
		}
		m2, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-encoded v2 frame failed to read back: %v", err)
		}
		if !messagesEqual(m, m2) {
			t.Fatalf("v2 round trip changed the message:\n  first:  %+v\n  second: %+v", m, m2)
		}
	})
}

// FuzzReadFrameReuse decodes an arbitrary byte stream as a sequence of
// frames through one reused Message and body buffer — the way a
// connection's read loop does — and requires every decode to equal a
// fresh ReadFrame of the same bytes: no field, slice element or payload
// byte may leak from the previous frame, and the reused path must accept
// and reject exactly what the fresh one does.
func FuzzReadFrameReuse(f *testing.F) {
	seeds := fuzzSeedMessages()
	stream := func(msgs []*Message) []byte {
		var buf bytes.Buffer
		for _, m := range msgs {
			if err := WriteFrameV2(&buf, m); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	f.Add(stream(seeds))
	rev := make([]*Message, len(seeds))
	for i, m := range seeds {
		rev[len(seeds)-1-i] = m
	}
	f.Add(stream(rev))
	// A big frame followed by small ones: every reused slice shrinks.
	f.Add(stream([]*Message{seeds[7], seeds[0], seeds[4], seeds[15], seeds[6]}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var (
			m   Message
			buf []byte
		)
		for i := 0; ; i++ {
			start := len(data) - r.Len()
			err := readFrameInto(r, &m, &buf)
			fresh, ferr := ReadFrame(bytes.NewReader(data[start:]))
			if (err == nil) != (ferr == nil) {
				t.Fatalf("frame %d: reused decode err %v, fresh decode err %v", i, err, ferr)
			}
			if err != nil {
				return
			}
			if !messagesEqual(&m, fresh) {
				t.Fatalf("frame %d: reused decode differs from a fresh one:\n  reused: %+v\n  fresh:  %+v", i, m, *fresh)
			}
		}
	})
}

// FuzzDecodeMembership decodes arbitrary bytes as a MsgMembership frame
// and runs it through the membership validator at several local epochs:
// the validator must never panic, must reject zero/stale epochs and
// malformed member lists, and any frame it accepts must satisfy the
// invariants SetMembers relies on (strictly newer epoch; non-empty,
// unique, non-empty-string members) and survive a marshal round trip.
func FuzzDecodeMembership(f *testing.F) {
	seeds := []*Message{
		{Type: MsgMembership, Epoch: 2, Members: []string{"10.0.0.1:7000", "10.0.0.2:7001"}},
		{Type: MsgMembership, Epoch: 9, Origin: "10.0.0.3:7002",
			Members: []string{"10.0.0.1:7000", "10.0.0.2:7001", "10.0.0.3:7002", "10.0.0.4:7003"}},
		{Type: MsgMembership, Epoch: 1, Members: []string{"a:1", "a:1"}},       // duplicate
		{Type: MsgMembership, Epoch: 1, Members: []string{""}},                 // empty ID
		{Type: MsgMembership, Epoch: 0, Members: []string{"a:1", "b:2"}},       // zero epoch
		{Type: MsgMembership, Epoch: ^uint64(0), Members: []string{"x:1"}},     // max epoch
		{Type: MsgMembership, Epoch: 3},                                        // no members
		{Type: MsgMembership, Epoch: 5, Members: ringMembers(16), Origin: "q"}, // big ring
	}
	for _, m := range seeds {
		b, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := m.Unmarshal(data); err != nil {
			return
		}
		m.Type = MsgMembership
		for _, cur := range []uint64{0, 1, m.Epoch, ^uint64(0)} {
			err := checkMembership(&m, cur)
			if err != nil {
				continue
			}
			if m.Epoch == 0 || m.Epoch <= cur {
				t.Fatalf("validator accepted epoch %d at current %d", m.Epoch, cur)
			}
			if len(m.Members) == 0 {
				t.Fatal("validator accepted empty member list")
			}
			seen := map[string]bool{}
			for _, id := range m.Members {
				if id == "" {
					t.Fatal("validator accepted empty member ID")
				}
				if seen[id] {
					t.Fatalf("validator accepted duplicate member %q", id)
				}
				seen[id] = true
			}
		}
		b, err := m.Marshal()
		if err != nil {
			t.Fatalf("decoded membership frame failed to re-marshal: %v", err)
		}
		var m2 Message
		if err := m2.Unmarshal(b); err != nil {
			t.Fatalf("re-marshaled membership frame failed to decode: %v", err)
		}
		if !messagesEqual(&m, &m2) {
			t.Fatalf("round trip changed the frame:\n  first:  %+v\n  second: %+v", m, m2)
		}
	})
}

// FuzzDecodeEpoch decodes arbitrary bytes as a MsgWriteFwd frame and feeds
// it to a node sitting at a nonzero ownership epoch: the epoch gate plus
// the stamp-guarded backup insert must never panic, must answer every
// frame with write-ack or error, and must never ack a frame routed under
// a stale epoch — that is the invariant that keeps late traffic from a
// previous ring layout out of the backup holds.
func FuzzDecodeEpoch(f *testing.F) {
	const curEpoch = 5
	dev, err := ssd.New(liveSSD())
	if err != nil {
		f.Fatal(err)
	}
	// A bare node, as in FuzzDecodeResync: the epoch gate and backup
	// insert only need the hold side. RemotePages bounds the per-origin
	// holds fuzzed Origins create.
	n := &LiveNode{dev: dev, remoteBudget: 128}
	n.cfg.RemotePages = 128
	n.pageSize = dev.PageSize()
	n.epochA.Store(curEpoch)

	ps := dev.PageSize()
	fresh := &Message{Type: MsgWriteFwd, LPNs: []int64{0}, Stamps: []uint64{1}, Data: make([]byte, ps),
		Origin: "10.0.0.1:7000", Epoch: curEpoch}
	newer := &Message{Type: MsgWriteFwd, LPNs: []int64{1}, Stamps: []uint64{2}, Data: make([]byte, ps),
		Origin: "10.0.0.1:7000", Epoch: curEpoch + 3}
	stale := &Message{Type: MsgWriteFwd, LPNs: []int64{2}, Stamps: []uint64{3}, Data: make([]byte, ps),
		Origin: "10.0.0.2:7001", Epoch: curEpoch - 1}
	pair := &Message{Type: MsgWriteFwd, LPNs: []int64{3}, Stamps: []uint64{4}, Data: make([]byte, ps)}
	for _, m := range []*Message{fresh, newer, stale, pair} {
		b, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := m.Unmarshal(data); err != nil {
			return
		}
		m.Type = MsgWriteFwd
		resp := n.handle(&m, new(Message))
		if resp == nil {
			t.Fatal("handler returned no response")
		}
		switch resp.Type {
		case MsgWriteAck:
			if m.Epoch != 0 && m.Epoch < curEpoch {
				t.Fatalf("stale epoch %d acked at current %d", m.Epoch, curEpoch)
			}
		case MsgError:
		default:
			t.Fatalf("forward frame answered with %v, want write-ack or error", resp.Type)
		}
	})
}

// FuzzDecodeSlot feeds arbitrary bytes to the v1 page-store record
// decoder: it must never panic, never accept a record whose checksum or
// self-description is wrong, and any live record it does accept must
// re-encode to the identical bytes — the property that makes scrub and
// repair trustworthy against torn, misdirected, and bit-rotted writes.
func FuzzDecodeSlot(f *testing.F) {
	const ps = 64
	live := make([]byte, slotHeaderSize+ps)
	encodeSlot(live, 42, 7, bytes.Repeat([]byte{0x5A}, ps))
	free := make([]byte, slotHeaderSize+ps)
	encodeFreeSlot(free)
	f.Add(live)
	f.Add(free)
	flipped := append([]byte(nil), live...)
	flipped[slotHeaderSize] ^= 1
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(live[:slotHeaderSize]) // truncated: header only
	f.Fuzz(func(t *testing.T, data []byte) {
		// Wrong-length inputs must be rejected, not sliced out of bounds.
		if _, _, _, ok := decodeSlot(data, ps); ok && len(data) != slotHeaderSize+ps {
			t.Fatalf("decoder accepted %d bytes as a %d-byte record", len(data), slotHeaderSize+ps)
		}
		dps := len(data) - slotHeaderSize
		if dps < 0 {
			return
		}
		lpn, stamp, isFree, ok := decodeSlot(data, dps)
		if !ok {
			return
		}
		if isFree {
			if lpn != freeSlotMarker || stamp != 0 {
				t.Fatalf("accepted free slot decodes to lpn=%d stamp=%d", lpn, stamp)
			}
			return
		}
		if lpn < 0 {
			t.Fatalf("accepted live record with negative lpn %d", lpn)
		}
		re := make([]byte, len(data))
		encodeSlot(re, lpn, stamp, data[slotHeaderSize:])
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted record is not canonical:\n  got  % x\n  want % x", data, re)
		}
	})
}
