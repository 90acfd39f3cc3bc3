package cluster

import (
	"bytes"
	"testing"

	"flashcoop/internal/ssd"
	"flashcoop/internal/stream"
)

// bareNode builds a LiveNode with just the RCT side wired up — no
// listener, no background goroutines — the same idiom the resync fuzzer
// uses, so handle() can be driven directly.
func bareNode(t *testing.T) *LiveNode {
	t.Helper()
	dev, err := ssd.New(liveSSD())
	if err != nil {
		t.Fatal(err)
	}
	n := &LiveNode{dev: dev, pageSize: dev.PageSize(), remoteBudget: 128}
	return n
}

// testOrigin is the sending member the bare-node tests forward from.
const testOrigin = "peer:7001"

// heldBackup returns the payload and stamp n holds for testOrigin's lpn.
func heldBackup(n *LiveNode, lpn int64) ([]byte, uint64, bool) {
	h := n.remotes[testOrigin]
	if h == nil {
		return nil, 0, false
	}
	pg, ok := h.data[lpn]
	return pg, h.stamp[lpn], ok
}

// overWire pushes a message through the v2 encoder and the version-sniffing
// reader, so the handler sees exactly what a partner would receive —
// including the trailing stream/pressure extension.
func overWire(t *testing.T, m *Message) *Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrameV2(&buf, m); err != nil {
		t.Fatalf("WriteFrameV2: %v", err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return got
}

// TestTaggedDiscardReorder races a write-forward against a discard for the
// same page across the v2 wire, in both arrival orders and with both
// tagged and untagged discard frames. The stamps decide, never the
// arrival order or the tags: a backup newer than the discard's stamp must
// survive either ordering, and a discard at or above the backup's stamp
// must drop it either way. Stream tags on a discard are advisory routing
// metadata — they must round-trip the wire intact and change nothing
// about the receiver's keep/drop decision.
func TestTaggedDiscardReorder(t *testing.T) {
	const lpn = int64(7)

	cases := []struct {
		name                     string
		writeStamp               uint64
		discardStamp             uint64
		tagged                   bool
		wantAfterWD, wantAfterDW bool // backup survives write→discard / discard→write
	}{
		{"newer-backup-untagged", 7, 5, false, true, true},
		{"newer-backup-tagged", 7, 5, true, true, true},
		{"discard-covers-untagged", 7, 7, false, false, true},
		{"discard-covers-tagged", 7, 7, true, false, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			orders := []struct {
				name string
				want bool
			}{
				{"write-then-discard", tc.wantAfterWD},
				{"discard-then-write", tc.wantAfterDW},
			}
			for _, ord := range orders {
				n := bareNode(t)
				ps := n.dev.PageSize()
				payload := bytes.Repeat([]byte{0xA7}, ps)

				write := &Message{
					Type: MsgWriteFwd, Seq: 1,
					LPNs: []int64{lpn}, Stamps: []uint64{tc.writeStamp},
					Data: payload, Origin: testOrigin,
				}
				discard := &Message{
					Type: MsgDiscard, Seq: 2,
					LPNs: []int64{lpn}, Stamps: []uint64{tc.discardStamp},
					Origin: testOrigin,
				}
				if tc.tagged {
					discard.Streams = []stream.Stream{stream.Cold}
					discard.Pressure = 0.5
				}

				wireDiscard := overWire(t, discard)
				if tc.tagged {
					if len(wireDiscard.Streams) != 1 || wireDiscard.Streams[0] != stream.Cold {
						t.Fatalf("discard tags lost on the wire: %+v", wireDiscard.Streams)
					}
					if wireDiscard.Pressure != 0.5 {
						t.Fatalf("discard pressure lost on the wire: %v", wireDiscard.Pressure)
					}
				}
				msgs := []*Message{overWire(t, write), wireDiscard}
				if ord.name == "discard-then-write" {
					msgs[0], msgs[1] = msgs[1], msgs[0]
				}
				for _, m := range msgs {
					if resp := n.handle(m, new(Message)); resp.Type == MsgError {
						t.Fatalf("%s: handler rejected %v: %s", ord.name, m.Type, resp.Err)
					}
				}

				pg, st, haveData := heldBackup(n, lpn)
				if haveData != ord.want {
					t.Fatalf("%s: backup present = %v, want %v", ord.name, haveData, ord.want)
				}
				if ord.want {
					if st != tc.writeStamp {
						t.Fatalf("%s: surviving stamp %d, want %d", ord.name, st, tc.writeStamp)
					}
					if !bytes.Equal(pg, payload) {
						t.Fatalf("%s: surviving backup payload corrupted", ord.name)
					}
				}
			}
		})
	}
}

// TestTaggedDiscardMatchesUntagged applies the same multi-page discard
// twice — once bare, once carrying a full set of stream tags — against
// identically loaded nodes and requires byte-identical RCT outcomes: the
// receiver's stamp guard must be oblivious to the tags.
func TestTaggedDiscardMatchesUntagged(t *testing.T) {
	lpns := []int64{3, 4, 5, 6}
	load := func(t *testing.T) *LiveNode {
		n := bareNode(t)
		ps := n.dev.PageSize()
		if resp := n.handle(&Message{
			Type: MsgWriteFwd, Seq: 1, LPNs: lpns,
			Stamps: []uint64{10, 2, 7, 5},
			Data:   bytes.Repeat([]byte{0x33}, len(lpns)*ps),
			Origin: testOrigin,
		}, new(Message)); resp.Type == MsgError {
			t.Fatalf("load: %s", resp.Err)
		}
		return n
	}
	discard := &Message{Type: MsgDiscard, Seq: 2, LPNs: lpns, Stamps: []uint64{5, 5, 7, 9}, Origin: testOrigin}
	tagged := &Message{
		Type: MsgDiscard, Seq: 2, LPNs: lpns, Stamps: []uint64{5, 5, 7, 9}, Origin: testOrigin,
		Streams:  []stream.Stream{stream.Hot, stream.Warm, stream.Cold, stream.Seq},
		Pressure: 0.9,
	}
	plain, strm := load(t), load(t)
	plain.handle(overWire(t, discard), new(Message))
	strm.handle(overWire(t, tagged), new(Message))

	for _, lpn := range lpns {
		_, pStamp, pHave := heldBackup(plain, lpn)
		_, sStamp, sHave := heldBackup(strm, lpn)
		if pHave != sHave {
			t.Errorf("lpn %d: untagged kept=%v, tagged kept=%v — tags changed the outcome", lpn, pHave, sHave)
		}
		if pStamp != sStamp {
			t.Errorf("lpn %d: stamp divergence untagged=%d tagged=%d", lpn, pStamp, sStamp)
		}
	}
	// And the expected concrete outcome: stamps 10 and 7 beat or miss the
	// discard (10>5 survives, 7==7 drops), 2<=5 and 5<=9 drop.
	if _, _, ok := heldBackup(plain, 3); !ok {
		t.Error("lpn 3 (stamp 10 > discard 5) should have survived")
	}
	for _, lpn := range []int64{4, 5, 6} {
		if _, _, ok := heldBackup(plain, lpn); ok {
			t.Errorf("lpn %d should have been discarded", lpn)
		}
	}
}
