package check

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"flashcoop/internal/cluster"
)

// fakeNode is a hand-rolled NodeState and RemoteHolder for unit tests;
// remote is the hold it keeps for the origin "local".
type fakeNode struct {
	dirty   map[int64][]byte
	remote  map[int64][]byte
	durable map[int64][]byte
}

func newFakeNode() *fakeNode {
	return &fakeNode{
		dirty:   map[int64][]byte{},
		remote:  map[int64][]byte{},
		durable: map[int64][]byte{},
	}
}

func (f *fakeNode) SnapshotDirty() map[int64][]byte { return f.dirty }
func (f *fakeNode) DurableGet(lpn int64) []byte     { return f.durable[lpn] }
func (f *fakeNode) SnapshotRemoteFor(origin string) map[int64][]byte {
	if origin != "local" {
		return nil
	}
	return f.remote
}

func TestDurabilityInvariant(t *testing.T) {
	tr := NewTracker()
	v1 := []byte("version-one")
	id := tr.Attempt(7, v1)
	tr.Acked(7, id)

	local, peer := newFakeNode(), newFakeNode()

	// No copy anywhere: violation.
	if vs := Durability(tr, local, "local", peer); len(vs) != 1 || vs[0].LPN != 7 {
		t.Fatalf("want 1 violation on lpn 7, got %v", vs)
	}

	// A copy in any of the three places satisfies the invariant.
	local.dirty[7] = v1
	if vs := Durability(tr, local, "local", peer); len(vs) != 0 {
		t.Fatalf("dirty copy not accepted: %v", vs)
	}
	delete(local.dirty, 7)
	peer.remote[7] = v1
	if vs := Durability(tr, local, "local", peer); len(vs) != 0 {
		t.Fatalf("peer RCT copy not accepted: %v", vs)
	}
	peer.remote = map[int64][]byte{}
	local.durable[7] = v1
	if vs := Durability(tr, local, "local", peer); len(vs) != 0 {
		t.Fatalf("persisted copy not accepted: %v", vs)
	}

	// A copy holding garbage instead of any tracked value: violation.
	local.durable[7] = []byte("garbage-val")
	if vs := Durability(tr, local, "local", peer); len(vs) != 1 {
		t.Fatalf("untracked value not flagged: %v", vs)
	}

	// A crashed peer (left out) must not hide the loss.
	local.durable = map[int64][]byte{}
	peer.remote[7] = v1
	if vs := Durability(tr, local, "local"); len(vs) != 1 {
		t.Fatalf("absent peer should drop the RCT copy: %v", vs)
	}
	// Nor may a backup filed under another origin.
	if vs := Durability(tr, local, "other", peer); len(vs) != 1 {
		t.Fatalf("another origin's hold accepted: %v", vs)
	}
}

func TestDurabilityAcceptsPendingOverwrite(t *testing.T) {
	tr := NewTracker()
	v1, v2 := []byte("acked-v1"), []byte("inflight-v2")
	id := tr.Attempt(3, v1)
	tr.Acked(3, id)
	tr.Attempt(3, v2) // never acked: raced an error, may have applied

	local, peer := newFakeNode(), newFakeNode()
	local.dirty[3] = v2 // the failed overwrite is what actually landed
	if vs := Durability(tr, local, "local", peer); len(vs) != 0 {
		t.Fatalf("open attempt's value must be legal: %v", vs)
	}
}

func TestDiscardSafetyInvariant(t *testing.T) {
	tr := NewTracker()
	v := []byte("flushed")
	id := tr.Attempt(11, v)
	tr.Acked(11, id)

	local, peer := newFakeNode(), newFakeNode()

	// Backup gone, buffer clean, store has it: the legal post-flush state.
	local.durable[11] = v
	if vs := DiscardSafety(tr, local, "local", peer); len(vs) != 0 {
		t.Fatalf("legal discard flagged: %v", vs)
	}

	// Backup still held: store may lag, no violation.
	local.durable = map[int64][]byte{}
	peer.remote[11] = v
	if vs := DiscardSafety(tr, local, "local", peer); len(vs) != 0 {
		t.Fatalf("live backup should excuse the store: %v", vs)
	}

	// Backup gone, buffer clean, store empty: the discard ran ahead of
	// durability.
	peer.remote = map[int64][]byte{}
	vs := DiscardSafety(tr, local, "local", peer)
	if len(vs) != 1 || vs[0].LPN != 11 {
		t.Fatalf("unsafe discard not flagged: %v", vs)
	}
}

// frame marshals one message with the real wire encoding.
func frame(t *testing.T, m *cluster.Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cluster.WriteFrameV2(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSeqCheckerCleanStream(t *testing.T) {
	s := NewSeqChecker()
	req := frame(t, &cluster.Message{Type: cluster.MsgHeartbeat, Seq: 1})
	resp := frame(t, &cluster.Message{Type: cluster.MsgHeartbeatAck, Seq: 1})
	// Split delivery across byte boundaries to exercise reassembly.
	s.Observe(1, true, true, req[:3])
	s.Observe(1, true, true, req[3:])
	s.Observe(1, true, false, resp[:7])
	s.Observe(1, true, false, resp[7:])
	// Out-of-order completion of pipelined calls is fine.
	s.Observe(1, true, true, frame(t, &cluster.Message{Type: cluster.MsgHeartbeat, Seq: 3}))
	s.Observe(1, true, true, frame(t, &cluster.Message{Type: cluster.MsgHeartbeat, Seq: 2}))
	s.Observe(1, true, false, frame(t, &cluster.Message{Type: cluster.MsgHeartbeatAck, Seq: 3}))
	s.Observe(1, true, false, frame(t, &cluster.Message{Type: cluster.MsgHeartbeatAck, Seq: 2}))
	// Accept-side traffic is ignored.
	s.Observe(2, false, true, []byte("not a frame at all"))
	if vs := s.Violations(); len(vs) != 0 {
		t.Fatalf("clean stream flagged: %v", vs)
	}
}

func TestSeqCheckerFlagsReuseAndOrphans(t *testing.T) {
	s := NewSeqChecker()
	s.Observe(1, true, true, frame(t, &cluster.Message{Type: cluster.MsgHeartbeat, Seq: 5}))
	s.Observe(1, true, true, frame(t, &cluster.Message{Type: cluster.MsgHeartbeat, Seq: 5}))
	s.Observe(1, true, false, frame(t, &cluster.Message{Type: cluster.MsgHeartbeatAck, Seq: 5}))
	s.Observe(1, true, false, frame(t, &cluster.Message{Type: cluster.MsgHeartbeatAck, Seq: 5}))
	s.Observe(1, true, false, frame(t, &cluster.Message{Type: cluster.MsgHeartbeatAck, Seq: 99}))
	vs := s.Violations()
	if len(vs) != 3 {
		t.Fatalf("want reuse + dup-response + orphan = 3 violations, got %v", vs)
	}
}

// TestSeqCheckerReplyBeforeRequest covers the tap race on multicore: the
// reader can tap a reply before the writer taps its request. A reply
// whose request shows up later passes; one whose request never shows up,
// or a second reply for the same seq, is still a violation.
func TestSeqCheckerReplyBeforeRequest(t *testing.T) {
	hb := func(seq uint64) []byte { return frame(t, &cluster.Message{Type: cluster.MsgHeartbeat, Seq: seq}) }
	ack := func(seq uint64) []byte { return frame(t, &cluster.Message{Type: cluster.MsgHeartbeatAck, Seq: seq}) }

	s := NewSeqChecker()
	s.Observe(1, true, false, ack(7))
	s.Observe(1, true, true, hb(7))
	if vs := s.Violations(); len(vs) != 0 {
		t.Fatalf("reply tapped before its request flagged: %v", vs)
	}

	s = NewSeqChecker()
	s.Observe(1, true, false, ack(8))
	vs := s.Violations()
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "unknown seq 8") {
		t.Fatalf("reply for a never-requested seq: got %v, want one unknown-seq violation", vs)
	}

	s = NewSeqChecker()
	s.Observe(1, true, false, ack(9))
	s.Observe(1, true, false, ack(9))
	s.Observe(1, true, true, hb(9))
	s.Observe(1, true, true, hb(10))
	s.Observe(1, true, false, ack(10))
	s.Observe(1, true, false, ack(10))
	vs = s.Violations()
	if len(vs) != 2 || !strings.Contains(vs[0].Detail, "duplicate response for seq 9") ||
		!strings.Contains(vs[1].Detail, "duplicate response for seq 10") {
		t.Fatalf("duplicate replies: got %v, want two duplicate-response violations", vs)
	}
}

func TestSeqCheckerFlagsImplausibleFrame(t *testing.T) {
	s := NewSeqChecker()
	junk := []byte{cluster.FrameMagicV2, cluster.FrameVersion2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(junk[4:8], cluster.MaxFrameBytes+1)
	s.Observe(1, true, true, junk)
	if vs := s.Violations(); len(vs) != 1 {
		t.Fatalf("oversized frame length not flagged: %v", vs)
	}
	// The conn is broken from here on; further bytes must not panic or
	// add noise.
	s.Observe(1, true, true, []byte{1, 2, 3})
	if vs := s.Violations(); len(vs) != 1 {
		t.Fatalf("broken conn kept parsing: %v", vs)
	}
}
