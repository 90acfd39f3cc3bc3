package cluster

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"testing"
	"testing/quick"
	"time"

	"flashcoop/internal/core"
	"flashcoop/internal/flash"
	"flashcoop/internal/ftl"
	"flashcoop/internal/ssd"
)

func TestMessageRoundTrip(t *testing.T) {
	msgs := []Message{
		{Type: MsgHello, Seq: 1},
		{Type: MsgWriteFwd, Seq: 42, LPNs: []int64{1, 2, 3}, Data: []byte("abcdef")},
		{Type: MsgWorkloadInfo, Info: core.WorkloadInfo{WriteFrac: 0.91, Mem: 0.5, CPU: 0.25, Net: 0.125}},
		{Type: MsgError, Err: "boom"},
		{Type: MsgDiscard, LPNs: []int64{}},
	}
	for _, orig := range msgs {
		body, err := orig.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		var got Message
		if err := got.Unmarshal(body); err != nil {
			t.Fatalf("%v: %v", orig.Type, err)
		}
		if got.Type != orig.Type || got.Seq != orig.Seq || got.Err != orig.Err {
			t.Fatalf("round trip: got %+v, want %+v", got, orig)
		}
		if len(got.LPNs) != len(orig.LPNs) {
			t.Fatalf("LPNs differ: %v vs %v", got.LPNs, orig.LPNs)
		}
		for i := range orig.LPNs {
			if got.LPNs[i] != orig.LPNs[i] {
				t.Fatalf("LPNs differ at %d", i)
			}
		}
		if !bytes.Equal(got.Data, orig.Data) && len(orig.Data) > 0 {
			t.Fatal("Data differs")
		}
		if got.Info != orig.Info {
			t.Fatalf("Info differs: %+v vs %+v", got.Info, orig.Info)
		}
	}
}

// TestWorkloadInfoWireBytes pins the encoded v2 frames of one workload-
// info exchange: the request as RebalanceOnce sends it and an ack with the
// four Eq. 1 floats (big-endian f64s in WriteFrac, Mem, CPU, Net order).
func TestWorkloadInfoWireBytes(t *testing.T) {
	req := Message{Type: MsgWorkloadInfo, Seq: 7, Origin: "10.0.0.1:7001"}
	ack := Message{Type: MsgWorkloadInfoAck, Seq: 7}
	ack.Info.WriteFrac, ack.Info.Mem, ack.Info.CPU, ack.Info.Net = 0.91, 0.5, 0.25, 0.125
	for _, tc := range []struct {
		m   *Message
		hex string
	}{
		{&req, "fc0200000000005c6e38bcdb0d0000000000000007000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000d31302e302e302e313a373030310000"},
		{&ack, "fc0200000000004fdf1f86330e00000000000000070000000000000000000000003fed1eb851eb851f3fe00000000000003fd00000000000003fc00000000000000000000000000000000000000000000000000000000000000000"},
	} {
		var b bytes.Buffer
		if err := WriteFrameV2(&b, tc.m); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b.Bytes()); got != tc.hex {
			t.Errorf("%v frame:\n got %s\nwant %s", tc.m.Type, got, tc.hex)
		}
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(typ uint8, seq uint64, lpns []int64, data []byte, wf float64, errStr string) bool {
		if len(errStr) > 1000 {
			errStr = errStr[:1000]
		}
		orig := Message{
			Type: MsgType(typ), Seq: seq, LPNs: lpns, Data: data,
			Info: core.WorkloadInfo{WriteFrac: wf}, Err: errStr,
		}
		body, err := orig.Marshal()
		if err != nil {
			return len(body) > MaxFrameBytes // only oversize may fail
		}
		var got Message
		if err := got.Unmarshal(body); err != nil {
			return false
		}
		if got.Type != orig.Type || got.Seq != orig.Seq || got.Err != orig.Err {
			return false
		}
		if len(got.LPNs) != len(orig.LPNs) || !bytes.Equal(got.Data, orig.Data) {
			return false
		}
		// NaN-safe comparison via bit identity is not needed: quick
		// generates ordinary floats.
		return got.Info.WriteFrac == orig.Info.WriteFrac
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	good, _ := (&Message{Type: MsgWriteFwd, LPNs: []int64{1}, Data: []byte{1, 2}}).Marshal()
	cases := [][]byte{
		nil,
		{1},
		good[:len(good)-1],                       // truncated
		append(good[:len(good):len(good)], 0xFF), // trailing byte
	}
	for i, b := range cases {
		var m Message
		if err := m.Unmarshal(b); err == nil {
			t.Errorf("case %d: malformed frame accepted", i)
		}
	}
	// Absurd LPN count must be rejected without huge allocation.
	bad := make([]byte, len(good))
	copy(bad, good)
	bad[9], bad[10], bad[11], bad[12] = 0xFF, 0xFF, 0xFF, 0xFF
	var m Message
	if err := m.Unmarshal(bad); err == nil {
		t.Error("absurd LPN count accepted")
	}
}

func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	orig := &Message{Type: MsgWriteFwd, Seq: 7, LPNs: []int64{9}, Data: []byte("x")}
	if err := WriteFrameV2(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != orig.Type || got.Seq != 7 || got.LPNs[0] != 9 {
		t.Fatalf("frame round trip: %+v", got)
	}
	// Oversized frame header refused.
	var hdr bytes.Buffer
	hdr.Write([]byte{FrameMagicV2, FrameVersion2, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	if _, err := ReadFrame(&hdr); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
}

func liveSSD() ssd.Config {
	return ssd.Config{
		Scheme: "page",
		FTL: ftl.Config{
			Flash:   flash.Small(256, 8),
			OPRatio: 0.2,
		},
	}
}

// joinPair makes n a 2-member ring with peer at epoch 1: what
// LiveConfig.PeerAddr sets up at construction, for a node built before
// its partner's address was known.
func joinPair(t testing.TB, n *LiveNode, peer string) {
	t.Helper()
	if err := n.SetMembers(1, []string{n.Addr(), peer}); err != nil {
		t.Fatal(err)
	}
}

// livePair brings up two connected live nodes on localhost.
func livePair(t *testing.T) (*LiveNode, *LiveNode) {
	t.Helper()
	a, err := NewLiveNode(LiveConfig{
		Name: "a", ListenAddr: "127.0.0.1:0",
		BufferPages: 64, RemotePages: 128, SSD: liveSSD(),
		HeartbeatInterval: 20 * time.Millisecond,
		CallTimeout:       500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLiveNode(LiveConfig{
		Name: "b", ListenAddr: "127.0.0.1:0", PeerAddr: a.Addr(),
		BufferPages: 64, RemotePages: 128, SSD: liveSSD(),
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

func page(fill byte, ps int) []byte {
	p := make([]byte, ps)
	for i := range p {
		p[i] = fill
	}
	return p
}

func TestLiveWriteReadRoundTrip(t *testing.T) {
	a, b := livePair(t)
	ps := a.Device().PageSize()
	if err := a.Write(10, page(0xAB, ps)); err != nil {
		t.Fatal(err)
	}
	got, err := a.Read(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page(0xAB, ps)) {
		t.Fatal("read returned wrong data")
	}
	// Backup must exist on the partner.
	if !b.RemoteContains(10) {
		t.Fatal("no backup on partner")
	}
	// Unwritten page reads as zeros.
	got, err = a.Read(999, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, ps)) {
		t.Fatal("unwritten page not zero")
	}
	if a.Stats().Forwards != 1 {
		t.Errorf("stats = %+v", a.Stats())
	}
}

func TestLiveWriteUnaligned(t *testing.T) {
	a, _ := livePair(t)
	if err := a.Write(0, []byte{1, 2, 3}); err == nil {
		t.Fatal("unaligned write accepted")
	}
}

func TestLiveEvictionPersistsData(t *testing.T) {
	a, _ := livePair(t)
	ps := a.Device().PageSize()
	// Overflow the 64-page buffer.
	for i := int64(0); i < 100; i++ {
		if err := a.Write(i*8, page(byte(i), ps)); err != nil {
			t.Fatal(err)
		}
	}
	// Eviction flushing is asynchronous; give the evictors a moment.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && a.Stats().Persists == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if a.Stats().Persists == 0 {
		t.Fatal("nothing persisted despite overflow")
	}
	// Every written page must still read back correctly.
	for i := int64(0); i < 100; i++ {
		got, err := a.Read(i*8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("page %d corrupted after eviction: %x", i*8, got[0])
		}
	}
}

func TestLiveRecoveryAfterCrash(t *testing.T) {
	a, b := livePair(t)
	ps := a.Device().PageSize()
	for i := int64(0); i < 10; i++ {
		if err := a.Write(i, page(byte(0x80+i), ps)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a's crash: abrupt stop, nothing flushed.
	a.Crash()

	// A replacement node for a recovers from b's remote buffer; it comes
	// back on a's address, the member ID b filed a's backups under.
	a2, err := NewLiveNode(LiveConfig{
		Name: "a2", ListenAddr: a.Addr(), PeerAddr: b.Addr(),
		BufferPages: 64, RemotePages: 128, SSD: liveSSD(),
		CallTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if err := a2.ConnectPeer(); err != nil {
		t.Fatal(err)
	}
	if err := a2.RecoverFromPeer(); err != nil {
		t.Fatal(err)
	}
	// The dirty data survives on the recovered node.
	for i := int64(0); i < 10; i++ {
		got, err := a2.Read(i, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(0x80+i) {
			t.Fatalf("page %d lost in recovery: %x", i, got[0])
		}
	}
	// Partner's remote buffer was cleaned.
	if b.RemoteLen() != 0 {
		t.Errorf("remote buffer not cleaned: %d", b.RemoteLen())
	}
}

func TestLiveFailoverToWriteThrough(t *testing.T) {
	a, b := livePair(t)
	ps := a.Device().PageSize()
	if err := a.Write(1, page(1, ps)); err != nil {
		t.Fatal(err)
	}
	// Kill b abruptly.
	b.Crash()

	// The next write detects the failure and degrades to write-through.
	if err := a.Write(2, page(2, ps)); err != nil {
		t.Fatal(err)
	}
	if a.PeerAlive() {
		t.Error("peer still alive after forward failure")
	}
	if a.Stats().ForwardFailures == 0 {
		t.Error("forward failure not recorded")
	}
	// Data still correct.
	got, err := a.Read(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatal("degraded write lost data")
	}
	// Dirty page 2 must be durable (write-through).
	if a.Buffer().IsDirty(2) {
		t.Error("degraded write left page dirty")
	}
}

func TestLiveHeartbeatDetectsFailure(t *testing.T) {
	a, b := livePair(t)
	ps := a.Device().PageSize()
	if err := a.Write(5, page(5, ps)); err != nil {
		t.Fatal(err)
	}
	a.StartHeartbeat()
	// Kill b.
	b.Crash()

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if !a.PeerAlive() && a.Buffer().DirtyLen() == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if a.PeerAlive() {
		t.Fatal("heartbeat never declared peer dead")
	}
	if a.Buffer().DirtyLen() != 0 {
		t.Fatal("failover did not flush dirty data")
	}
	if a.Stats().Failovers == 0 {
		t.Error("failover not counted")
	}
}

func TestLiveCloseFlushes(t *testing.T) {
	cfg := LiveConfig{
		Name: "solo", ListenAddr: "127.0.0.1:0",
		BufferPages: 64, RemotePages: 0, SSD: liveSSD(),
		CallTimeout: 200 * time.Millisecond,
	}
	n, err := NewLiveNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := n.Device().PageSize()
	if err := n.Write(3, page(3, ps)); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if n.Buffer().DirtyLen() != 0 {
		t.Error("Close did not flush")
	}
}

func TestPeerClientSeqMismatch(t *testing.T) {
	// A server that answers with a wrong sequence number.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := ReadFrame(conn); err != nil {
			return
		}
		_ = WriteFrameV2(conn, &Message{Type: MsgHeartbeatAck, Seq: 9999})
	}()
	p := newPeerClient(ln.Addr().String(), 500*time.Millisecond, nil)
	if _, err := p.call(&Message{Type: MsgHeartbeat}); err == nil {
		t.Fatal("sequence mismatch accepted")
	}
}

// TestLiveConcurrentWriters hammers one node from several goroutines and
// verifies data integrity afterwards (the node's mutex discipline).
func TestLiveConcurrentWriters(t *testing.T) {
	a, _ := livePair(t)
	ps := a.Device().PageSize()
	const workers, perWorker = 8, 50
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < perWorker; i++ {
				lpn := int64(w*perWorker + i)
				if err := a.Write(lpn, page(byte(w), ps)); err != nil {
					errs <- err
					return
				}
				if _, err := a.Read(lpn, 1); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			lpn := int64(w*perWorker + i)
			got, err := a.Read(lpn, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != byte(w) {
				t.Fatalf("lpn %d corrupted: %x, want %x", lpn, got[0], byte(w))
			}
		}
	}
}

// slowReader yields one byte per Read call, simulating a dribbling TCP
// stream; ReadFrame must reassemble frames regardless of segmentation.
type slowReader struct {
	data []byte
	pos  int
}

func (r *slowReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	p[0] = r.data[r.pos]
	r.pos++
	return 1, nil
}

func TestReadFrameFromDribblingStream(t *testing.T) {
	var buf bytes.Buffer
	orig := &Message{Type: MsgWriteFwd, Seq: 3, LPNs: []int64{1, 2}, Data: []byte("payload")}
	if err := WriteFrameV2(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&slowReader{data: buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 3 || len(got.LPNs) != 2 || string(got.Data) != "payload" {
		t.Fatalf("frame reassembly wrong: %+v", got)
	}
	// A truncated stream yields an error, not a partial message.
	if _, err := ReadFrame(&slowReader{data: buf.Bytes()[:buf.Len()-2]}); err == nil {
		t.Fatal("truncated frame accepted")
	}
}
