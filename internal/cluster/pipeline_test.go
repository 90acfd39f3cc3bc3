package cluster

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flashcoop/internal/testutil"
)

// TestPeerClientPipelined verifies that many calls share one connection
// concurrently and all complete.
func TestPeerClientPipelined(t *testing.T) {
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
		for {
			msg, err := ReadFrame(conn)
			if err != nil {
				return
			}
			if err := WriteFrameV2(conn, &Message{Type: MsgHeartbeatAck, Seq: msg.Seq}); err != nil {
				return
			}
		}
	}()
	p := newPeerClient(ln.Addr().String(), time.Second, nil)
	defer p.close()
	const callers, per = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := p.call(&Message{Type: MsgHeartbeat}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if dials, _ := p.dialStats(); dials != 1 {
		t.Errorf("pipelined calls used %d connections, want 1", dials)
	}
}

// TestPeerClientOutOfOrderResponses runs a server that deliberately
// answers request pairs in reverse order; Seq matching must route each
// response to its own caller.
func TestPeerClientOutOfOrderResponses(t *testing.T) {
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
		for {
			m1, err := ReadFrame(conn)
			if err != nil {
				return
			}
			m2, err := ReadFrame(conn)
			if err != nil {
				return
			}
			// Echo the request's first LPN back in the response so the
			// caller can check it got ITS answer, not just any answer.
			for _, m := range []*Message{m2, m1} {
				if err := WriteFrameV2(conn, &Message{Type: MsgDiscardAck, Seq: m.Seq, LPNs: m.LPNs}); err != nil {
					return
				}
			}
		}
	}()
	p := newPeerClient(ln.Addr().String(), time.Second, nil)
	defer p.close()
	const pairs = 20
	for i := 0; i < pairs; i++ {
		c1, err := p.start(&Message{Type: MsgDiscard, LPNs: []int64{int64(2 * i)}})
		if err != nil {
			t.Fatal(err)
		}
		c2, err := p.start(&Message{Type: MsgDiscard, LPNs: []int64{int64(2*i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		r1, err := p.waitT(c1, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := p.waitT(c2, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if r1.LPNs[0] != int64(2*i) || r2.LPNs[0] != int64(2*i+1) {
			t.Fatalf("responses crossed: got %d/%d, want %d/%d", r1.LPNs[0], r2.LPNs[0], 2*i, 2*i+1)
		}
	}
}

// TestPeerClientDialBackoff hammers a dead address and verifies the
// backoff gate rejects most attempts without dialing.
func TestPeerClientDialBackoff(t *testing.T) {
	// Grab an address nothing listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	p := newPeerClient(addr, 100*time.Millisecond, nil)
	defer p.close()
	const attempts = 50
	for i := 0; i < attempts; i++ {
		if _, err := p.call(&Message{Type: MsgHeartbeat}); err == nil {
			t.Fatal("call to dead address succeeded")
		}
	}
	dials, skips := p.dialStats()
	if dials+skips != attempts {
		t.Fatalf("dials %d + skips %d != attempts %d", dials, skips, attempts)
	}
	if skips == 0 {
		t.Error("backoff gate never engaged: every failed call redialed")
	}
	if dials >= attempts/2 {
		t.Errorf("%d/%d calls dialed a dead partner; backoff not bounding redials", dials, attempts)
	}
}

// TestBatchedForwarding drives many concurrent writers and verifies the
// forwarder coalesced their backups into fewer frames than writes, with
// every backup landing on the partner.
func TestBatchedForwarding(t *testing.T) {
	a, b := livePair(t)
	ps := a.Device().PageSize()
	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lpn := int64(1000 + w*perWorker + i)
				if err := a.Write(lpn, page(byte(w+1), ps)); err != nil {
					failed.Add(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatal("writes failed")
	}
	st := a.Stats()
	if st.Forwards != workers*perWorker {
		t.Fatalf("forwards %d, want %d", st.Forwards, workers*perWorker)
	}
	if st.FwdFrames == 0 || st.FwdFrames > st.Forwards {
		t.Fatalf("frames %d out of range (forwards %d)", st.FwdFrames, st.Forwards)
	}
	t.Logf("batching factor: %d forwards / %d frames = %.2f",
		st.Forwards, st.FwdFrames, float64(st.Forwards)/float64(st.FwdFrames))
	// Backups present unless already flushed+discarded: every written page
	// must be either backed up on b or durable on a.
	durable := func(lpn int64) bool { return a.DurableGet(lpn) != nil }
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			lpn := int64(1000 + w*perWorker + i)
			if !b.RemoteContains(lpn) && !durable(lpn) {
				t.Fatalf("lpn %d neither backed up nor durable", lpn)
			}
		}
	}
	if lat := a.WriteLatencyStats(); lat.Count != workers*perWorker {
		t.Errorf("write latency count %d, want %d", lat.Count, workers*perWorker)
	}
}

// TestFailoverWithBatchInFlight crashes the partner while concurrent
// writers have batches in flight: every Write must still return (no lost
// acks) and every page must end up durable or backed up.
func TestFailoverWithBatchInFlight(t *testing.T) {
	a, b := livePair(t)
	ps := a.Device().PageSize()
	const workers, perWorker = 8, 60
	var wg sync.WaitGroup
	errCount := atomic.Int64{}
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				lpn := int64(w*perWorker + i)
				if err := a.Write(lpn, page(byte(w+1), ps)); err != nil {
					errCount.Add(1)
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(2 * time.Millisecond) // let batches get in flight
	b.Crash()
	wg.Wait()
	if errCount.Load() != 0 {
		t.Fatalf("%d writers returned errors after failover", errCount.Load())
	}
	if a.PeerAlive() {
		t.Error("peer still marked alive after crash mid-batch")
	}
	// Every write is readable with correct contents (degraded writes
	// persisted, pre-crash writes either buffered+backed-up or durable).
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			lpn := int64(w*perWorker + i)
			got, err := a.Read(lpn, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != byte(w+1) {
				t.Fatalf("lpn %d corrupted after failover: %x", lpn, got[0])
			}
		}
	}
	// Dirty pages that lost their backup must not linger once failover
	// flushed or wrote through; writes after the failure are write-through.
	if st := a.Stats(); st.ForwardFailures == 0 {
		t.Error("no forward failures recorded despite mid-batch crash")
	}
}

// TestDiscardsRideThePipeline overflows the buffer so evictions emit
// discards, and verifies the partner's backups for flushed pages go away
// without any fire-and-forget goroutines (leak check covers the rest).
func TestDiscardsRideThePipeline(t *testing.T) {
	a, b := livePair(t)
	ps := a.Device().PageSize()
	// 64-page buffer: 200 distinct block-spread pages force evictions.
	for i := int64(0); i < 200; i++ {
		if err := a.Write(i*8, page(byte(i), ps)); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.Persists == 0 {
		t.Fatal("no evictions; test needs buffer overflow")
	}
	// The discards are advisory and asynchronous; poll until the remote
	// backup count drops to at most the locally-buffered page count.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if b.RemoteLen() <= a.Buffer().Len() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("partner still holds %d backups for a %d-page buffer; discards not flowing",
		b.RemoteLen(), a.Buffer().Len())
}

// TestNoGoroutineLeakAfterClose runs a full traffic mix (forwards,
// discards, heartbeats) and verifies Close returns the process to its
// baseline goroutine count — the old code leaked a goroutine per flush.
func TestNoGoroutineLeakAfterClose(t *testing.T) {
	verify := testutil.CheckGoroutineLeak(t)
	a, b := livePair(t)
	a.StartHeartbeat()
	b.StartHeartbeat()
	ps := a.Device().PageSize()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 100; i++ {
				_ = a.Write(int64(w)*400+i*4, page(byte(i), ps))
			}
		}(w)
	}
	wg.Wait()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	verify()
}

// TestWriteAfterCloseFailsFast ensures a Write racing a Close neither
// hangs on the forward queue nor panics.
func TestWriteAfterCloseFailsFast(t *testing.T) {
	a, _ := livePair(t)
	ps := a.Device().PageSize()
	if err := a.Write(1, page(1, ps)); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Outcome (error or degraded success) is unspecified; returning is
		// what matters.
		_ = a.Write(2, page(2, ps))
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Write hung after Close")
	}
}

// TestSyncConfigStillCorrect runs the degenerate single-page,
// single-inflight configuration (the old synchronous path) end to end.
func TestSyncConfigStillCorrect(t *testing.T) {
	a, err := NewLiveNode(LiveConfig{
		Name: "a", ListenAddr: "127.0.0.1:0",
		BufferPages: 64, RemotePages: 128, SSD: liveSSD(),
		CallTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewLiveNode(LiveConfig{
		Name: "b", ListenAddr: "127.0.0.1:0", PeerAddr: a.Addr(),
		BufferPages: 64, RemotePages: 128, SSD: liveSSD(),
		CallTimeout:   500 * time.Millisecond,
		MaxBatchPages: 1, MaxInflight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.ConnectPeer(); err != nil {
		t.Fatal(err)
	}
	ps := b.Device().PageSize()
	for i := int64(0); i < 32; i++ {
		if err := b.Write(i, page(byte(i), ps)); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.Forwards != 32 || st.FwdFrames != 32 {
		t.Fatalf("sync config batched: forwards=%d frames=%d, want 32/32", st.Forwards, st.FwdFrames)
	}
	for i := int64(0); i < 32; i++ {
		if !a.RemoteContains(i) {
			t.Fatalf("backup %d missing", i)
		}
	}
}

// TestStatsStringerCoverage keeps the MsgType stringer honest for the
// types the pipeline emits.
func TestStatsStringerCoverage(t *testing.T) {
	for _, mt := range []MsgType{MsgWriteFwd, MsgDiscard, MsgWriteAck, MsgDiscardAck} {
		if s := mt.String(); strings.HasPrefix(s, "MsgType(") {
			t.Errorf("missing name for %d", mt)
		}
	}
	if s := MsgType(200).String(); s != fmt.Sprintf("MsgType(%d)", 200) {
		t.Errorf("unknown type stringer: %s", s)
	}
}
