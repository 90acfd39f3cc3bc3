package flashcoop_test

import (
	"testing"
	"time"

	"flashcoop"
)

// TestSimulationLifecycle drives a full cooperative-pair scenario through
// the public API: buffered traffic, a remote failure mid-stream, degraded
// operation, partner recovery, and resumed cooperation.
func TestSimulationLifecycle(t *testing.T) {
	cfgA := flashcoop.DefaultConfig("a", flashcoop.PolicyLAR)
	cfgB := flashcoop.DefaultConfig("b", flashcoop.PolicyLAR)
	a, b, err := flashcoop.NewPair(cfgA, cfgB)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: cooperative buffering.
	var at flashcoop.VTime
	for i := int64(0); i < 200; i++ {
		if _, err := a.Access(flashcoop.Request{
			Arrival: at, Op: flashcoop.OpWrite, LPN: i * 3, Pages: 1,
		}); err != nil {
			t.Fatal(err)
		}
		at += flashcoop.Millisecond
	}
	if a.Stats().BufferedWrites != 200 {
		t.Fatalf("buffered = %d", a.Stats().BufferedWrites)
	}
	if b.Remote().Len() == 0 {
		t.Fatal("no backups on b")
	}

	// Phase 2: b crashes; a's next write detects it, flushes, degrades.
	b.Fail()
	if _, err := a.Access(flashcoop.Request{
		Arrival: at, Op: flashcoop.OpWrite, LPN: 9999, Pages: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if a.PeerAlive() {
		t.Fatal("a did not detect b's failure")
	}
	if a.Buffer().DirtyLen() != 0 {
		t.Fatal("dirty data not flushed on failover")
	}

	// Phase 3: b recovers; a's heartbeat re-discovers it.
	at += flashcoop.Second
	if _, err := b.RecoverFromLocalFailure(at); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Heartbeat(at + flashcoop.Second); err != nil {
		t.Fatal(err)
	}
	if !a.PeerAlive() {
		t.Fatal("a did not rediscover b")
	}

	// Phase 4: cooperation resumed; writes buffer again.
	before := a.Stats().BufferedWrites
	if _, err := a.Access(flashcoop.Request{
		Arrival: at + 2*flashcoop.Second, Op: flashcoop.OpWrite, LPN: 1, Pages: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if a.Stats().BufferedWrites != before+1 {
		t.Fatal("buffering did not resume after recovery")
	}
	if err := a.Device().FTL().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSimulationReplayAllPolicies replays the same trace through every
// policy (including the extension policies) and checks the paper's core
// ordering: every buffered system beats the baseline on erases.
func TestSimulationReplayAllPolicies(t *testing.T) {
	prof := flashcoop.Fin1(3000, 11)
	results := make(map[string]flashcoop.ReplayStats)
	for _, policy := range []string{"lar", "lru", "lfu", "bplru", "fab", "baseline"} {
		cfg := flashcoop.DefaultConfig("s1", policy)
		cfg.BufferPages = 512
		cfg.RemotePages = 512
		peer := cfg
		peer.Name = "s2"
		a, _, err := flashcoop.NewPair(cfg, peer)
		if err != nil {
			t.Fatal(err)
		}
		p := prof
		p.AddrPages = a.Device().UserPages() / 2
		reqs, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		rs, err := flashcoop.Replay(a, reqs, flashcoop.ReplayOptions{})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		results[policy] = rs
	}
	base := results["baseline"]
	for policy, rs := range results {
		if policy == "baseline" {
			continue
		}
		if rs.Erases >= base.Erases {
			t.Errorf("%s erases %d not below baseline %d", policy, rs.Erases, base.Erases)
		}
		if rs.Resp.Mean() >= base.Resp.Mean() {
			t.Errorf("%s resp %.3f not below baseline %.3f", policy, rs.Resp.Mean(), base.Resp.Mean())
		}
	}
}

// TestLiveLifecycle runs the cooperative protocol over real loopback TCP
// through the public API: write, verify backup, crash, recover, verify
// data integrity.
func TestLiveLifecycle(t *testing.T) {
	ssd := flashcoop.DefaultSSD("page", 256)
	a, err := flashcoop.NewLiveNode(flashcoop.LiveConfig{
		Name: "a", ListenAddr: "127.0.0.1:0",
		BufferPages: 64, RemotePages: 128, SSD: ssd,
		CallTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := flashcoop.NewLiveNode(flashcoop.LiveConfig{
		Name: "b", ListenAddr: "127.0.0.1:0", PeerAddr: a.Addr(),
		BufferPages: 64, RemotePages: 128, SSD: ssd,
		CallTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.ConnectPeer(); err != nil {
		t.Fatal(err)
	}

	ps := b.Device().PageSize()
	payload := make([]byte, ps)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := b.Write(7, payload); err != nil {
		t.Fatal(err)
	}
	if !a.RemoteContains(7) {
		t.Fatal("backup missing")
	}

	// b crashes and is replaced; the replacement recovers page 7 from a.
	// a files b's backups under b's member ID — its listen address — so
	// the replacement comes back on the same address.
	b.Crash()
	b2, err := flashcoop.NewLiveNode(flashcoop.LiveConfig{
		Name: "b2", ListenAddr: b.Addr(), PeerAddr: a.Addr(),
		BufferPages: 64, RemotePages: 128, SSD: ssd,
		CallTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	defer a.Close()
	if err := b2.ConnectPeer(); err != nil {
		t.Fatal(err)
	}
	if err := b2.RecoverFromPeer(); err != nil {
		t.Fatal(err)
	}
	got, err := b2.Read(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d corrupted: %x", i, got[i])
		}
	}
}
