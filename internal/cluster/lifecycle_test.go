package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"flashcoop/internal/faultnet"
	"flashcoop/internal/testutil"
)

// waitCond polls until cond holds or the deadline passes.
func waitCond(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestLifecycleEveryLegalEdge drives the pure state machine through all
// ten legal transitions via its event methods.
func TestLifecycleEveryLegalEdge(t *testing.T) {
	l := &lifecycle{state: StateHealthy, threshold: 2}

	// Healthy → Suspect (first heartbeat miss, below threshold).
	if act := l.heartbeatMiss(); act != lcNone || l.state != StateSuspect {
		t.Fatalf("after miss 1: state=%v act=%v, want suspect/none", l.state, act)
	}
	// Suspect → Healthy (heartbeat recovers before failover).
	if act := l.heartbeatOK(); act != lcNone || l.state != StateHealthy || l.missed != 0 {
		t.Fatalf("after recovery: state=%v act=%v missed=%d", l.state, act, l.missed)
	}
	// Healthy → Suspect → Degraded (threshold misses = failover).
	l.heartbeatMiss()
	if act := l.heartbeatMiss(); act != lcFailover || l.state != StateDegraded || !l.failedOver {
		t.Fatalf("after miss %d: state=%v act=%v failedOver=%v", l.missed, l.state, act, l.failedOver)
	}
	// Degraded: heartbeat success wakes the prober, never flips alive.
	if act := l.heartbeatOK(); act != lcKickProbe || l.state != StateDegraded || l.alive() {
		t.Fatalf("post-failover heartbeat: state=%v act=%v alive=%v", l.state, act, l.alive())
	}
	// Degraded → Probing → Resyncing → Healthy (the full rejoin).
	l.probeStart()
	if l.state != StateProbing {
		t.Fatalf("probeStart: state=%v", l.state)
	}
	l.probeOK()
	if l.state != StateResyncing {
		t.Fatalf("probeOK: state=%v", l.state)
	}
	l.resyncDone()
	if l.state != StateHealthy || l.failedOver || !l.alive() {
		t.Fatalf("resyncDone: state=%v failedOver=%v", l.state, l.failedOver)
	}

	// Healthy → Degraded (forward failure: hard evidence skips Suspect).
	if act := l.forwardFailed(); act != lcFailover || l.state != StateDegraded {
		t.Fatalf("forwardFailed: state=%v act=%v", l.state, act)
	}
	// Probing → Suspect on a failed probe (hysteresis below threshold)...
	l.missed = 0
	l.probeStart()
	l.probeFailed()
	if l.state != StateSuspect || !l.failedOver {
		t.Fatalf("probeFailed below threshold: state=%v failedOver=%v", l.state, l.failedOver)
	}
	if l.alive() {
		t.Fatal("post-failover Suspect must not count as alive")
	}
	// ...then Suspect → Probing, and back down to Degraded at threshold.
	l.probeStart()
	l.probeFailed()
	if l.state != StateDegraded {
		t.Fatalf("probeFailed at threshold: state=%v", l.state)
	}
	// Resyncing → Degraded on a mid-stream failure.
	l.probeStart()
	l.probeOK()
	l.resyncFailed()
	if l.state != StateDegraded {
		t.Fatalf("resyncFailed: state=%v", l.state)
	}
	// Suspect → Degraded via a forward failure before failover.
	l2 := &lifecycle{state: StateHealthy, threshold: 3}
	l2.heartbeatMiss()
	if !l2.alive() {
		t.Fatal("pre-failover Suspect should still be alive")
	}
	if act := l2.forwardFailed(); act != lcFailover || l2.state != StateDegraded {
		t.Fatalf("forwardFailed from pre-failover Suspect: state=%v act=%v", l2.state, act)
	}
}

// TestLifecycleIllegalEdgesRejected verifies to() refuses transitions
// outside the legality table.
func TestLifecycleIllegalEdgesRejected(t *testing.T) {
	bad := []struct{ from, to PeerState }{
		{StateHealthy, StateResyncing},
		{StateHealthy, StateProbing},
		{StateDegraded, StateHealthy}, // the silent rejoin, outlawed structurally
		{StateDegraded, StateSuspect},
		{StateDegraded, StateResyncing},
		{StateProbing, StateHealthy},
		{StateProbing, StateDegraded},
		{StateResyncing, StateSuspect},
		{StateResyncing, StateProbing},
		{StateSuspect, StateResyncing},
	}
	for _, c := range bad {
		l := &lifecycle{state: c.from, threshold: 3}
		if err := l.to(c.to); err == nil {
			t.Errorf("transition %v -> %v should be rejected", c.from, c.to)
		}
		if l.state != c.from {
			t.Errorf("rejected transition mutated state: %v", l.state)
		}
	}
	// And the table's own edges all pass.
	for from, tos := range legalEdges {
		for to := range tos {
			l := &lifecycle{state: from, threshold: 3}
			if err := l.to(to); err != nil {
				t.Errorf("legal transition %v -> %v rejected: %v", from, to, err)
			}
		}
	}
}

// stubPartner runs a minimal frame server; handler returning nil swallows
// the request (no reply ever — simulates a wedged partner).
func stubPartner(t *testing.T, handler func(m *Message) *Message) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	conns := make(map[net.Conn]struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns[conn] = struct{}{}
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					m, err := ReadFrame(conn)
					if err != nil {
						return
					}
					resp := handler(m)
					if resp == nil {
						continue
					}
					resp.Seq = m.Seq
					if err := WriteFrameV2(conn, resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

// TestWriteShedsWhenOverloaded saturates a 1-slot admission queue against
// a partner that swallows forwards: the queued write must fail fast with
// ErrOverloaded instead of blocking behind the wedged pipeline.
func TestWriteShedsWhenOverloaded(t *testing.T) {
	addr := stubPartner(t, func(m *Message) *Message {
		switch m.Type {
		case MsgHello:
			return &Message{Type: MsgHelloAck}
		case MsgHeartbeat:
			return &Message{Type: MsgHeartbeatAck}
		default:
			return nil // swallow: the forward never acks
		}
	})
	n, err := NewLiveNode(LiveConfig{
		Name: "sheds", ListenAddr: "127.0.0.1:0", PeerAddr: addr,
		BufferPages: 64, RemotePages: 64, SSD: liveSSD(),
		CallTimeout:    2 * time.Second,
		AdmissionLimit: 1,
		WriteDeadline:  40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.ConnectPeer(); err != nil {
		t.Fatal(err)
	}
	ps := n.Device().PageSize()

	// Occupy the only admission slot with a write stuck on its forward.
	first := make(chan error, 1)
	go func() { first <- n.Write(0, page(0x01, ps)) }()
	waitCond(t, "first write to be admitted", 2*time.Second, func() bool {
		return len(n.admit) == 1
	})

	t0 := time.Now()
	err = n.Write(1, page(0x02, ps))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated write returned %v, want ErrOverloaded", err)
	}
	if el := time.Since(t0); el > time.Second {
		t.Fatalf("shed took %v, not fail-fast", el)
	}
	if got := n.Stats().Overloads; got < 1 {
		t.Fatalf("Overloads = %d, want >= 1", got)
	}
	// The stuck write resolves once the call times out (degraded
	// write-through), well before the node closes.
	select {
	case err := <-first:
		if err != nil {
			t.Fatalf("first write: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first write never resolved")
	}
}

// TestBreakerTripsOnSlowForwards drives the full overload→recover loop: a
// partner acking forwards slower than BreakerThreshold trips the breaker
// to Degraded after BreakerWindow frames, and the prober + resync bring
// the pair back to Healthy once traffic stops.
func TestBreakerTripsOnSlowForwards(t *testing.T) {
	addr := stubPartner(t, func(m *Message) *Message {
		switch m.Type {
		case MsgHello:
			return &Message{Type: MsgHelloAck}
		case MsgHeartbeat:
			return &Message{Type: MsgHeartbeatAck}
		case MsgWriteFwd:
			time.Sleep(20 * time.Millisecond) // saturated, but answering
			return &Message{Type: MsgWriteAck}
		case MsgResync:
			return &Message{Type: MsgResyncAck}
		case MsgDiscard:
			return &Message{Type: MsgDiscardAck}
		default:
			return &Message{Type: MsgError, Err: "unexpected"}
		}
	})
	n, err := NewLiveNode(LiveConfig{
		Name: "breaker", ListenAddr: "127.0.0.1:0", PeerAddr: addr,
		BufferPages: 64, RemotePages: 64, SSD: liveSSD(),
		CallTimeout:      time.Second,
		BreakerThreshold: time.Millisecond,
		BreakerWindow:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.ConnectPeer(); err != nil {
		t.Fatal(err)
	}
	ps := n.Device().PageSize()
	for i := int64(0); i < 2; i++ {
		if err := n.Write(i, page(byte(i+1), ps)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	waitCond(t, "breaker trip", 2*time.Second, func() bool {
		return n.Stats().BreakerTrips >= 1
	})
	if st := n.Stats(); st.Failovers < 1 {
		t.Fatalf("breaker trip did not fail over: %+v", st)
	}
	// The partner answers probes, so the prober resyncs and rejoins.
	waitCond(t, "rejoin after breaker trip", 5*time.Second, func() bool {
		return n.PeerAlive() && n.Stats().Rejoins >= 1
	})
	if got := n.PeerLifecycle(); got != StateHealthy {
		t.Fatalf("lifecycle after rejoin = %v, want healthy", got)
	}
}

// TestRejoinResyncsDegradedWrites is the end-to-end fix for the silent
// rejoin: after a partition heals, heartbeat recovery alone must not
// resume cooperative mode — the node probes, re-replicates the pages it
// wrote through degraded mode, and only then flips Healthy, leaving the
// partner's RCT holding the post-outage payloads.
func TestRejoinResyncsDegradedWrites(t *testing.T) {
	netA := faultnet.New(11)
	b, err := NewLiveNode(LiveConfig{
		Name: "B", ListenAddr: "127.0.0.1:0",
		BufferPages: 32, RemotePages: 32, SSD: liveSSD(),
		CallTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := NewLiveNode(LiveConfig{
		Name: "A", ListenAddr: "127.0.0.1:0", PeerAddr: b.Addr(),
		BufferPages: 32, RemotePages: 32, SSD: liveSSD(),
		HeartbeatInterval: 20 * time.Millisecond,
		FailureThreshold:  2,
		CallTimeout:       200 * time.Millisecond,
		Dialer:            netA.Dial,
		Listener:          netA.Listen,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.ConnectPeer(); err != nil {
		t.Fatal(err)
	}
	a.StartHeartbeat()

	ps := a.Device().PageSize()
	const lpn = 5
	v1, v2 := page(0x11, ps), page(0x22, ps)
	if err := a.Write(lpn, v1); err != nil {
		t.Fatal(err)
	}

	// Cut A→B. The next write degrades and is journaled.
	netA.SetPartitioned(true)
	if err := a.Write(lpn, v2); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	waitCond(t, "failover", 5*time.Second, func() bool { return !a.PeerAlive() })
	if got := a.Stats().Rejoins; got != 0 {
		t.Fatalf("rejoined while partitioned? Rejoins=%d", got)
	}

	// Heal. Heartbeats recover, the prober rejoins through a resync.
	netA.SetPartitioned(false)
	waitCond(t, "rejoin after heal", 15*time.Second, func() bool {
		return a.PeerAlive() && a.Stats().Rejoins >= 1
	})
	st := a.Stats()
	if st.ResyncedPages < 1 {
		t.Fatalf("ResyncedPages = %d, want >= 1", st.ResyncedPages)
	}
	if got := a.PeerLifecycle(); got != StateHealthy {
		t.Fatalf("lifecycle = %v, want healthy", got)
	}
	// B's backup for the page must be the post-outage version.
	if got := b.SnapshotRemoteFor(a.Addr())[lpn]; !bytes.Equal(got, v2) {
		var head string
		if len(got) > 0 {
			head = fmt.Sprintf("%x", got[0])
		}
		t.Fatalf("B holds stale backup after rejoin (got %q, want 0x22)", head)
	}
}

// TestNoLeakProber crashes the partner, lets the prober run against the
// dead address, and verifies Close winds it down.
func TestNoLeakProber(t *testing.T) {
	verify := testutil.CheckGoroutineLeak(t)
	a, b := livePair(t) // cleanup closes both again; Close is idempotent
	b.Crash()
	ps := a.Device().PageSize()
	// The failed forward degrades the node and starts the prober.
	if err := a.Write(0, page(0xAA, ps)); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "prober to probe the dead partner", 5*time.Second, func() bool {
		return a.Stats().Probes >= 1
	})
	if a.PeerAlive() {
		t.Fatal("node should be degraded with the partner dead")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	verify()
}
