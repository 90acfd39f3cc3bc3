package cluster

import (
	"net"
	"sync"
	"testing"
	"time"

	"flashcoop/internal/testutil"
)

// TestNoLeakHeartbeatCloseRace closes a node immediately after starting
// its heartbeat, across several timings: the monitor goroutine must wind
// down whether it never ticked, is mid-call against a dead partner, or is
// waiting out the dial backoff.
func TestNoLeakHeartbeatCloseRace(t *testing.T) {
	verify := testutil.CheckGoroutineLeak(t)

	// A dead partner address: reserve a port, then close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	for _, delay := range []time.Duration{0, 5 * time.Millisecond, 30 * time.Millisecond} {
		n, err := NewLiveNode(LiveConfig{
			Name: "hb", ListenAddr: "127.0.0.1:0", PeerAddr: deadAddr,
			BufferPages: 8, RemotePages: 8, SSD: liveSSD(),
			HeartbeatInterval: 2 * time.Millisecond,
			CallTimeout:       50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.StartHeartbeat()
		time.Sleep(delay)
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
	verify()
}

// TestNoLeakRecoverFromPeerError drives RecoverFromPeer down its failure
// paths — no peer configured, peer unreachable, peer gone mid-exchange —
// and verifies nothing is left running afterwards.
func TestNoLeakRecoverFromPeerError(t *testing.T) {
	verify := testutil.CheckGoroutineLeak(t)

	// Solo node: errNoPeer, trivially.
	solo, err := NewLiveNode(LiveConfig{
		Name: "solo", ListenAddr: "127.0.0.1:0",
		BufferPages: 8, RemotePages: 8, SSD: liveSSD(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := solo.RecoverFromPeer(); err == nil {
		t.Fatal("recovery without a peer should fail")
	}
	if err := solo.Close(); err != nil {
		t.Fatal(err)
	}

	// Peer address with nobody listening: the fetch call fails.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	orphan, err := NewLiveNode(LiveConfig{
		Name: "orphan", ListenAddr: "127.0.0.1:0", PeerAddr: deadAddr,
		BufferPages: 8, RemotePages: 8, SSD: liveSSD(),
		CallTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := orphan.RecoverFromPeer(); err == nil {
		t.Fatal("recovery against a dead peer should fail")
	}
	if err := orphan.Close(); err != nil {
		t.Fatal(err)
	}

	// Partner crashes between the node's connect and its recovery: the
	// in-flight fetch errors out rather than wedging the caller.
	a, b := livePair(t)
	b.Crash()
	if err := a.RecoverFromPeer(); err == nil {
		t.Fatal("recovery from a crashed peer should fail")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	verify()
}

// ringForLeak builds an n-node ring the leak tests tear down themselves
// (no t.Cleanup — the verifier must run after the last Close).
func ringForLeak(t *testing.T, n int) []*LiveNode {
	t.Helper()
	cfgs := make([]LiveConfig, n)
	for i := range cfgs {
		cfgs[i] = LiveConfig{
			Name: "lk", ListenAddr: "127.0.0.1:0",
			BufferPages: 16, RemotePages: 64, SSD: liveSSD(),
			HeartbeatInterval: 5 * time.Millisecond,
			FailureThreshold:  2,
			CallTimeout:       100 * time.Millisecond,
		}
	}
	nodes, err := NewLiveRing(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

// TestNoLeakRingCloseRace closes a whole ring at staggered points after
// startup: every member's per-link goroutine set (N-1 forwarders, peer
// clients, heartbeat monitor, probers mid-backoff) must wind down whether
// the node barely started or is in steady state.
func TestNoLeakRingCloseRace(t *testing.T) {
	verify := testutil.CheckGoroutineLeak(t)
	for _, delay := range []time.Duration{0, 10 * time.Millisecond, 50 * time.Millisecond} {
		nodes := ringForLeak(t, 3)
		for _, m := range nodes {
			if err := m.ConnectPeer(); err != nil {
				t.Fatal(err)
			}
			m.StartHeartbeat()
		}
		// Kill one member first so the survivors' links to it degrade and
		// spin up probers; their backoff loops must also obey Close.
		nodes[2].Crash()
		time.Sleep(delay)
		for _, m := range nodes[:2] {
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	verify()
}

// TestNoLeakRingMemberRemoval removes a ring member by membership change —
// including a member that is down with probers chasing it and degraded
// writes journaled for it — and verifies the departed link's forwarder,
// prober, and client goroutines are reaped by the removal itself, not
// only by node shutdown.
func TestNoLeakRingMemberRemoval(t *testing.T) {
	verify := testutil.CheckGoroutineLeak(t)
	nodes := ringForLeak(t, 4)
	for _, m := range nodes {
		if err := m.ConnectPeer(); err != nil {
			t.Fatal(err)
		}
		m.StartHeartbeat()
	}
	ps := nodes[0].Device().PageSize()

	// Healthy removal: drop nodes[3] from the layout. ProposeMembership
	// tells every surviving member; each must halt and reap its link.
	survivors := []string{nodes[0].Addr(), nodes[1].Addr(), nodes[2].Addr()}
	if _, err := nodes[0].ProposeMembership(survivors); err != nil {
		t.Fatal(err)
	}
	for _, m := range nodes[:3] {
		if got := len(m.PeerStates()); got != 2 {
			t.Fatalf("node %s still tracks %d links, want 2", m.cfg.Name, got)
		}
	}
	if err := nodes[3].Close(); err != nil {
		t.Fatal(err)
	}

	// Down-member removal: crash nodes[2], let the survivors degrade and
	// start probing it, journal some degraded writes against it, then
	// remove it. The halt must stop a prober mid-backoff and abandon the
	// journal without wedging.
	nodes[2].Crash()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		st := nodes[0].PeerStates()[nodes[2].Addr()]
		if st == StateDegraded || st == StateProbing || st == StateResyncing {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for blk := 0; blk < 8; blk++ {
		if err := nodes[0].Write(int64(blk*nodes[0].ppb), page(0xAA, ps)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nodes[0].ProposeMembership([]string{nodes[0].Addr(), nodes[1].Addr()}); err != nil {
		t.Fatal(err)
	}
	if got := len(nodes[0].PeerStates()); got != 1 {
		t.Fatalf("node 0 still tracks %d links, want 1", got)
	}
	for _, m := range nodes[:2] {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	verify()
}

// lateListener hands each accepted conn over only after the listener has
// been closed, and a pause later: the conn reaches acceptLoop after
// shutdown has swept the node's conns, the widest form of the window
// between Accept returning and the conn's registration.
type lateListener struct {
	net.Listener
	closed    chan struct{}
	closeOnce sync.Once
}

func (l *lateListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	<-l.closed
	time.Sleep(20 * time.Millisecond)
	return c, nil
}

func (l *lateListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return l.Listener.Close()
}

// TestCloseRacesAccept dials a node as it closes. A partner conn accepted
// during shutdown must be swept or refused: Close has to return within a
// bound instead of waiting on a serveConn that reads the still-open conn
// forever.
func TestCloseRacesAccept(t *testing.T) {
	verify := testutil.CheckGoroutineLeak(t)
	for round := 0; round < 5; round++ {
		n, err := NewLiveNode(LiveConfig{
			Name: "accept", ListenAddr: "127.0.0.1:0",
			BufferPages: 8, RemotePages: 8, SSD: liveSSD(),
			Listener: func(network, addr string) (net.Listener, error) {
				ln, err := net.Listen(network, addr)
				if err != nil {
					return nil, err
				}
				return &lateListener{Listener: ln, closed: make(chan struct{})}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		// The client end stays open until Close returns, so a conn the
		// node failed to close would block its reader for good.
		c, err := net.Dial("tcp", n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- n.Close() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Close hung on a conn accepted during shutdown", round)
		}
		c.Close()
	}
	verify()
}
