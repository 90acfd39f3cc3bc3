package cluster

import (
	"testing"
	"time"
)

func TestLiveRebalanceRespondsToWriteIntensity(t *testing.T) {
	a, b := livePair(t)
	ps := a.Device().PageSize()

	// Make b write-intensive (its window reports a high write fraction).
	for i := int64(0); i < 50; i++ {
		if err := b.Write(i, page(1, ps)); err != nil {
			t.Fatal(err)
		}
	}
	thetaHot, err := a.RebalanceOnce()
	if err != nil {
		t.Fatal(err)
	}
	if thetaHot <= 0 {
		t.Fatalf("theta = %v with a write-intensive partner", thetaHot)
	}
	if a.Stats().Rebalances != 1 {
		t.Fatalf("Rebalances = %d", a.Stats().Rebalances)
	}
	// The remote budget — here all of it b's hold — grew toward θ·total.
	total := a.cfg.BufferPages + a.cfg.RemotePages
	wantRemote := int(thetaHot * float64(total))
	a.mu.Lock()
	budget, hold := a.remoteBudget, a.holdForLocked(b.Addr(), false)
	a.mu.Unlock()
	if budget != wantRemote || hold == nil || hold.store.Capacity() != wantRemote {
		t.Fatalf("remote budget = %d, hold for b = %v, want capacity %d", budget, hold != nil, wantRemote)
	}
	if a.Buffer().Capacity() != total-wantRemote {
		t.Fatalf("local capacity = %d", a.Buffer().Capacity())
	}

	// Now b's window is read-only: θ must fall.
	for i := int64(0); i < 50; i++ {
		if _, err := b.Read(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	thetaCold, err := a.RebalanceOnce()
	if err != nil {
		t.Fatal(err)
	}
	if thetaCold >= thetaHot {
		t.Fatalf("theta did not fall for a read-intensive partner: %v -> %v", thetaHot, thetaCold)
	}
}

func TestLiveRebalanceNoPeer(t *testing.T) {
	n, err := NewLiveNode(LiveConfig{
		Name: "solo", ListenAddr: "127.0.0.1:0",
		BufferPages: 16, RemotePages: 16, SSD: liveSSD(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.RebalanceOnce(); err != errNoPeer {
		t.Fatalf("solo rebalance: %v", err)
	}
}

func TestLiveStartRebalanceLoop(t *testing.T) {
	a, b := livePair(t)
	ps := b.Device().PageSize()
	for i := int64(0); i < 20; i++ {
		if err := b.Write(i, page(2, ps)); err != nil {
			t.Fatal(err)
		}
	}
	a.StartRebalance(15 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && a.Stats().Rebalances == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if a.Stats().Rebalances == 0 {
		t.Fatal("rebalance loop never ran")
	}
}

func TestLiveTrim(t *testing.T) {
	a, b := livePair(t)
	ps := a.Device().PageSize()
	for i := int64(0); i < 8; i++ {
		if err := a.Write(i, page(byte(i), ps)); err != nil {
			t.Fatal(err)
		}
	}
	if b.RemoteLen() != 8 {
		t.Fatalf("backups = %d", b.RemoteLen())
	}
	persists0 := a.Stats().Persists
	if err := a.Trim(0, 8); err != nil {
		t.Fatal(err)
	}
	if a.Buffer().Len() != 0 {
		t.Error("pages still buffered after trim")
	}
	// Trimmed data never became durable.
	if a.Stats().Persists != persists0 {
		t.Error("trim persisted data")
	}
	// The discard notice is async; wait for it.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && b.RemoteLen() > 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if b.RemoteLen() != 0 {
		t.Error("backups not discarded after trim")
	}
	// Reads of trimmed pages return zeros.
	got, err := a.Read(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, bb := range got {
		if bb != 0 {
			t.Fatal("trimmed page not zero")
		}
	}
}
