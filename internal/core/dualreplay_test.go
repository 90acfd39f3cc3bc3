package core

import (
	"testing"

	"flashcoop/internal/trace"
	"flashcoop/internal/workload"
)

func dualPair(t *testing.T) (*Node, *Node) {
	t.Helper()
	cfg := testCfg("local", "lar")
	peer := cfg
	peer.Name = "remote"
	a, b, err := NewPair(cfg, peer)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func dualWorkload(t *testing.T, n *Node, name string, reqs int, seed int64) []trace.Request {
	t.Helper()
	prof, err := workload.ByName(name, reqs, seed)
	if err != nil {
		t.Fatal(err)
	}
	prof.AddrPages = n.Device().UserPages() / 2
	prof.PagesPerBlock = n.Device().PagesPerBlock()
	out, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDualReplayBothSidesServe(t *testing.T) {
	a, b := dualPair(t)
	la := dualWorkload(t, a, "Fin2", 400, 1)
	lb := dualWorkload(t, b, "Fin1", 400, 2)
	ds, err := DualReplay(a, b, la, lb, DualReplayOptions{RebalanceEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Local.Requests != 400 || ds.Remote.Requests != 400 {
		t.Fatalf("requests = %d/%d", ds.Local.Requests, ds.Remote.Requests)
	}
	if ds.Local.Resp.Count() != 400 || ds.Remote.Resp.Count() != 400 {
		t.Fatal("response samples missing")
	}
	if len(ds.LocalThetas) == 0 || len(ds.RemoteThetas) == 0 {
		t.Fatal("no rebalance rounds recorded")
	}
	// The read-heavy local node should grant a bigger remote share than
	// the write-heavy remote node grants back.
	last := len(ds.LocalThetas) - 1
	if ds.LocalThetas[last] <= ds.RemoteThetas[last] {
		t.Errorf("theta asymmetry wrong: local %.3f <= remote %.3f",
			ds.LocalThetas[last], ds.RemoteThetas[last])
	}
	// Each round reads both workload windows before either node resets
	// them, so the remote node sees the local node's writes: by the first
	// round both nodes have served requests, and the remote θ (the share
	// it lends to the local node's backups) must not collapse to zero.
	if ds.RemoteThetas[0] == 0 {
		t.Fatalf("remote thetas %v: first round 0 against a partner that writes", ds.RemoteThetas)
	}
	if err := a.Device().FTL().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := b.Device().FTL().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDualReplayRequiresAttachedPair(t *testing.T) {
	a, _ := dualPair(t)
	c, err := NewNode(testCfg("stranger", "lar"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DualReplay(a, c, nil, nil, DualReplayOptions{}); err == nil {
		t.Fatal("unattached pair accepted")
	}
}
