package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// liveRing brings up n connected ring nodes on localhost at epoch 1.
func liveRing(t *testing.T, n, replication int) []*LiveNode {
	t.Helper()
	cfgs := make([]LiveConfig, n)
	for i := range cfgs {
		cfgs[i] = LiveConfig{
			Name: fmt.Sprintf("r%d", i), ListenAddr: "127.0.0.1:0",
			BufferPages: 64, RemotePages: 256, SSD: liveSSD(),
			HeartbeatInterval: 20 * time.Millisecond,
			CallTimeout:       500 * time.Millisecond,
		}
	}
	nodes, err := NewLiveRing(cfgs, replication)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, m := range nodes {
			m.Close()
		}
	})
	for _, m := range nodes {
		if err := m.ConnectPeer(); err != nil {
			t.Fatal(err)
		}
	}
	return nodes
}

// ringOwnersOf recomputes the expected owner node(s) of an lpn written by
// home, using the same ring the nodes agreed on.
func ringOwnersOf(t *testing.T, nodes []*LiveNode, home *LiveNode, lpn int64) []*LiveNode {
	t.Helper()
	r, err := NewRing(home.RingMembers(), home.cfg.Replication)
	if err != nil {
		t.Fatal(err)
	}
	block := lpn / int64(home.ppb)
	ids := r.Owners(BlockKey(home.selfID, block), home.selfID)
	var owners []*LiveNode
	for _, id := range ids {
		for _, m := range nodes {
			if m.Addr() == id {
				owners = append(owners, m)
			}
		}
	}
	if len(owners) != len(ids) {
		t.Fatalf("owner IDs %v not all found among nodes", ids)
	}
	return owners
}

// TestLiveRingBasic: writes on every ring member must land their backups
// in the per-origin hold of exactly the ring-computed owner, and read
// back correctly everywhere.
func TestLiveRingBasic(t *testing.T) {
	nodes := liveRing(t, 3, 1)
	for _, m := range nodes {
		if got := m.RingEpoch(); got != 1 {
			t.Fatalf("epoch = %d, want 1", got)
		}
		if got := len(m.RingMembers()); got != 3 {
			t.Fatalf("members = %d, want 3", got)
		}
		if !m.PeerAlive() {
			t.Fatalf("node %s not alive after connect (states %v)", m.cfg.Name, m.PeerStates())
		}
	}
	ps := nodes[0].Device().PageSize()
	ppb := nodes[0].ppb
	for ni, m := range nodes {
		for blk := 0; blk < 8; blk++ {
			lpn := int64(blk * ppb)
			fill := byte(0x10*ni + blk + 1)
			if err := m.Write(lpn, page(fill, ps)); err != nil {
				t.Fatal(err)
			}
			got, err := m.Read(lpn, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, page(fill, ps)) {
				t.Fatalf("node %d block %d: read back wrong data", ni, blk)
			}
			owners := ringOwnersOf(t, nodes, m, lpn)
			if len(owners) != 1 {
				t.Fatalf("got %d owners, want 1", len(owners))
			}
			hold := owners[0].SnapshotRemoteFor(m.Addr())
			if !bytes.Equal(hold[lpn], page(fill, ps)) {
				t.Fatalf("node %d block %d: backup missing/wrong on owner %s", ni, blk, owners[0].cfg.Name)
			}
		}
	}
}

// TestLiveRingReplicationTwo: with replication 2 every written block must
// be backed up on two distinct members.
func TestLiveRingReplicationTwo(t *testing.T) {
	nodes := liveRing(t, 4, 2)
	ps := nodes[0].Device().PageSize()
	ppb := nodes[0].ppb
	home := nodes[0]
	for blk := 0; blk < 8; blk++ {
		lpn := int64(blk * ppb)
		if err := home.Write(lpn, page(byte(blk+1), ps)); err != nil {
			t.Fatal(err)
		}
		owners := ringOwnersOf(t, nodes, home, lpn)
		if len(owners) != 2 {
			t.Fatalf("block %d: %d owners, want 2", blk, len(owners))
		}
		for _, o := range owners {
			if hold := o.SnapshotRemoteFor(home.Addr()); !bytes.Equal(hold[lpn], page(byte(blk+1), ps)) {
				t.Fatalf("block %d: backup missing on owner %s", blk, o.cfg.Name)
			}
		}
	}
}

// TestLiveRingStaleEpochRejected: after a membership change, data-plane
// frames still routed under the previous epoch must be rejected by the
// survivors — the removed member was (deliberately) not told about the
// new layout, so its forwards carry the old epoch.
func TestLiveRingStaleEpochRejected(t *testing.T) {
	nodes := liveRing(t, 3, 1)
	ps := nodes[0].Device().PageSize()
	removed := nodes[2]

	// Survivors agree on a new 2-member layout at epoch 2.
	survivors := []string{nodes[0].Addr(), nodes[1].Addr()}
	epoch, err := nodes[0].ProposeMembership(survivors)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("epoch = %d, want 2", epoch)
	}
	if got := nodes[1].RingEpoch(); got != 2 {
		t.Fatalf("partner epoch = %d, want 2", got)
	}
	if got := removed.RingEpoch(); got != 1 {
		t.Fatalf("removed node's epoch = %d, want stale 1", got)
	}

	// The removed node still believes in epoch 1 and forwards there. Its
	// frames must bounce off the survivors' epoch check; the write itself
	// stays acked via local write-through.
	var rejected bool
	for blk := 0; blk < 8 && !rejected; blk++ {
		if err := removed.Write(int64(blk*removed.ppb), page(0xEE, ps)); err != nil {
			t.Fatal(err)
		}
		rejected = nodes[0].Stats().EpochRejects > 0 || nodes[1].Stats().EpochRejects > 0
	}
	if !rejected {
		t.Fatal("no stale-epoch frame was rejected")
	}
	// And the stale writes must not have landed in any survivor hold.
	for _, m := range nodes[:2] {
		if len(m.SnapshotRemoteFor(removed.Addr())) != 0 {
			t.Fatalf("stale-epoch backup landed on %s", m.cfg.Name)
		}
	}
}

// TestEpochFence: a configured member (epoch >= 1) rejects data-plane
// frames carrying epoch 0 — counting each and leaving its holds untouched
// — while a node that was never configured (epoch 0, a passive backup)
// accepts a member's epoch-1 frames and files them under their origin.
func TestEpochFence(t *testing.T) {
	n := bareNode(t)
	ps := n.pageSize
	fwd := &Message{Type: MsgWriteFwd, Seq: 1, LPNs: []int64{7}, Stamps: []uint64{3},
		Data: page(0x11, ps), Origin: testOrigin, Epoch: 1}
	if resp := n.handle(overWire(t, fwd), new(Message)); resp.Type != MsgWriteAck {
		t.Fatalf("unconfigured node answered an epoch-1 forward with %v %q", resp.Type, resp.Err)
	}
	if pg, st, ok := heldBackup(n, 7); !ok || st != 3 || !bytes.Equal(pg, page(0x11, ps)) {
		t.Fatalf("epoch-1 forward not filed under its origin: ok=%v stamp=%d", ok, st)
	}

	n.epochA.Store(1)
	for _, m := range []*Message{
		{Type: MsgWriteFwd, Seq: 2, LPNs: []int64{7}, Stamps: []uint64{9}, Data: page(0x22, ps), Origin: testOrigin},
		{Type: MsgResync, Seq: 3, LPNs: []int64{8}, Stamps: []uint64{9}, Data: page(0x22, ps), Origin: testOrigin},
		{Type: MsgDiscard, Seq: 4, LPNs: []int64{7}, Stamps: []uint64{9}, Origin: testOrigin},
	} {
		if resp := n.handle(overWire(t, m), new(Message)); resp.Type != MsgError {
			t.Fatalf("epoch-0 %v accepted by an epoch-1 member: %v", m.Type, resp.Type)
		}
	}
	if got := n.Stats().EpochRejects; got != 3 {
		t.Fatalf("EpochRejects = %d, want 3", got)
	}
	if pg, st, ok := heldBackup(n, 7); !ok || st != 3 || !bytes.Equal(pg, page(0x11, ps)) {
		t.Fatalf("rejected frames changed the hold: ok=%v stamp=%d", ok, st)
	}
	if _, _, ok := heldBackup(n, 8); ok {
		t.Fatal("rejected resync landed in the hold")
	}
}

// TestLiveRingJoinReprotects: growing the ring re-journals buffered dirty
// pages into their new owners, so a join is followed by warm backups under
// the new layout without waiting for new writes.
func TestLiveRingJoinReprotects(t *testing.T) {
	nodes := liveRing(t, 3, 1)
	ps := nodes[0].Device().PageSize()
	ppb := nodes[0].ppb
	home := nodes[0]
	for blk := 0; blk < 16; blk++ {
		if err := home.Write(int64(blk*ppb), page(byte(blk+1), ps)); err != nil {
			t.Fatal(err)
		}
	}

	// A fourth node joins: it must be told the new layout too, which
	// ProposeMembership does for every member of the NEW ring.
	extraCfg := LiveConfig{
		Name: "r3", ListenAddr: "127.0.0.1:0",
		BufferPages: 64, RemotePages: 256, SSD: liveSSD(),
		HeartbeatInterval: 20 * time.Millisecond,
		CallTimeout:       500 * time.Millisecond,
	}
	extra, err := NewLiveNode(extraCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer extra.Close()
	grown := append([]string{extra.Addr()}, home.RingMembers()...)
	if _, err := home.ProposeMembership(grown); err != nil {
		t.Fatal(err)
	}
	all := append(append([]*LiveNode(nil), nodes...), extra)
	for _, m := range all {
		if got := m.RingEpoch(); got != 2 {
			t.Fatalf("node %s epoch = %d, want 2", m.cfg.Name, got)
		}
		if err := m.ConnectPeer(); err != nil {
			t.Fatal(err)
		}
	}

	// New writes route under the new layout, including onto the joiner.
	landed := false
	for blk := 16; blk < 48; blk++ {
		lpn := int64(blk * ppb)
		if err := home.Write(lpn, page(byte(blk), ps)); err != nil {
			t.Fatal(err)
		}
		owners := ringOwnersOf(t, all, home, lpn)
		if owners[0] == extra {
			if hold := extra.SnapshotRemoteFor(home.Addr()); bytes.Equal(hold[lpn], page(byte(blk), ps)) {
				landed = true
				break
			}
		}
	}
	if !landed {
		t.Fatal("no block routed onto the joined member")
	}
}
