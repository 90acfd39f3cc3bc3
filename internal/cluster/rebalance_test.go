package cluster

import (
	"testing"
	"time"

	"flashcoop/internal/core"
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
	// a's own buffer and device stay idle, so its usage is the same
	// before and after the round.
	use := a.usage()
	thetaHot, err := a.RebalanceOnce()
	if err != nil {
		t.Fatal(err)
	}
	if thetaHot <= 0 {
		t.Fatalf("theta = %v with a write-intensive partner", thetaHot)
	}
	// The pair is the one-link case: θ is Eq. 1 of a's own memory and CPU
	// against b's write fraction, unweighted.
	st := b.Stats()
	bWrites := float64(st.Writes) / float64(st.Writes+st.Reads)
	want := core.Theta(core.DefaultAllocParams(),
		core.WorkloadInfo{Mem: use.Mem, CPU: use.CPU}, core.WorkloadInfo{WriteFrac: bWrites})
	if thetaHot != want {
		t.Fatalf("pair theta = %v, want core.Theta = %v", thetaHot, want)
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
	// Since a's previous query b only read: its write fraction is 0.
	if thetaCold != 0 {
		t.Fatalf("theta = %v after a read-only window", thetaCold)
	}
}

// TestLiveRebalancePartnerRoundFirst: a partner's own round must not drain
// the window this node reads. b writes, b rebalances, then a still sees
// b's writes.
func TestLiveRebalancePartnerRoundFirst(t *testing.T) {
	a, b := livePair(t)
	ps := b.Device().PageSize()
	for i := int64(0); i < 50; i++ {
		if err := b.Write(i, page(1, ps)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.RebalanceOnce(); err != nil {
		t.Fatal(err)
	}
	theta, err := a.RebalanceOnce()
	if err != nil {
		t.Fatal(err)
	}
	if theta <= 0 {
		t.Fatalf("a's theta = %v after b's own round, though b only wrote", theta)
	}
}

// TestLiveRingRebalance: in a 3-member ring every holder of member 0's
// backups lends memory to it by Eq. 1, like a pair does.
func TestLiveRingRebalance(t *testing.T) {
	nodes := liveRing(t, 3, 1)
	home := nodes[0]
	ps := home.Device().PageSize()
	for blk := 0; blk < 40; blk++ {
		if err := home.Write(int64(blk*home.ppb), page(byte(blk+1), ps)); err != nil {
			t.Fatal(err)
		}
	}
	holders := 0
	for _, m := range nodes[1:] {
		if len(m.SnapshotRemoteFor(home.Addr())) == 0 {
			continue
		}
		holders++
		theta, err := m.RebalanceOnce()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: theta = %.3f", m.cfg.Name, theta)
		if theta <= 0 {
			t.Fatalf("%s: theta = %v holding backups of a write-only member", m.cfg.Name, theta)
		}
		total := m.cfg.BufferPages + m.cfg.RemotePages
		m.mu.Lock()
		budget := m.remoteBudget
		m.mu.Unlock()
		if budget != int(theta*float64(total)) {
			t.Fatalf("%s: remote budget = %d, want θ·total = %d", m.cfg.Name, budget, int(theta*float64(total)))
		}
	}
	if holders == 0 {
		t.Fatal("no member holds backups of member 0")
	}
}

// TestLiveRingRebalanceConcurrent: every ring member runs its rebalance
// loop at once while member 0 writes, so each node answers several askers
// concurrently and resizes its buffer under live traffic.
func TestLiveRingRebalanceConcurrent(t *testing.T) {
	nodes := liveRing(t, 3, 1)
	home := nodes[0]
	ps := home.Device().PageSize()
	for _, m := range nodes {
		m.StartRebalance(2 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		if err := home.Write(int64(i%64*home.ppb), page(byte(i), ps)); err != nil {
			t.Fatal(err)
		}
		done := true
		for _, m := range nodes {
			done = done && m.Stats().Rebalances >= 5
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rebalance loops did not each complete 5 rounds")
		}
	}
}

// TestLiveWorkloadInfoPerAsker: each asker reads the write fraction of
// the ops since its own previous query, so one member's query never
// shrinks the window another member reads next.
func TestLiveWorkloadInfoPerAsker(t *testing.T) {
	nodes := liveRing(t, 3, 1)
	a, b, c := nodes[0], nodes[1], nodes[2]
	ps := b.Device().PageSize()
	ask := func(from *LiveNode) float64 {
		t.Helper()
		resp, err := from.linkByOrigin(b.selfID).client.call(&Message{Type: MsgWorkloadInfo, Origin: from.selfID})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Info.WriteFrac
	}
	for i := int64(0); i < 20; i++ {
		if err := b.Write(i, page(1, ps)); err != nil {
			t.Fatal(err)
		}
	}
	if got := ask(c); got != 1 {
		t.Fatalf("c's first query: write fraction %v, want 1", got)
	}
	for i := int64(0); i < 20; i++ {
		if _, err := b.Read(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	// a never asked: it sees all 20 writes and 20 reads, c's query above
	// notwithstanding.
	if got := ask(a); got != 0.5 {
		t.Fatalf("a after c's query: write fraction %v, want 0.5", got)
	}
	if got := ask(c); got != 0 {
		t.Fatalf("c's second query: write fraction %v, want 0 (only reads since)", got)
	}
}

// TestSetMembersPrunesInfoBase: a member that leaves the ring takes its
// workload-window baseline with it, so the per-asker map is bounded by
// the current membership, not by every member ever seen.
func TestSetMembersPrunesInfoBase(t *testing.T) {
	nodes := liveRing(t, 3, 1)
	a, c := nodes[0], nodes[2]
	if _, err := c.RebalanceOnce(); err != nil {
		t.Fatal(err)
	}
	has := func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		_, ok := a.infoBase[c.selfID]
		return ok
	}
	if !has() {
		t.Fatal("c's query left no baseline at a")
	}
	a.mu.Lock()
	epoch := a.epoch
	a.mu.Unlock()
	if err := a.SetMembers(epoch+1, []string{a.selfID, nodes[1].selfID}); err != nil {
		t.Fatal(err)
	}
	if has() {
		t.Fatal("removed member's baseline survived SetMembers")
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
