package main

import (
	"sync"
	"testing"
	"time"
)

func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) ([]op, error){
		"ack-resident":    func(seed int64) ([]op, error) { return liveSpecs["ack-resident"].gen(seed, 5000) },
		"flush-bound":     func(seed int64) ([]op, error) { return liveSpecs["flush-bound"].gen(seed, 5000) },
		"read-zipf-paced": func(seed int64) ([]op, error) { return liveSpecs["read-zipf-paced"].gen(seed, 5000) },
		"sim-fin1": func(seed int64) ([]op, error) {
			reqs, err := simRequestsFor(seed)
			return opsOf(reqs), err
		},
	}
	for name, gen := range gens {
		a, err := gen(7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := gen(7)
		c, _ := gen(8)
		if streamHash(a) != streamHash(b) {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		if streamHash(a) == streamHash(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

func TestGeneratorsStayInSpan(t *testing.T) {
	for name, s := range liveSpecs {
		ops, err := s.gen(3, 20000)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range ops {
			if o.lpn < 0 || o.lpn+int64(o.pages) > s.span || o.pages < 1 || o.pages > 8 {
				t.Fatalf("%s: op %+v outside span %d or 1-8 pages", name, o, s.span)
			}
		}
	}
}

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n, 50, 90, 99, 99.9); got != c.want {
			t.Errorf("n=%d: highest reportable percentile %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p := percentile(xs, 99); p != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", p)
	}
	if p := percentile(xs, 50); p != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", p)
	}
}

// memNode is a stand-in target: a page map, with an optional stall on
// one write.
type memNode struct {
	mu      sync.Mutex
	ps      int
	pages   map[int64][]byte
	calls   int
	stallOn int
	stall   time.Duration
}

func (m *memNode) Write(lpn int64, data []byte) error {
	m.mu.Lock()
	m.calls++
	stall := m.calls == m.stallOn
	for i := 0; i < len(data)/m.ps; i++ {
		m.pages[lpn+int64(i)] = append([]byte(nil), data[i*m.ps:(i+1)*m.ps]...)
	}
	m.mu.Unlock()
	if stall {
		time.Sleep(m.stall)
	}
	return nil
}

func (m *memNode) Read(lpn int64, pages int) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]byte, pages*m.ps)
	for i := 0; i < pages; i++ {
		copy(out[i*m.ps:], m.pages[lpn+int64(i)])
	}
	return out, nil
}

func (m *memNode) get(lpn int64) []byte {
	b, _ := m.Read(lpn, 1)
	return b
}

func memPair(span int64, stallOn int, stall time.Duration) (*pair, *memNode) {
	const ps = 64
	n := &memNode{ps: ps, pages: map[int64][]byte{}, stallOn: stallOn, stall: stall}
	return &pair{node: n, chk: newChecker(span, ps)}, n
}

func TestOpenLoopChargesStallToQueuedOps(t *testing.T) {
	const stallOp, stall = 20, 60 * time.Millisecond
	p, _ := memPair(64, stallOp+1, stall)
	ops := make([]op, 200)
	for i := range ops {
		ops[i] = op{lpn: int64(i % 64), pages: 1}
	}
	// One client, 1000 ops/s for 150 ms: op i is due at i ms, so op 21 is
	// due 1 ms after the stalled op 20 but cannot be sent until it ends.
	res := openLoop(p, ops, 1, 1000, 150*time.Millisecond, nil)
	if res.failed != 0 || len(res.lat) != 150 {
		t.Fatalf("failed %d, %d latencies; want 0 and 150", res.failed, len(res.lat))
	}
	after, before := res.lat[stallOp+1], res.lat[5]
	if after.ms < 40 {
		t.Errorf("op after the stall: latency %.2f ms, want >= 40 (stall charged from its due time)", after.ms)
	}
	if after.lagMs < 40 {
		t.Errorf("op after the stall: generator lag %.2f ms, want >= 40", after.lagMs)
	}
	if before.ms > 20 {
		t.Errorf("op before the stall: latency %.2f ms, want a few ms at most", before.ms)
	}
}

func TestCheckerRejectsStaleRead(t *testing.T) {
	p, n := memPair(8, 0, 0)
	buf := make([]byte, 8*p.chk.pageSize)
	write := func(lpn int64) {
		if err := p.chk.write(lpn, 1, 0, buf, func(b []byte) error { return n.Write(lpn, b) }); err != nil {
			t.Fatal(err)
		}
	}
	write(3)
	old := n.get(3)
	write(3)
	cur := n.get(3)

	p.chk.checkRead(3, cur, []int64{p.chk.floor(3)})
	if p.chk.nProblem.Load() != 0 {
		t.Fatalf("current version rejected: %v", p.chk.problems)
	}
	p.chk.checkRead(3, old, []int64{p.chk.floor(3)})
	if p.chk.nProblem.Load() == 0 {
		t.Fatal("a read returning version 1 after version 2 was acked passed the check")
	}
}

func TestCheckerRejectsWrongAndStaleDurablePages(t *testing.T) {
	p, n := memPair(8, 0, 0)
	buf := make([]byte, 8*p.chk.pageSize)
	for _, lpn := range []int64{1, 2, 2} {
		if err := p.chk.write(lpn, 1, 0, buf, func(b []byte) error { return n.Write(lpn, b) }); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.chk.checkDurable(n.get); got != 2 || p.chk.nProblem.Load() != 0 {
		t.Fatalf("clean store: checked %d pages, problems %v", got, p.chk.problems)
	}
	torn := n.get(1)
	torn[len(torn)-1] ^= 0xFF
	n.pages[1] = torn
	p.chk.checkDurable(n.get)
	if p.chk.nProblem.Load() == 0 {
		t.Fatal("a torn durable page passed the check")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	sb := newSpanBuf(time.Now())
	sb.spans = []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "cluster.Write", parent: 0, start: 10, end: 70},
	}
	got := map[string]layerTime{}
	for _, lt := range sb.selfTimes() {
		got[lt.Name] = lt
	}
	if got["op"].SelfMs != 40.0/1e6 || got["cluster.Write"].SelfMs != 60.0/1e6 {
		t.Errorf("self times %+v", got)
	}
}

func TestPageEncoding(t *testing.T) {
	pg := make([]byte, 64)
	if v, err := decodePage(pg, 41); v != 0 || err != nil {
		t.Errorf("never-written page: version %d, %v; want 0, nil", v, err)
	}
	encodePage(pg, 41, 1, 7)
	if v, err := decodePage(pg, 41); v != 7 || err != nil {
		t.Errorf("decode: version %d, %v; want 7, nil", v, err)
	}
	if _, err := decodePage(pg, 42); err == nil {
		t.Error("a page holding lpn 41 decoded as lpn 42")
	}
}
