package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// shardedPair builds a cooperative pair with the given shard count and a
// buffer small enough that the workloads below evict constantly.
func shardedPair(t *testing.T, shards, bufPages int) (*LiveNode, *LiveNode) {
	t.Helper()
	a, err := NewLiveNode(LiveConfig{
		Name: "a", ListenAddr: "127.0.0.1:0",
		BufferPages: bufPages, RemotePages: 4096, SSD: liveSSD(),
		Shards:            shards,
		HeartbeatInterval: 20 * time.Millisecond,
		CallTimeout:       500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLiveNode(LiveConfig{
		Name: "b", ListenAddr: "127.0.0.1:0", PeerAddr: a.Addr(),
		BufferPages: bufPages, RemotePages: 4096, SSD: liveSSD(),
		Shards:            shards,
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

// TestShardedNodeConcurrentOps hammers a striped node with concurrent
// writers, readers, FlushAll sweeps, and RecoverFromPeer rounds — the full
// set of paths that share the per-shard locks and the persist mutex. Every
// writer owns a disjoint page set and always writes the same fill byte, so
// any read of page p must observe either zero (never written) or p's
// owner's fill — anything else is a torn or misrouted page. Run under
// -race this is the main lock-discipline proof for the shard layer.
func TestShardedNodeConcurrentOps(t *testing.T) {
	const (
		shards    = 4
		writers   = 4
		perWriter = 200
		lpnSpace  = 512
	)
	a, _ := shardedPair(t, shards, 32)
	ps := a.Device().PageSize()
	if got := a.NumShards(); got != shards {
		t.Fatalf("NumShards = %d, want %d", got, shards)
	}

	fill := func(lpn int64) byte { return byte(lpn%int64(writers)) + 1 }
	var wgW, wgR sync.WaitGroup
	var stopReaders atomic.Bool
	errs := make(chan error, writers+8)

	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			for i := 0; i < perWriter; i++ {
				// lpn ≡ w (mod writers): disjoint ownership.
				lpn := int64((i*writers + w) % lpnSpace)
				if err := a.Write(lpn, page(fill(lpn), ps)); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wgR.Add(1)
		go func(r int) {
			defer wgR.Done()
			for i := 0; !stopReaders.Load(); i++ {
				if i%16 == 15 {
					// Yield so readers don't starve the pair's serve and
					// forward goroutines on small CI machines.
					time.Sleep(100 * time.Microsecond)
				}
				lpn := int64((i*7 + r) % lpnSpace)
				got, err := a.Read(lpn, 1)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if got[0] != 0 && got[0] != fill(lpn) {
					errs <- fmt.Errorf("reader %d: page %d = %#x, want 0 or %#x", r, lpn, got[0], fill(lpn))
					return
				}
			}
		}(r)
	}
	wgW.Add(1)
	go func() {
		defer wgW.Done()
		for i := 0; i < 5; i++ {
			if err := a.FlushAll(); err != nil {
				errs <- fmt.Errorf("flush: %w", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wgW.Add(1)
	go func() {
		defer wgW.Done()
		for i := 0; i < 3; i++ {
			// Stamp guards make a recovery round idempotent even against
			// live traffic; it must never roll a page back.
			if err := a.RecoverFromPeer(); err != nil {
				errs <- fmt.Errorf("recover: %w", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Readers run for as long as the writers and maintenance sweeps do.
	wgW.Wait()
	stopReaders.Store(true)
	wgR.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesce and verify every page's durable value.
	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < lpnSpace; lpn++ {
		pg := a.DurableGet(lpn)
		if pg == nil {
			continue
		}
		if pg[0] != fill(lpn) {
			t.Fatalf("durable page %d = %#x, want %#x", lpn, pg[0], fill(lpn))
		}
	}
}

// gatedStore wraps a store section and, while armed, parks the next
// putRun on a gate — freezing an eviction flush mid-persist so the test
// can poke at the node while the flush is in flight.
type gatedStore struct {
	section
	armed   atomic.Bool
	entered chan int64    // blocked run's first lpn, capacity 1
	release chan struct{} // closed to unblock
}

func (g *gatedStore) putRun(lpns []int64, data [][]byte, stamps []uint64) error {
	if g.armed.Swap(false) {
		g.entered <- lpns[0]
		<-g.release
	}
	return g.section.putRun(lpns, data, stamps)
}

// TestReadDuringInflightFlush proves the pinned-dirty guarantee: a page
// that has been evicted but whose flush is still in flight must serve
// reads from its pinned payload — promptly, without waiting for the
// persist, and never from half-flushed store state.
func TestReadDuringInflightFlush(t *testing.T) {
	a, _ := shardedPair(t, 1, 8)
	ps := a.Device().PageSize()
	// One shard, so the gated section holds every page.
	gate := &gatedStore{
		section: a.store.subs[0],
		entered: make(chan int64, 1),
		release: make(chan struct{}),
	}
	a.store.subs[0] = gate
	var released sync.Once
	open := func() { released.Do(func() { close(gate.release) }) }
	defer open()
	gate.armed.Store(true)

	// Overflow the 8-page buffer so the evictor starts flushing; the gate
	// freezes it inside its first store put.
	for i := int64(0); i < 32; i++ {
		if err := a.Write(i*8, page(byte(i)+1, ps)); err != nil {
			t.Fatal(err)
		}
	}
	var victim int64
	select {
	case victim = <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("evictor never reached the store")
	}

	// The flush is parked holding only the persist mutex: the read must
	// complete against the inflight pin without waiting for it.
	type res struct {
		data []byte
		err  error
	}
	got := make(chan res, 1)
	go func() {
		d, err := a.Read(victim, 1)
		got <- res{d, err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		want := byte(victim/8) + 1
		if r.data[0] != want {
			t.Fatalf("in-flight read of page %d = %#x, want %#x (dirty pin lost)", victim, r.data[0], want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read blocked behind an in-flight eviction flush")
	}
	// The store must not have the page yet — the flush is still parked.
	if pg := a.DurableGet(victim); pg != nil {
		t.Fatalf("page %d durable while its flush is parked", victim)
	}

	open()
	// Once released, the pipeline drains and the page becomes durable.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && a.DurableGet(victim) == nil {
		time.Sleep(2 * time.Millisecond)
	}
	if pg := a.DurableGet(victim); pg == nil || pg[0] != byte(victim/8)+1 {
		t.Fatalf("page %d not durable after release", victim)
	}
}
