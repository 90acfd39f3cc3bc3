package buffer

import (
	"sync"
	"testing"
)

// TestShardedRouting checks the block→shard mapping: a block's pages all
// land in one shard, and a request spanning blocks is split at exactly
// the shard boundaries.
func TestShardedRouting(t *testing.T) {
	const ppb = 8
	s, err := NewSharded(PolicyLAR, 64, ppb, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", s.NumShards())
	}
	for lpn := int64(0); lpn < 256; lpn++ {
		want := int((lpn / ppb) % 4)
		if got := s.ShardIndex(lpn); got != want {
			t.Fatalf("ShardIndex(%d) = %d, want %d", lpn, got, want)
		}
	}
	// 3 blocks starting mid-block: runs must cut at block boundaries and
	// cover the request exactly.
	runs := s.AppendRuns(nil, 5, 2*ppb)
	total := 0
	next := int64(5)
	for _, r := range runs {
		if r.LPN != next {
			t.Fatalf("run starts at %d, want %d", r.LPN, next)
		}
		for p := r.LPN; p < r.LPN+int64(r.Pages); p++ {
			if s.ShardIndex(p) != r.Shard {
				t.Fatalf("page %d in run of shard %d, but maps to %d", p, r.Shard, s.ShardIndex(p))
			}
		}
		next += int64(r.Pages)
		total += r.Pages
	}
	if total != 2*ppb {
		t.Fatalf("runs cover %d pages, want %d", total, 2*ppb)
	}
}

// TestShardedSingleShardMatchesUnsharded replays one workload against a
// plain LAR cache and a 1-shard wrapper: hit counts, dirty sets, and
// flushed pages must be identical, proving the wrapper adds routing but
// no behavior of its own.
func TestShardedSingleShardMatchesUnsharded(t *testing.T) {
	const ppb = 8
	plain, err := New(PolicyLAR, 32, ppb)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := NewSharded(PolicyLAR, 32, ppb, 1)
	if err != nil {
		t.Fatal(err)
	}
	flushedPages := func(units []FlushUnit) int {
		n := 0
		for _, u := range units {
			n += len(u.Pages)
		}
		return n
	}
	seq := int64(12345)
	for i := 0; i < 2000; i++ {
		seq = seq*6364136223846793005 + 1442695040888963407
		lpn := int64(uint64(seq)>>33) % 256
		write := seq&1 == 0
		pages := 1 + int(uint64(seq)>>60)%3
		a := plain.Access(Request{LPN: lpn, Pages: pages, Write: write})
		b := wrapped.Access(Request{LPN: lpn, Pages: pages, Write: write})
		if a.ReadHits != b.ReadHits || a.WriteHits != b.WriteHits ||
			len(a.ReadMisses) != len(b.ReadMisses) ||
			flushedPages(a.Flush) != flushedPages(b.Flush) {
			t.Fatalf("access %d diverged: plain=%+v wrapped=%+v", i, a, b)
		}
	}
	if plain.Len() != wrapped.Len() || plain.DirtyLen() != wrapped.DirtyLen() {
		t.Fatalf("state diverged: plain len=%d dirty=%d, wrapped len=%d dirty=%d",
			plain.Len(), plain.DirtyLen(), wrapped.Len(), wrapped.DirtyLen())
	}
}

// TestShardedConcurrentAccess hammers every aggregate method from many
// goroutines; run under -race this is the wrapper's thread-safety proof.
func TestShardedConcurrentAccess(t *testing.T) {
	const ppb = 8
	s, err := NewSharded(PolicyLAR, 128, ppb, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seq := int64(w + 1)
			for i := 0; i < 3000; i++ {
				seq = seq*6364136223846793005 + 1442695040888963407
				lpn := int64(uint64(seq)>>33) % 1024
				switch i % 7 {
				case 0:
					s.Access(Request{LPN: lpn, Pages: 1, Write: false})
				case 1, 2, 3:
					s.Access(Request{LPN: lpn, Pages: 2, Write: true})
				case 4:
					s.IsDirty(lpn)
					s.Contains(lpn)
				case 5:
					s.MarkClean(lpn)
				default:
					s.Invalidate(lpn)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if s.Len() > s.Capacity() {
				t.Error("Len exceeds Capacity")
				return
			}
			s.DirtyLen()
			s.Stats()
		}
	}()
	wg.Wait()
	<-done
	if got := len(s.DirtyPages()); got != s.DirtyLen() {
		t.Fatalf("DirtyPages len %d != DirtyLen %d", got, s.DirtyLen())
	}
	units := s.FlushAll()
	if s.Len() != 0 || s.DirtyLen() != 0 {
		t.Fatalf("FlushAll left len=%d dirty=%d", s.Len(), s.DirtyLen())
	}
	seen := map[int64]bool{}
	for _, u := range units {
		for _, p := range u.Pages {
			if seen[p] {
				t.Fatalf("page %d flushed twice", p)
			}
			seen[p] = true
		}
	}
}
