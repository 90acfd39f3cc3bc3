package buffer

import (
	"math/rand"
	"slices"
	"testing"
)

// paperLAR builds the 4-pages-per-block LAR cache used by the worked
// example in the paper's Figure 4.
func paperLAR(capPages int) *LAR {
	return NewLAR(capPages, 4, DefaultLAROptions())
}

// TestPaperFigure4 walks the exact scenario of the paper's Figure 4:
// WR(0,1,2), RD(3,8,9), WR(10,11), RD(19), WR(1,2), WR(16,17,18), then a
// replacement that must select block 4 (pages 16-19) as victim and flush
// all four of its pages sequentially.
func TestPaperFigure4(t *testing.T) {
	c := paperLAR(12)

	// WR(0,1,2): block 0 gains popularity 1, 3 dirty pages.
	c.Access(Request{LPN: 0, Pages: 3, Write: true})
	// RD(3,8,9): page 3 joins block 0 (pop 2); pages 8,9 form block 2 (pop 1).
	res := c.Access(Request{LPN: 3, Pages: 1, Write: false})
	if len(res.ReadMisses) != 1 {
		t.Fatalf("RD(3) misses = %v", res.ReadMisses)
	}
	c.Access(Request{LPN: 8, Pages: 2, Write: false})
	// WR(10,11): block 2 now pop 2, dirty 2.
	c.Access(Request{LPN: 10, Pages: 2, Write: true})
	// RD(19): block 4 forms with pop 1.
	c.Access(Request{LPN: 19, Pages: 1, Write: false})
	// WR(1,2): hits in block 0 (pop 3).
	res = c.Access(Request{LPN: 1, Pages: 2, Write: true})
	if res.WriteHits != 2 {
		t.Fatalf("WR(1,2) hits = %d", res.WriteHits)
	}
	// WR(16,17,18): block 4 pop 2, dirty 3.
	c.Access(Request{LPN: 16, Pages: 3, Write: true})

	// State per Figure 4: block0 pop3/dirty3, block2 pop2/dirty2,
	// block4 pop2/dirty3.
	b0, b2, b4 := c.blocks[0], c.blocks[2], c.blocks[4]
	if b0 == nil || b0.pop != 3 || b0.dirty != 3 {
		t.Fatalf("block0 = %+v", b0)
	}
	if b2 == nil || b2.pop != 2 || b2.dirty != 2 {
		t.Fatalf("block2 = %+v", b2)
	}
	if b4 == nil || b4.pop != 2 || b4.dirty != 3 {
		t.Fatalf("block4 = %+v", b4)
	}

	// Force a replacement: block 4 (least popular tie, most dirty) must
	// be the victim, flushed as pages 16,17,18,19 in one sequential run.
	res = c.Access(Request{LPN: 100, Pages: 1, Write: true})
	if len(res.Flush) != 1 {
		t.Fatalf("flush units = %v", res.Flush)
	}
	u := res.Flush[0]
	if !u.Contiguous || u.Len() != 4 || u.Pages[0] != 16 || u.Pages[3] != 19 {
		t.Fatalf("victim flush = %+v, want pages 16..19 contiguous", u)
	}
	if u.Dirty != 3 {
		t.Fatalf("victim dirty = %d, want 3", u.Dirty)
	}
	if c.Contains(16) || c.Contains(19) {
		t.Fatal("victim pages still buffered")
	}
}

func TestLARSeqAsOneAccess(t *testing.T) {
	c := paperLAR(64)
	// One 4-page access = popularity 1.
	c.Access(Request{LPN: 0, Pages: 4, Write: true})
	if c.blocks[0].pop != 1 {
		t.Fatalf("pop = %d, want 1", c.blocks[0].pop)
	}
	// Ablation: per-page popularity.
	opts := DefaultLAROptions()
	opts.SeqAsOneAccess = false
	c2 := NewLAR(64, 4, opts)
	c2.Access(Request{LPN: 0, Pages: 4, Write: true})
	if c2.blocks[0].pop != 4 {
		t.Fatalf("per-page pop = %d, want 4", c2.blocks[0].pop)
	}
}

func TestLARCrossBlockAccess(t *testing.T) {
	c := paperLAR(64)
	// 6 pages spanning blocks 0 and 1: each block gets one access.
	c.Access(Request{LPN: 2, Pages: 6, Write: true})
	if c.blocks[0].pop != 1 || c.blocks[1].pop != 1 {
		t.Fatalf("pops = %d,%d", c.blocks[0].pop, c.blocks[1].pop)
	}
	if c.blocks[0].dirty != 2 || c.blocks[1].dirty != 4 {
		t.Fatalf("dirty = %d,%d", c.blocks[0].dirty, c.blocks[1].dirty)
	}
}

func TestLARCleanVictimDiscarded(t *testing.T) {
	c := paperLAR(4)
	// Fill with clean pages of block 0.
	c.Access(Request{LPN: 0, Pages: 4, Write: false})
	// New write evicts block 0, which is clean: no flush.
	res := c.Access(Request{LPN: 100, Pages: 1, Write: true})
	if len(res.Flush) != 0 {
		t.Fatalf("clean victim flushed: %v", res.Flush)
	}
	if c.Stats().CleanDrops != 4 {
		t.Fatalf("CleanDrops = %d", c.Stats().CleanDrops)
	}
}

func TestLARFlushCleanWithVictim(t *testing.T) {
	c := paperLAR(4)
	c.Access(Request{LPN: 0, Pages: 1, Write: true})  // dirty page 0
	c.Access(Request{LPN: 1, Pages: 3, Write: false}) // clean pages 1-3
	// Block 0 now has 4 pages, 1 dirty, pop 2. Evict it.
	res := c.Access(Request{LPN: 100, Pages: 4, Write: true})
	var got *FlushUnit
	for i := range res.Flush {
		if res.Flush[i].Pages[0] == 0 {
			got = &res.Flush[i]
		}
	}
	if got == nil {
		t.Fatalf("block 0 not flushed: %v", res.Flush)
	}
	// Paper behaviour: clean pages flushed along with the dirty one, as
	// one contiguous 4-page write.
	if got.Len() != 4 || got.Dirty != 1 || !got.Contiguous {
		t.Fatalf("flush = %+v, want 4 pages 1 dirty contiguous", got)
	}
}

func TestLARDirtyOnlyAblation(t *testing.T) {
	opts := DefaultLAROptions()
	opts.FlushCleanWithVictim = false
	opts.ClusterSmallWrites = false
	c := NewLAR(4, 4, opts)
	c.Access(Request{LPN: 0, Pages: 1, Write: true})
	c.Access(Request{LPN: 1, Pages: 3, Write: false})
	res := c.Access(Request{LPN: 100, Pages: 4, Write: true})
	var got *FlushUnit
	for i := range res.Flush {
		if res.Flush[i].Pages[0] == 0 {
			got = &res.Flush[i]
		}
	}
	if got == nil {
		t.Fatalf("block 0 not flushed: %v", res.Flush)
	}
	if got.Len() != 1 || got.Dirty != 1 {
		t.Fatalf("dirty-only flush = %+v", got)
	}
}

func TestLARClustering(t *testing.T) {
	// ppb=8, so a victim with <=2 pages triggers clustering.
	opts := DefaultLAROptions()
	c := NewLAR(6, 8, opts)
	// Three blocks with 2 dirty pages each (pop 1 each).
	c.Access(Request{LPN: 0, Pages: 2, Write: true})  // block 0
	c.Access(Request{LPN: 16, Pages: 2, Write: true}) // block 2
	c.Access(Request{LPN: 32, Pages: 2, Write: true}) // block 4
	// Overflow: the cluster should gather dirty pages from multiple
	// tail blocks into one scattered unit.
	res := c.Access(Request{LPN: 100, Pages: 2, Write: true})
	if len(res.Flush) != 1 {
		t.Fatalf("flush units = %+v", res.Flush)
	}
	u := res.Flush[0]
	if u.Contiguous {
		t.Fatal("cluster unit marked contiguous")
	}
	if u.Len() < 4 {
		t.Fatalf("cluster gathered only %d pages", u.Len())
	}
	if u.Dirty != u.Len() {
		t.Fatalf("cluster dirty %d != len %d", u.Dirty, u.Len())
	}
}

func TestLARClusteringDisabled(t *testing.T) {
	opts := DefaultLAROptions()
	opts.ClusterSmallWrites = false
	c := NewLAR(6, 8, opts)
	c.Access(Request{LPN: 0, Pages: 2, Write: true})
	c.Access(Request{LPN: 16, Pages: 2, Write: true})
	c.Access(Request{LPN: 32, Pages: 2, Write: true})
	res := c.Access(Request{LPN: 100, Pages: 2, Write: true})
	for _, u := range res.Flush {
		if !u.Contiguous {
			t.Fatalf("clustering disabled but got scattered unit %+v", u)
		}
		if u.Len() > 2 {
			t.Fatalf("unit too large without clustering: %+v", u)
		}
	}
}

func TestLARBufferReadsDisabled(t *testing.T) {
	opts := DefaultLAROptions()
	opts.BufferReads = false
	c := NewLAR(16, 4, opts)
	res := c.Access(Request{LPN: 0, Pages: 2, Write: false})
	if len(res.ReadMisses) != 2 {
		t.Fatalf("misses = %v", res.ReadMisses)
	}
	if c.Len() != 0 {
		t.Fatal("read miss inserted despite BufferReads=false")
	}
}

func TestLARVictimPrefersMoreDirtyAtSamePopularity(t *testing.T) {
	c := paperLAR(8)
	// Block 0: 2 pages, 1 dirty; block 2: 2 pages, 2 dirty; equal pop.
	c.Access(Request{LPN: 0, Pages: 1, Write: true})
	c.Access(Request{LPN: 1, Pages: 1, Write: false})
	c.Access(Request{LPN: 8, Pages: 1, Write: true})
	c.Access(Request{LPN: 9, Pages: 1, Write: true})
	// Both blocks have pop 2 now; block 2 has more dirty pages.
	v := c.victim()
	if v == nil || v.blk != 2 {
		t.Fatalf("victim = %+v, want block 2", v)
	}
}

func TestLARPopularityOnlyAblation(t *testing.T) {
	opts := DefaultLAROptions()
	opts.DirtyOrder = false
	c := NewLAR(8, 4, opts)
	c.Access(Request{LPN: 0, Pages: 1, Write: true})
	c.Access(Request{LPN: 8, Pages: 2, Write: true})
	// Equal popularity (1 each after... block0 pop 1, block2 pop 1).
	v := c.victim()
	if v == nil {
		t.Fatal("no victim")
	}
	// Without dirty ordering the lowest block number is chosen.
	if v.blk != 0 {
		t.Fatalf("victim = block %d, want 0", v.blk)
	}
}

// leastPop reads the least buffered popularity off the top of the bucket
// heap (0 when the cache is empty).
func leastPop(c *LAR) int64 {
	if len(c.popHeap) == 0 {
		return 0
	}
	return c.popHeap[0].pop
}

func TestLARMinPopAdvances(t *testing.T) {
	c := paperLAR(8)
	// Create a very popular block, then cold blocks.
	for i := 0; i < 50; i++ {
		c.Access(Request{LPN: 0, Pages: 1, Write: true})
	}
	c.Access(Request{LPN: 8, Pages: 1, Write: true})
	if got := leastPop(c); got != 1 {
		t.Fatalf("least popularity = %d, want 1", got)
	}
	// Evict the cold block; the least popularity must advance to the
	// popular one.
	c.Resize(1)
	if got := leastPop(c); got < 50 {
		t.Fatalf("least popularity = %d after evicting cold block", got)
	}
	if !c.Contains(0) {
		t.Fatal("popular page evicted before cold one")
	}
}

// TestLARStress runs a large random workload and continuously checks the
// internal accounting (page counts, dirty counts, bucket structure).
func TestLARStress(t *testing.T) {
	c := NewLAR(128, 8, DefaultLAROptions())
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		c.Access(Request{
			LPN:   rng.Int63n(2048),
			Pages: 1 + rng.Intn(6),
			Write: rng.Intn(3) > 0,
		})
		if c.Len() > c.Capacity() {
			t.Fatalf("step %d: overflow", i)
		}
	}
	// Recount everything from scratch.
	pages, dirty := 0, 0
	for _, b := range c.blocks {
		n, d := 0, 0
		for _, st := range b.st {
			if st != pageAbsent {
				n++
			}
			if st == pageDirty {
				d++
			}
		}
		if n != b.count {
			t.Fatalf("block %d page count %d != recount %d", b.blk, b.count, n)
		}
		if d != b.dirty {
			t.Fatalf("block %d dirty count %d != recount %d", b.blk, b.dirty, d)
		}
		pages += n
		dirty += d
	}
	if pages != c.Len() || dirty != c.DirtyLen() {
		t.Fatalf("recount pages=%d dirty=%d, cache says %d/%d", pages, dirty, c.Len(), c.DirtyLen())
	}
	// Bucket registration must match block state.
	for _, b := range c.blocks {
		if b.bucket == nil || b.bucket.pop != b.pop || b.bucketDirty != b.dirty {
			t.Fatalf("block %d not repositioned: bucket %+v dirty %d vs (%d,%d)",
				b.blk, b.bucket, b.bucketDirty, b.pop, b.dirty)
		}
	}
	checkBuckets(t, c)
}

// checkBuckets verifies the bucket structure against the blocks: every
// occupied bucket is in the map and in a valid heap at its recorded index,
// its count and maxDirty match its lists, and the lists hold exactly the
// blocks registered there.
func checkBuckets(t *testing.T, c *LAR) {
	t.Helper()
	if len(c.popHeap) != len(c.buckets) {
		t.Fatalf("heap holds %d buckets, map %d", len(c.popHeap), len(c.buckets))
	}
	listed := 0
	for i, pb := range c.popHeap {
		if pb.heapIdx != i || c.buckets[pb.pop] != pb {
			t.Fatalf("bucket pop %d: heapIdx %d at %d, map entry %p", pb.pop, pb.heapIdx, i, c.buckets[pb.pop])
		}
		if i > 0 && c.popHeap[(i-1)/2].pop >= pb.pop {
			t.Fatalf("heap order broken at %d", i)
		}
		n, maxDirty := 0, 0
		for d, l := range pb.byDirty {
			var prev *larBlock
			for b := l.head; b != nil; b = b.next {
				if b.prev != prev || b.bucket != pb || b.bucketDirty != d {
					t.Fatalf("block %d misfiled in bucket (%d,%d)", b.blk, pb.pop, d)
				}
				prev = b
				n++
				maxDirty = d
			}
			if l.tail != prev {
				t.Fatalf("bucket (%d,%d) tail mismatch", pb.pop, d)
			}
		}
		if n == 0 || n != pb.count || maxDirty != pb.maxDirty {
			t.Fatalf("bucket pop %d: %d listed, count %d, maxDirty %d want %d", pb.pop, n, pb.count, pb.maxDirty, maxDirty)
		}
		listed += n
	}
	if listed != len(c.blocks) {
		t.Fatalf("%d blocks listed in buckets, %d buffered", listed, len(c.blocks))
	}
}

// TestLARHeapHoldsOnlyOccupiedBuckets replays 1M single-page zipf writes
// over 2,048 pages into a 4,096-page cache, so nothing is ever evicted and
// every write moves one block to a new popularity bucket. The popularity
// heap must end with no more entries than occupied buckets. A heap that
// drops emptied buckets lazily, only when they surface at its top, held
// 949,557 entries for the 32 buckets here.
func TestLARHeapHoldsOnlyOccupiedBuckets(t *testing.T) {
	c := NewLAR(4096, 64, DefaultLAROptions())
	rng := rand.New(rand.NewSource(7))
	z := rand.NewZipf(rng, 1.2, 1, 2047)
	for i := 0; i < 1_000_000; i++ {
		c.Access(Request{LPN: int64(z.Uint64()), Pages: 1, Write: true})
	}
	if len(c.popHeap) > len(c.buckets) {
		t.Fatalf("popularity heap holds %d entries for %d occupied buckets", len(c.popHeap), len(c.buckets))
	}
	checkBuckets(t, c)
}

// TestLARZeroCapacity ensures a zero-capacity cache acts as write-through.
func TestLARZeroCapacity(t *testing.T) {
	c := NewLAR(0, 4, DefaultLAROptions())
	res := c.Access(Request{LPN: 0, Pages: 2, Write: true})
	flushed := 0
	for _, u := range res.Flush {
		flushed += u.Len()
	}
	if flushed != 2 || c.Len() != 0 {
		t.Fatalf("zero-cap cache kept pages: flush=%v len=%d", res.Flush, c.Len())
	}
}

// A flush unit copied out of a Result keeps its pages: LAR reuses the
// Flush and ReadMisses slices across calls but never rewrites a page list
// it has returned, so a caller may keep units by value (as a replay that
// collects every eviction does).
func TestLARFlushPagesOutliveLaterAccesses(t *testing.T) {
	c := NewLAR(64, 8, DefaultLAROptions())
	rng := rand.New(rand.NewSource(3))
	var kept []FlushUnit
	var want [][]int64
	for i := 0; i < 20000; i++ {
		res := c.Access(Request{LPN: rng.Int63n(4096), Pages: 1 + rng.Intn(8), Write: rng.Intn(4) != 0})
		for _, u := range res.Flush {
			kept = append(kept, u)
			want = append(want, slices.Clone(u.Pages))
		}
	}
	if len(kept) < 1000 {
		t.Fatalf("only %d flush units; the test needs churn", len(kept))
	}
	for i, u := range kept {
		if !slices.Equal(u.Pages, want[i]) {
			t.Fatalf("unit %d pages changed after later accesses: %v, want %v", i, u.Pages, want[i])
		}
	}
}
