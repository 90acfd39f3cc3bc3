package buffer

import (
	"testing"

	"flashcoop/internal/testutil"
)

// Allocation ceilings for LAR's steady state: once its block, bucket and
// heap storage has been through one cycle, an access reuses it.

// TestAllocsLARAccessHit: a write hit moves its block to the next
// popularity bucket without allocating.
func TestAllocsLARAccessHit(t *testing.T) {
	testutil.SkipUnderRace(t)
	c := NewLAR(256, 8, DefaultLAROptions())
	for lpn := int64(0); lpn < 64; lpn++ {
		c.Access(Request{LPN: lpn, Pages: 1, Write: true})
	}
	var lpn int64
	hit := func() {
		if res := c.Access(Request{LPN: lpn % 64, Pages: 1, Write: lpn%3 == 0}); res.ReadHits+res.WriteHits != 1 {
			t.Fatalf("access of page %d missed", lpn%64)
		}
		lpn += 7
	}
	for i := 0; i < 100; i++ {
		hit()
	}
	if got := testing.AllocsPerRun(1000, hit); got != 0 {
		t.Fatalf("LAR hit: %.1f allocs per access, want 0", got)
	}
}

// TestAllocsLARAccessInsert: a first-touch write that opens a new block
// without evicting reuses a recycled block descriptor and bucket.
func TestAllocsLARAccessInsert(t *testing.T) {
	testutil.SkipUnderRace(t)
	c := NewLAR(256, 8, DefaultLAROptions())
	for lpn := int64(0); lpn < 64; lpn += 8 {
		c.Access(Request{LPN: lpn, Pages: 1, Write: true})
	}
	insert := func() {
		if res := c.Access(Request{LPN: 800, Pages: 1, Write: true}); res.WriteHits != 0 || len(res.Flush) != 0 {
			t.Fatalf("insert hit or evicted: %+v", res)
		}
		c.Invalidate(800)
	}
	insert()
	if got := testing.AllocsPerRun(1000, insert); got != 0 {
		t.Fatalf("LAR first-touch insert: %.1f allocs per access, want 0", got)
	}
}

// TestAllocsLAREvictingWrite: a write that evicts reuses the Result's
// flush-unit slice and carves the units' pages from a chunked arena (one
// 8 KB chunk per 1024 flushed pages, which rounds to 0 per access).
// Whole-block writes evict whole blocks as contiguous runs (evictBlock);
// one-page writes evict one-page blocks, which small-write clustering
// gathers into one scattered unit (clusterFlush).
func TestAllocsLAREvictingWrite(t *testing.T) {
	testutil.SkipUnderRace(t)
	for _, tc := range []struct {
		name       string
		pages      int
		contiguous bool
	}{{"block", 8, true}, {"cluster", 1, false}} {
		t.Run(tc.name, func(t *testing.T) {
			// 16 blocks cycle through room for 8: every write lands on a
			// block evicted at least a full cycle earlier, so it misses.
			c := NewLAR(8*tc.pages, 8, DefaultLAROptions())
			var i, flushes int64
			write := func() {
				res := c.Access(Request{LPN: i % 16 * 8, Pages: tc.pages, Write: true})
				i++
				for _, u := range res.Flush {
					if u.Contiguous != tc.contiguous {
						t.Fatalf("write %d: flush %+v, want contiguous=%v", i, u, tc.contiguous)
					}
					flushes++
				}
			}
			for j := 0; j < 200; j++ {
				write()
			}
			flushes = 0
			if got := testing.AllocsPerRun(1000, write); got != 0 {
				t.Fatalf("evicting LAR write: %.1f allocs per access, want 0", got)
			}
			if flushes == 0 {
				t.Fatal("no write evicted")
			}
		})
	}
}

// TestAllocsLARReadMiss: a read of an unbuffered page reports it in
// ReadMisses (reused scratch) and inserts it clean, dropping a clean
// victim, without allocating.
func TestAllocsLARReadMiss(t *testing.T) {
	testutil.SkipUnderRace(t)
	// 16 one-page blocks cycle through room for 8 pages: every read misses.
	c := NewLAR(8, 8, DefaultLAROptions())
	var i int64
	read := func() {
		lpn := i % 16 * 8
		i++
		if res := c.Access(Request{LPN: lpn, Pages: 1}); len(res.ReadMisses) != 1 || res.ReadMisses[0] != lpn {
			t.Fatalf("read of %d: misses %v, want [%d]", lpn, res.ReadMisses, lpn)
		}
	}
	for j := 0; j < 200; j++ {
		read()
	}
	if got := testing.AllocsPerRun(1000, read); got != 0 {
		t.Fatalf("missing LAR read: %.1f allocs per access, want 0", got)
	}
}
