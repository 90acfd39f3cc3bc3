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
