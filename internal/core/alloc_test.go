package core

import (
	"testing"

	"flashcoop/internal/sim"
	"flashcoop/internal/testutil"
	"flashcoop/internal/trace"
)

// Allocation ceilings for the simulator's per-request bookkeeping.

// TestAllocsRemoteInsert: backing up a new page in a full remote table
// drops the oldest backup and reuses its slot.
func TestAllocsRemoteInsert(t *testing.T) {
	testutil.SkipUnderRace(t)
	r := NewRemoteStore(64)
	lpns := []int64{0}
	insert := func() {
		r.Insert(lpns)
		lpns[0]++
	}
	for i := 0; i < 200; i++ {
		insert()
	}
	if got := testing.AllocsPerRun(1000, insert); got != 0 {
		t.Fatalf("RemoteStore.Insert: %.1f allocs per new page, want 0", got)
	}
	if r.Len() != 64 {
		t.Fatalf("Len = %d, want 64", r.Len())
	}
}

// TestAllocsNodeBufferedWrite: a cooperative write that the buffer absorbs
// without evicting (LAR update, partner backup, statistics) allocates
// nothing.
func TestAllocsNodeBufferedWrite(t *testing.T) {
	testutil.SkipUnderRace(t)
	a, _ := testPair(t, "lar")
	var at sim.VTime
	var lpn int64
	write := func() {
		if _, err := a.Access(trace.Request{Arrival: at, Op: trace.Write, LPN: lpn % 32, Pages: 2}); err != nil {
			t.Fatal(err)
		}
		at += sim.Microsecond
		lpn += 5
	}
	for i := 0; i < 100; i++ {
		write()
	}
	flushes := a.Stats().FlushOps
	if got := testing.AllocsPerRun(1000, write); got != 0 {
		t.Fatalf("buffered write: %.1f allocs per request, want 0", got)
	}
	if a.Stats().FlushOps != flushes {
		t.Fatal("buffered writes evicted")
	}
}
