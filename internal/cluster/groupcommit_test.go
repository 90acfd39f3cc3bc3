package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flushCountStore is a store-section stub that counts flushes and can fail.
type flushCountStore struct {
	memStore
	flushes atomic.Int64
	fail    atomic.Bool
}

var errStubFlush = errors.New("stub flush failure")

func (s *flushCountStore) flush() error {
	s.flushes.Add(1)
	if s.fail.Load() {
		return errStubFlush
	}
	return nil
}

// TestGroupCommitCompletesWaiters checks every concurrent sync() caller
// completes with its own section's outcome and each section is fsynced
// at least once.
func TestGroupCommitCompletesWaiters(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	var stats LiveStats
	gc := newGroupCommit(16, stop, &stats)
	var wg sync.WaitGroup
	wg.Add(1)
	go gc.run(&wg)

	good := &flushCountStore{}
	bad := &flushCountStore{}
	bad.fail.Store(true)
	var callers sync.WaitGroup
	errc := make(chan error, 8)
	for i := 0; i < 4; i++ {
		callers.Add(1)
		go func() { defer callers.Done(); errc <- gc.sync(good, 2) }()
		callers.Add(1)
		go func() { defer callers.Done(); errc <- gc.sync(bad, 3) }()
	}
	callers.Wait()
	close(errc)
	var oks, fails int
	for err := range errc {
		switch {
		case err == nil:
			oks++
		case errors.Is(err, errStubFlush):
			fails++
		default:
			t.Fatalf("unexpected sync error: %v", err)
		}
	}
	if oks != 4 || fails != 4 {
		t.Fatalf("got %d ok / %d failed, want 4/4", oks, fails)
	}
	if good.flushes.Load() == 0 || bad.flushes.Load() == 0 {
		t.Fatal("a section was never flushed")
	}
	if atomic.LoadInt64(&stats.GroupCommitBatches) == 0 {
		t.Fatal("no batches counted")
	}
	if got := atomic.LoadInt64(&stats.PagesSynced); got != 4*2+4*3 {
		t.Fatalf("PagesSynced = %d, want 20", got)
	}
}

// slowFlushStore stretches each flush so passes overlap queued requests.
type slowFlushStore struct {
	flushCountStore
	delay time.Duration
}

func (s *slowFlushStore) flush() error {
	time.Sleep(s.delay)
	return s.flushCountStore.flush()
}

// TestGroupCommitSelfClockedCoalesces checks the in-flight window batches
// with no idle wait: while one pass's slow sync runs, arriving requests
// gather into the next pass instead of each dispatching its own.
func TestGroupCommitSelfClockedCoalesces(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	var stats LiveStats
	gc := newGroupCommit(64, stop, &stats)
	var wg sync.WaitGroup
	wg.Add(1)
	go gc.run(&wg)

	sec := &slowFlushStore{delay: 3 * time.Millisecond}
	const waiters = 12
	var callers sync.WaitGroup
	for i := 0; i < waiters; i++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			if err := gc.sync(sec, 1); err != nil {
				t.Errorf("sync: %v", err)
			}
		}()
	}
	callers.Wait()
	if got := sec.flushes.Load(); got >= waiters*2/3 {
		t.Fatalf("%d flushes for %d overlapping waiters; the in-flight window is not batching", got, waiters)
	}
}

// TestGroupCommitStop checks shutdown fails waiters conservatively with
// errNodeClosing instead of hanging them or reporting durability.
func TestGroupCommitStop(t *testing.T) {
	stop := make(chan struct{})
	var stats LiveStats
	gc := newGroupCommit(4, stop, &stats)
	// No run() goroutine: requests queue until the channel fills, exactly
	// the race a node shutdown can hit.
	sec := &flushCountStore{}
	done := make(chan error, 8)
	for i := 0; i < 6; i++ {
		go func() { done <- gc.sync(sec, 1) }()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	gc.drainFailed()
	for i := 0; i < 6; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, errNodeClosing) {
				t.Fatalf("got %v, want errNodeClosing", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("sync caller hung through shutdown")
		}
	}
}
