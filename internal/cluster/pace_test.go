package cluster

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"flashcoop/internal/testutil"
)

// Device pacing waits are typically 25–300 µs. time.Sleep rounds any
// wait under a millisecond up to about 1.1 ms on an idle process, so the
// precision tests below fail on the sleep path by a wide margin and pass
// on the timerfd path with room to spare. A timing test on a shared host
// can catch a bad stretch, so each takes the best of a few attempts: the
// sleep path never gets one under the bound.

const (
	paceBound    = 300 * time.Microsecond
	paceAttempts = 3
)

func skipUnlessPrecise(t *testing.T) {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("precise pacing waits need timerfd (Linux); elsewhere paceWait is time.Sleep")
	}
}

// median returns the middle of ds (sorted in place).
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// bestMedian runs measure paceAttempts times, stopping early once a
// median is under paceBound, and returns the lowest median seen.
func bestMedian(measure func() time.Duration) time.Duration {
	best := time.Duration(1<<63 - 1)
	for range paceAttempts {
		best = min(best, measure())
		if best < paceBound {
			break
		}
	}
	return best
}

// TestPaceWaitPrecise: the median of 100 waits of 100 µs ends well under
// the millisecond a coarse sleep takes.
func TestPaceWaitPrecise(t *testing.T) {
	skipUnlessPrecise(t)
	const d = 100 * time.Microsecond
	got := bestMedian(func() time.Duration {
		lat := make([]time.Duration, 100)
		for i := range lat {
			t0 := time.Now()
			paceWait(d)
			lat[i] = time.Since(t0)
		}
		if lo := slices.Min(lat); lo < d {
			t.Fatalf("a %v wait returned after %v", d, lo)
		}
		return median(lat)
	})
	t.Logf("median paceWait(%v) = %v", d, got)
	if got >= paceBound {
		t.Fatalf("median paceWait(%v) = %v, want under %v", d, got, paceBound)
	}
}

// TestPaceWaitTiny: a wait far shorter than a syscall, or none at all,
// still returns.
func TestPaceWaitTiny(t *testing.T) {
	for _, d := range []time.Duration{-time.Second, 0, time.Nanosecond} {
		paceWait(d)
	}
}

// TestPaceWaitAllocs: a wait on a reused timer allocates nothing.
func TestPaceWaitAllocs(t *testing.T) {
	testutil.SkipUnderRace(t)
	paceWait(time.Microsecond) // create the timer outside the count
	if got := testing.AllocsPerRun(200, func() { paceWait(time.Microsecond) }); got != 0 {
		t.Fatalf("paceWait: %.1f allocs per wait, want 0", got)
	}
}

// TestPaceWaitConcurrentTiny: many goroutines each run thousands of waits
// of 0–7 µs, so timers routinely expire while their wait is still being
// set up. A timer whose expiration edge is lost parks its goroutine for
// good, and the test misses its deadline.
func TestPaceWaitConcurrentTiny(t *testing.T) {
	const (
		workers = 8
		waits   = 5000
	)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for range waits {
				paceWait(time.Duration(rng.Intn(8)) * time.Microsecond)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("paceWait workers still parked after 2m: a timer expiration was lost")
	}
}

// TestPacedReadMissPrecise: on a paced node with an idle device, a
// one-page read miss takes about the modeled 125 µs (25 µs array read +
// 100 µs bus transfer), not the millisecond of a coarse sleep.
func TestPacedReadMissPrecise(t *testing.T) {
	skipUnlessPrecise(t)
	const (
		bufPages = 32
		written  = 1024
		reads    = 200
	)
	n, err := NewLiveNode(LiveConfig{
		Name: "paced", ListenAddr: "127.0.0.1:0",
		BufferPages: bufPages, RemotePages: bufPages, SSD: liveSSD(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	ps := n.Device().PageSize()
	data := make([]byte, ps)
	for lpn := range int64(written) {
		if err := n.Write(lpn, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.FlushAll(); err != nil {
		t.Fatal(err)
	}
	n.ResetDeviceMeasurement()
	n.SetDevicePacing(true)
	defer n.SetDevicePacing(false)
	base := int64(0)
	got := bestMedian(func() time.Duration {
		lat := make([]time.Duration, reads)
		for i := range lat {
			// Every page read here is out of the buffer: FlushAll emptied
			// it, and each pass reads pages no earlier pass touched.
			lpn := base + int64(i)*4
			t0 := time.Now()
			if _, err := n.Read(lpn, 1); err != nil {
				t.Fatal(err)
			}
			lat[i] = time.Since(t0)
		}
		base++
		return median(lat)
	})
	n.devMu.Lock()
	devReads := n.dev.Stats().ReadPages
	n.devMu.Unlock()
	if devReads == 0 {
		t.Fatal("no read reached the device model")
	}
	t.Logf("median paced one-page read miss = %v", got)
	if got >= paceBound {
		t.Fatalf("median paced one-page read miss = %v, want under %v (modeled 125µs)", got, paceBound)
	}
}
