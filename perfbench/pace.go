package main

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pace sends op indices 0..total-1 to queue, each at t0+dueAt(i). It
// sleeps in nanosleep on its own OS thread with a 1µs timer slack:
// time.Sleep rounds short waits up to the runtime's millisecond poll
// granularity, and spinning would starve the pair's goroutines of a P.
// Ops it cannot hand over before t0+stopAfter are counted in backlog.
func pace(t0 time.Time, total int64, dueAt func(int64) time.Duration, stopAfter time.Duration, queue chan<- int64, backlog *atomic.Int64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// Best effort: with the default 50µs slack the pacer is only later.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	for i := int64(0); i < total; i++ {
		for d := dueAt(i) - time.Since(t0); d > 0; d = dueAt(i) - time.Since(t0) {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the remainder
		}
		if time.Since(t0) > stopAfter {
			backlog.Add(total - i)
			return
		}
		queue <- i
	}
}
