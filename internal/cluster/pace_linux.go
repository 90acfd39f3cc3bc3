//go:build linux

package cluster

import (
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// paceWait blocks the calling goroutine for d with microsecond-scale
// precision. time.Sleep cannot do that: with every P idle, the runtime
// parks its last thread in epoll_wait, whose timeout has millisecond
// granularity, so any sleep under a millisecond lasts about 1.1 ms. A
// device pacing wait is typically 25–300 µs, so the wait here parks the
// goroutine in the netpoller on a timerfd instead: the kernel's hrtimer
// makes the descriptor readable at the deadline and epoll_wait returns
// on that event rather than on its own timeout.
//
// Any setup or syscall failure falls back to time.Sleep for that wait.
func paceWait(d time.Duration) {
	if d <= 0 {
		return
	}
	t := paceTimers.get()
	if t == nil {
		time.Sleep(d)
		return
	}
	if err := t.wait(d); err != nil {
		t.f.Close()
		time.Sleep(d)
		return
	}
	paceTimers.put(t)
}

// paceTimers holds idle timers for reuse. A timer costs a descriptor
// and an epoll registration, so it is kept for the life of the process;
// the list grows to the largest number of concurrent waits. (A sync.Pool
// would drop its timers at every GC and re-create them on the hot path.)
var paceTimers timerPool

type timerPool struct {
	mu   sync.Mutex
	free []*paceTimer
}

// get returns an idle timer, or a new one; nil if none can be made.
func (p *timerPool) get() *paceTimer {
	p.mu.Lock()
	if k := len(p.free); k > 0 {
		t := p.free[k-1]
		p.free = p.free[:k-1]
		p.mu.Unlock()
		return t
	}
	p.mu.Unlock()
	if t, err := newPaceTimer(); err == nil {
		return t
	}
	return nil
}

func (p *timerPool) put(t *paceTimer) {
	p.mu.Lock()
	p.free = append(p.free, t)
	p.mu.Unlock()
}

// clockMonotonic is Linux's CLOCK_MONOTONIC (the syscall package does not
// export the clock ids).
const clockMonotonic = 1

// itimerspec mirrors the kernel's struct itimerspec.
type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

// paceTimer is one non-blocking timerfd registered with the netpoller.
// Everything a wait touches lives here, so a wait allocates nothing: the
// read callback is bound once, and the arm state, itimerspec and read
// buffer are fields rather than captured locals.
type paceTimer struct {
	f      *os.File
	rc     syscall.RawConn
	onRead func(fd uintptr) bool // t.readable, bound once
	spec   itimerspec
	buf    [8]byte // expiration count
	armed  bool
	err    error
}

func newPaceTimer() (*paceTimer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		uintptr(syscall.O_NONBLOCK|syscall.O_CLOEXEC), 0)
	if errno != 0 {
		return nil, errno
	}
	f := os.NewFile(fd, "pace-timerfd")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	t := &paceTimer{f: f, rc: rc}
	t.onRead = t.readable
	return t, nil
}

// wait arms the timer for d and parks until it fires.
//
// The timer is armed inside the RawConn.Read callback, never before the
// call: Read first resets the descriptor's poll readiness and only then
// runs the callback. A timer armed earlier can fire in between, and the
// reset wipes its edge; a callback that then parks without reading waits
// for an event that never comes. Arming inside the callback and reading
// at once means an expiration is either seen by that read or delivered
// as a new edge after the reset.
func (t *paceTimer) wait(d time.Duration) error {
	t.spec.value = syscall.NsecToTimespec(int64(d))
	t.armed, t.err = false, nil
	if err := t.rc.Read(t.onRead); err != nil {
		return err
	}
	return t.err
}

// readable is the RawConn.Read callback: it arms the timer on its first
// call of a wait, then reports whether the timer has expired (true ends
// the wait; false parks until the descriptor is readable again).
func (t *paceTimer) readable(fd uintptr) bool {
	if !t.armed {
		t.armed = true
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
			uintptr(unsafe.Pointer(&t.spec)), 0, 0, 0)
		if errno != 0 {
			t.err = errno
			return true
		}
	}
	for {
		_, err := syscall.Read(int(fd), t.buf[:])
		switch err {
		case nil:
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			t.err = err
			return true
		}
	}
}
