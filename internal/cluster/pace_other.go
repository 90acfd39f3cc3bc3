//go:build !linux

package cluster

import "time"

// paceWait blocks for d. Without timerfd it falls back to time.Sleep,
// which the runtime rounds up to its timer granularity (about a
// millisecond when the process is otherwise idle).
func paceWait(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}
