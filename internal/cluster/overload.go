package cluster

import (
	"errors"
	"sync/atomic"
)

// admissionLimit bounds how many Writes may be inside the node at once
// (the capacity of LiveNode.admit).
const admissionLimit = 1024

// breakerWindow is how many consecutive slow forward frames trip the
// breaker.
const breakerWindow = 16

// ErrOverloaded is returned by LiveNode.Write when the node sheds the
// write: no admission slot (or forward-queue space) freed up within
// CallTimeout. The write was not acknowledged; the client may retry.
// Shedding with a typed error keeps overload from cascading into
// unbounded queues and multi-second tail latencies.
var ErrOverloaded = errors.New("cluster: overloaded, write shed")

// breaker is a consecutive-slow-call circuit breaker on the forward path.
// Forward frames acked faster than threshold (CallTimeout/2) reset it;
// breakerWindow slow acks in a row report a trip (exactly once per
// saturation episode), which the node turns into a lifecycle failover: a
// partner that technically answers but has let the inflight window
// saturate is treated like a dead one — degrade, shed load to the local
// SSD, and let the prober + resync bring the pair back when it recovers.
type breaker struct {
	threshold int64 // nanoseconds
	slow      int32 // consecutive slow acks (atomic)
}

// observe records one successful forward frame's service time and reports
// whether the breaker just tripped.
func (b *breaker) observe(nanos int64) bool {
	if nanos < b.threshold {
		atomic.StoreInt32(&b.slow, 0)
		return false
	}
	return atomic.AddInt32(&b.slow, 1) == breakerWindow
}

func (b *breaker) reset() { atomic.StoreInt32(&b.slow, 0) }
