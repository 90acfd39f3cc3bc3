// Package ssd assembles a complete simulated solid-state drive: a flash
// translation layer over a NAND array, fronted by a FIFO service queue that
// converts per-operation device time into response times under load.
//
// The device records the statistics the FlashCoop paper evaluates:
// block-erase counts (garbage-collection overhead, Figure 7), the
// distribution of write lengths reaching the flash (Figure 8), and
// per-request service/response times (Figure 6). A request's response time
// includes the queueing delay behind earlier requests — including background
// flushes that FlashCoop issues — which is how buffering interacts with
// foreground latency in the simulation.
package ssd

import (
	"fmt"

	"flashcoop/internal/ftl"
	"flashcoop/internal/metrics"
	"flashcoop/internal/sim"
	"flashcoop/internal/stream"
)

// Config selects and parameterizes the device's FTL.
type Config struct {
	// Scheme is the FTL scheme: "page", "bast" or "fast".
	Scheme string
	// FTL carries the flash geometry and FTL tuning.
	FTL ftl.Config
}

// Device is a simulated SSD. It is not safe for concurrent use; in live
// (non-simulated) deployments the owning node serializes access, and the
// parallel experiment grid confines each Device (with its FTL and stats)
// to the one worker goroutine that simulates that grid cell.
type Device struct {
	f     ftl.FTL
	q     sim.Queue
	stats Stats
}

// Stats aggregates device-level counters.
type Stats struct {
	ReadOps    int64
	WriteOps   int64
	ReadPages  int64
	WritePages int64

	// ReadTime / WriteTime accumulate response times (queueing included).
	ReadTime  sim.VTime
	WriteTime sim.VTime

	// WriteLengths is the distribution of write sizes (in pages) passed
	// to the device — the paper's Figure 8 metric.
	WriteLengths metrics.Histogram

	// TrimOps / TrimPages count TRIM (discard) activity.
	TrimOps   int64
	TrimPages int64

	// BackgroundTime is device time spent on idle-period housekeeping
	// (MaintainBefore), off the host's critical path.
	BackgroundTime sim.VTime
}

// New constructs a device with the given configuration.
func New(cfg Config) (*Device, error) {
	f, err := ftl.New(cfg.Scheme, cfg.FTL)
	if err != nil {
		return nil, err
	}
	return &Device{f: f}, nil
}

// FTL exposes the device's translation layer.
func (d *Device) FTL() ftl.FTL { return d.f }

// UserPages reports the exported logical capacity in pages.
func (d *Device) UserPages() int64 { return d.f.UserPages() }

// PageSize reports the logical page size in bytes.
func (d *Device) PageSize() int { return d.f.Flash().Params().PageSize }

// PagesPerBlock reports the erase-block size in pages.
func (d *Device) PagesPerBlock() int { return d.f.Flash().Params().PagesPerBlock }

// Stats returns a snapshot of device counters. The histogram is shared;
// callers must not mutate it.
func (d *Device) Stats() *Stats { return &d.stats }

// Erases reports the total block erases performed, the paper's
// garbage-collection overhead metric.
func (d *Device) Erases() int64 { return d.f.Flash().Stats().Erases }

// BusyUntil reports when the device queue drains.
func (d *Device) BusyUntil() sim.VTime { return d.q.BusyUntil() }

// Utilization reports the fraction of [0, now] the device spent busy.
func (d *Device) Utilization(now sim.VTime) float64 { return d.q.Utilization(now) }

// Read submits a read of n pages at lpn arriving at time `at` and returns
// when it completes.
func (d *Device) Read(at sim.VTime, lpn int64, n int) (sim.VTime, error) {
	svc, err := d.f.Read(lpn, n)
	if err != nil {
		return 0, fmt.Errorf("ssd read lpn=%d n=%d: %w", lpn, n, err)
	}
	_, finish := d.q.Serve(at, svc)
	d.stats.ReadOps++
	d.stats.ReadPages += int64(n)
	d.stats.ReadTime += finish - at
	return finish, nil
}

// Write submits a write of n pages at lpn arriving at time `at` and returns
// when it completes. The write's length is recorded in the write-length
// distribution.
func (d *Device) Write(at sim.VTime, lpn int64, n int) (sim.VTime, error) {
	svc, err := d.f.Write(lpn, n)
	if err != nil {
		return 0, fmt.Errorf("ssd write lpn=%d n=%d: %w", lpn, n, err)
	}
	_, finish := d.q.Serve(at, svc)
	d.stats.WriteOps++
	d.stats.WritePages += int64(n)
	d.stats.WriteTime += finish - at
	d.stats.WriteLengths.Add(n)
	return finish, nil
}

// WriteTagged is Write carrying the evicting policy's temperature tag, so
// multi-stream FTLs can direct the pages to the stream's own active block.
func (d *Device) WriteTagged(at sim.VTime, lpn int64, n int, s stream.Stream) (sim.VTime, error) {
	svc, err := d.f.WriteTagged(lpn, n, s)
	if err != nil {
		return 0, fmt.Errorf("ssd write lpn=%d n=%d stream=%v: %w", lpn, n, s, err)
	}
	_, finish := d.q.Serve(at, svc)
	d.stats.WriteOps++
	d.stats.WritePages += int64(n)
	d.stats.WriteTime += finish - at
	d.stats.WriteLengths.Add(n)
	return finish, nil
}

// GCPressure reports the FTL's garbage-collection pressure in [0,1]: 0 when
// free space is plentiful, 1 when the next host write may have to wait for
// reclaim. Cooperating nodes gossip this so partners can defer non-urgent
// backup traffic while a device digests GC.
func (d *Device) GCPressure() float64 { return d.f.GCPressure() }

// WriteCluster submits a gathered write of non-contiguous pages issued as
// one multi-page program burst — FlashCoop's "clustering multiple small
// writes into a full block" optimization (Section III.B.3). Device time is
// modelled as the sum of the individual page writes minus the interleaving
// the burst enables; the burst counts as a single write of len(lpns) pages
// in the write-length distribution.
func (d *Device) WriteCluster(at sim.VTime, lpns []int64) (sim.VTime, error) {
	if len(lpns) == 0 {
		return at, nil
	}
	var svc sim.VTime
	for _, lpn := range lpns {
		s, err := d.f.Write(lpn, 1)
		if err != nil {
			return 0, fmt.Errorf("ssd cluster write lpn=%d: %w", lpn, err)
		}
		svc += s
	}
	// The burst programs across planes like one large write: grant it the
	// same interleave benefit an equally-sized contiguous write receives.
	svc -= interleaveBenefit(d.f, len(lpns))
	if svc < 0 {
		svc = 0
	}
	_, finish := d.q.Serve(at, svc)
	d.stats.WriteOps++
	d.stats.WritePages += int64(len(lpns))
	d.stats.WriteTime += finish - at
	d.stats.WriteLengths.Add(len(lpns))
	return finish, nil
}

// WriteClusterTagged is WriteCluster carrying the evicting policy's
// temperature tag for every page of the scattered burst.
func (d *Device) WriteClusterTagged(at sim.VTime, lpns []int64, s stream.Stream) (sim.VTime, error) {
	if len(lpns) == 0 {
		return at, nil
	}
	var svc sim.VTime
	for _, lpn := range lpns {
		sv, err := d.f.WriteTagged(lpn, 1, s)
		if err != nil {
			return 0, fmt.Errorf("ssd cluster write lpn=%d stream=%v: %w", lpn, s, err)
		}
		svc += sv
	}
	svc -= interleaveBenefit(d.f, len(lpns))
	if svc < 0 {
		svc = 0
	}
	_, finish := d.q.Serve(at, svc)
	d.stats.WriteOps++
	d.stats.WritePages += int64(len(lpns))
	d.stats.WriteTime += finish - at
	d.stats.WriteLengths.Add(len(lpns))
	return finish, nil
}

func interleaveBenefit(f ftl.FTL, n int) sim.VTime {
	p := f.Flash().Params()
	ways := p.PlanesPerDie * p.Dies
	if ways <= 1 || n <= 1 {
		return 0
	}
	if ways > n {
		ways = n
	}
	serial := sim.VTime(n) * p.ProgramLatency
	parallel := sim.VTime((n+ways-1)/ways) * p.ProgramLatency
	return serial - parallel
}

// Precondition ages the device by sequentially writing the given fraction
// of the logical space once, populating the mapping tables the way a
// filled drive would be. It consumes no simulated time visible to later
// requests (the queue is reset afterwards).
func (d *Device) Precondition(fillRatio float64) error {
	if fillRatio <= 0 {
		return nil
	}
	if fillRatio > 1 {
		fillRatio = 1
	}
	ppb := d.PagesPerBlock()
	limit := int64(float64(d.UserPages()) * fillRatio)
	for lpn := int64(0); lpn+int64(ppb) <= limit; lpn += int64(ppb) {
		if _, err := d.f.Write(lpn, ppb); err != nil {
			return fmt.Errorf("ssd precondition: %w", err)
		}
	}
	d.ResetMeasurement()
	return nil
}

// ResetMeasurement clears the queue and measurement counters while keeping
// the device's aged state, so experiments measure steady-state behaviour.
// Note: flash-level erase counters are monotonic; callers that need erase
// deltas should snapshot Erases() after calling this.
func (d *Device) ResetMeasurement() {
	d.q.Reset()
	d.stats = Stats{}
}

// Trim invalidates n logical pages (TRIM/discard). It is a metadata-only
// operation: no queue time is consumed, but the freed pages make future
// garbage collection cheaper.
func (d *Device) Trim(lpn int64, n int) error {
	if err := d.f.Trim(lpn, n); err != nil {
		return fmt.Errorf("ssd trim lpn=%d n=%d: %w", lpn, n, err)
	}
	d.stats.TrimOps++
	d.stats.TrimPages += int64(n)
	return nil
}

// MaintainBefore grants the FTL the idle gap before time `at` for
// background housekeeping (garbage collection, merges), bounded by `cap`
// when cap > 0. The work occupies the queue inside the idle window only,
// so a request arriving at `at` is never delayed by it unless the final
// atomic work unit overshoots. It returns the device time consumed.
func (d *Device) MaintainBefore(at sim.VTime, cap sim.VTime) (sim.VTime, error) {
	idleStart := d.q.BusyUntil()
	if at <= idleStart {
		return 0, nil
	}
	budget := at - idleStart
	if cap > 0 && budget > cap {
		budget = cap
	}
	spent, err := d.f.CollectBackground(budget)
	if err != nil {
		return spent, fmt.Errorf("ssd maintain: %w", err)
	}
	if spent > 0 {
		d.q.Serve(idleStart, spent)
		d.stats.BackgroundTime += spent
	}
	return spent, nil
}
