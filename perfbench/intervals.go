package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// An interval is one slice of a measured leg (a capacity-leg checkpoint
// interval, a latency-leg half second, a sim-fin1 replay) with its values
// and the host CPU steal share over it.
//
// Wall-clock figures are medians over the calm quarter of the intervals:
// the quarter with the least hypervisor CPU steal. On a shared virtual
// machine steal comes in bursts of seconds, and a burst moves every
// wall-clock figure of the intervals it hits (a closed loop of two clients
// loses far more than the stolen share); when steal runs through most of a
// run, only its calmest intervals come near the undisturbed figure. The
// choice depends only on the host's steal counter, never on the measured
// values.
type interval struct {
	steal float64
	vals  []float64
}

// calmQuarter returns the quarter of ivs (rounded up) with the least
// steal.
func calmQuarter(ivs []interval) []interval {
	s := append([]interval(nil), ivs...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].steal < s[j].steal })
	return s[:(len(s)+3)/4]
}

// calmMedians returns, for each value index, the median over the calm
// quarter of ivs, and the mean steal share of that quarter.
func calmMedians(ivs []interval, nvals int) (meds []float64, steal float64) {
	calm := calmQuarter(ivs)
	meds = make([]float64, nvals)
	for v := range meds {
		xs := make([]float64, len(calm))
		for i, iv := range calm {
			xs[i] = iv.vals[v]
		}
		meds[v] = median(xs)
	}
	for _, iv := range calm {
		steal += iv.steal
	}
	return meds, ratio(steal, float64(len(calm)))
}

// capacityIntervals turns the capacity leg's checkpoints into intervals
// of (ops/s, CPU µs per op, allocated KB per op). A final interval
// shorter than half of markEvery is dropped.
func capacityIntervals(marks []checkpoint) []interval {
	var out []interval
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		n := float64(b.done - a.done)
		if n == 0 || b.at-a.at < markEvery/2 {
			continue
		}
		out = append(out, interval{
			steal: b.steal.shareSince(a.steal),
			vals: []float64{
				n / (b.at - a.at).Seconds(),
				float64(b.cpu-a.cpu) / 1e3 / n,
				float64(b.alloc-a.alloc) / 1024 / n,
			},
		})
	}
	return out
}

// latencyIntervals splits samples into win-long intervals by due time
// (the monitor's checkpoints, taken every win from the leg's start, give
// each interval's steal) and returns each interval's percentiles ps.
// Intervals too small for the highest of ps under the percentile rule
// are dropped.
func latencyIntervals(ss []sample, marks []checkpoint, win time.Duration, ps ...float64) []interval {
	by := map[int][]float64{}
	last := 0
	for _, s := range ss {
		k := int(s.due / win)
		by[k] = append(by[k], s.ms)
		last = max(last, k)
	}
	var out []interval
	for k := 0; k <= last; k++ {
		xs := by[k]
		if !percentileOK(len(xs), ps[len(ps)-1]) {
			continue
		}
		xs = sortedCopy(xs)
		iv := interval{steal: 1}
		if k+1 < len(marks) {
			iv.steal = marks[k+1].steal.shareSince(marks[k].steal)
		}
		for _, p := range ps {
			iv.vals = append(iv.vals, percentile(xs, p))
		}
		out = append(out, iv)
	}
	return out
}

// describe lists each interval's values and steal, for the report.
func describe(ivs []interval) string {
	var b strings.Builder
	for _, iv := range ivs {
		b.WriteString(" [")
		for _, v := range iv.vals {
			fmt.Fprintf(&b, "%.4g ", v)
		}
		fmt.Fprintf(&b, "%.0f%%]", 100*iv.steal)
	}
	return b.String()
}
