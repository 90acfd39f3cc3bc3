// Package metrics provides the measurement primitives the FlashCoop
// benchmark harness reports with: integer-valued histograms (write-length
// distributions, Figure 8), streaming summaries of response times
// (Figure 6), and fixed-width table rendering for regenerating the paper's
// tables on a terminal.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Histogram counts occurrences of integer values (e.g. write lengths in
// pages). The zero value is ready to use.
type Histogram struct {
	counts map[int]int64
	total  int64
}

// Add records one occurrence of v.
func (h *Histogram) Add(v int) { h.AddN(v, 1) }

// AddN records n occurrences of v.
func (h *Histogram) AddN(v int, n int64) {
	if h.counts == nil {
		h.counts = make(map[int]int64)
	}
	h.counts[v] += n
	h.total += n
}

// Total reports the number of recorded occurrences.
func (h *Histogram) Total() int64 { return h.total }

// Count reports the occurrences of exactly v.
func (h *Histogram) Count(v int) int64 { return h.counts[v] }

// Values returns the distinct recorded values in ascending order.
func (h *Histogram) Values() []int {
	vs := make([]int, 0, len(h.counts))
	for v := range h.counts {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// FracAtMost reports the fraction of occurrences with value <= v, i.e. the
// empirical CDF evaluated at v. It returns 0 for an empty histogram.
func (h *Histogram) FracAtMost(v int) float64 {
	if h.total == 0 {
		return 0
	}
	var c int64
	for val, n := range h.counts {
		if val <= v {
			c += n
		}
	}
	return float64(c) / float64(h.total)
}

// FracGreater reports the fraction of occurrences with value > v.
func (h *Histogram) FracGreater(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return 1 - h.FracAtMost(v)
}

// CDFPoint is one evaluation of an empirical CDF.
type CDFPoint struct {
	Value   int
	CumFrac float64
}

// CDF evaluates the empirical CDF at the given thresholds (ascending).
func (h *Histogram) CDF(thresholds []int) []CDFPoint {
	pts := make([]CDFPoint, len(thresholds))
	for i, v := range thresholds {
		pts[i] = CDFPoint{Value: v, CumFrac: h.FracAtMost(v)}
	}
	return pts
}

// Mean reports the average recorded value.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for v, n := range h.counts {
		sum += float64(v) * float64(n)
	}
	return sum / float64(h.total)
}

// Merge adds all occurrences from other into h.
func (h *Histogram) Merge(other *Histogram) {
	for v, n := range other.counts {
		h.AddN(v, n)
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() { h.counts, h.total = nil, 0 }

// Summary is a streaming mean/min/max/variance accumulator (Welford's
// algorithm), used for response-time statistics without storing samples.
// The zero value is ready to use.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one sample.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Count reports the number of samples.
func (s *Summary) Count() int64 { return s.n }

// Mean reports the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Min reports the smallest sample (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max reports the largest sample (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// StdDev reports the sample standard deviation (0 for n < 2).
func (s *Summary) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Table renders aligned fixed-width text tables, the output format of the
// benchmark harness.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// AddRow appends one row of cells (formatted with %v).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows reports the number of data rows added.
func (t *Table) Rows() int { return len(t.rows) }

// Render writes the table to w with aligned columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// FormatFloat renders a float compactly: integers without decimals, small
// values with enough precision to be meaningful.
func FormatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Pct formats a fraction as a percentage string.
func Pct(frac float64) string { return fmt.Sprintf("%.2f%%", frac*100) }

// LatencyHist is a log-bucketed latency histogram for percentile queries
// without storing samples. Buckets grow geometrically (~9% per step), so
// percentile error is bounded by one bucket width.
type LatencyHist struct {
	counts []int64
	total  int64
}

// latencyBase is the per-bucket growth factor.
const latencyBase = 1.09

// Add records one sample (any non-negative value; the unit is the
// caller's, typically milliseconds).
func (h *LatencyHist) Add(v float64) {
	idx := 0
	if v > 0 {
		// Floor, not truncation toward zero: a sample in (1/base, 1)
		// belongs to the bucket whose upper bound is 1, not base.
		idx = int(math.Floor(math.Log(v)/math.Log(latencyBase))) + 512
		if idx < 0 {
			idx = 0
		}
	}
	if idx >= len(h.counts) {
		grown := make([]int64, idx+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[idx]++
	h.total++
}

// Count reports the number of recorded samples.
func (h *LatencyHist) Count() int64 { return h.total }

// Merge adds all samples from other into h (bucket-exact: both sides use
// the same geometric bucketing). Lets concurrent workers record into
// private histograms and combine them afterwards without locking.
func (h *LatencyHist) Merge(other *LatencyHist) {
	if len(other.counts) > len(h.counts) {
		grown := make([]int64, len(other.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
}

// Quantile returns an upper bound of the q-quantile (q in [0,1]).
func (h *LatencyHist) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for idx, c := range h.counts {
		cum += c
		if cum >= target {
			if idx == 0 {
				return 0
			}
			return math.Pow(latencyBase, float64(idx-511))
		}
	}
	return math.Pow(latencyBase, float64(len(h.counts)-511))
}

// P50, P95 and P99 are convenience quantiles.
func (h *LatencyHist) P50() float64 { return h.Quantile(0.50) }

// P95 returns the 95th percentile upper bound.
func (h *LatencyHist) P95() float64 { return h.Quantile(0.95) }

// P99 returns the 99th percentile upper bound.
func (h *LatencyHist) P99() float64 { return h.Quantile(0.99) }

// P999 returns the 99.9th percentile upper bound.
func (h *LatencyHist) P999() float64 { return h.Quantile(0.999) }
