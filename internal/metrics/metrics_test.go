package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Total() != 0 || h.FracAtMost(10) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	h.Add(1)
	h.Add(1)
	h.Add(4)
	h.AddN(8, 2)
	if h.Total() != 5 {
		t.Fatalf("Total = %d, want 5", h.Total())
	}
	if h.Count(1) != 2 || h.Count(8) != 2 || h.Count(3) != 0 {
		t.Fatal("Count wrong")
	}
	if got := h.Values(); len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 8 {
		t.Fatalf("Values = %v", got)
	}
	if got := h.FracAtMost(4); got != 0.6 {
		t.Fatalf("FracAtMost(4) = %v, want 0.6", got)
	}
	if got := h.FracGreater(4); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("FracGreater(4) = %v, want 0.4", got)
	}
	if got := h.Mean(); math.Abs(got-(1+1+4+8+8)/5.0) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestHistogramCDF(t *testing.T) {
	var h Histogram
	for i := 1; i <= 10; i++ {
		h.Add(i)
	}
	pts := h.CDF([]int{0, 5, 10, 20})
	want := []float64{0, 0.5, 1, 1}
	for i, p := range pts {
		if math.Abs(p.CumFrac-want[i]) > 1e-12 {
			t.Errorf("CDF[%d] = %v, want %v", i, p.CumFrac, want[i])
		}
	}
}

func TestHistogramMergeReset(t *testing.T) {
	var a, b Histogram
	a.Add(1)
	b.Add(2)
	b.Add(1)
	a.Merge(&b)
	if a.Total() != 3 || a.Count(1) != 2 || a.Count(2) != 1 {
		t.Fatalf("merge wrong: %+v", a)
	}
	a.Reset()
	if a.Total() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.StdDev() != 0 || s.Count() != 0 {
		t.Fatal("empty summary not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 || s.Mean() != 5 || s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("summary stats wrong: n=%d mean=%v min=%v max=%v", s.Count(), s.Mean(), s.Min(), s.Max())
	}
	// Sample stddev of the classic dataset is sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); math.Abs(s.StdDev()-want) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", s.StdDev(), want)
	}
}

// Property: Summary mean matches the direct mean within floating error for
// any sample set.
func TestSummaryMeanProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Summary
		var sum float64
		count := int(n)%100 + 1
		for i := 0; i < count; i++ {
			x := rng.Float64() * 1000
			s.Add(x)
			sum += x
		}
		return math.Abs(s.Mean()-sum/float64(count)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram CDF is monotone non-decreasing and reaches 1.
func TestHistogramCDFMonotoneProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		var h Histogram
		maxV := 0
		for _, v := range vals {
			h.Add(int(v))
			if int(v) > maxV {
				maxV = int(v)
			}
		}
		if h.Total() == 0 {
			return true
		}
		prev := -1.0
		for v := 0; v <= maxV; v++ {
			f := h.FracAtMost(v)
			if f < prev {
				return false
			}
			prev = f
		}
		return math.Abs(h.FracAtMost(maxV)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"a", "bb"}}
	tb.AddRow("x", 1)
	tb.AddRow("longer", 2.5)
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"T\n", "a", "bb", "x", "longer", "2.50", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Errorf("got %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:      "3",
		123.45: "123.5",
		3.14:   "3.14",
		0.1234: "0.1234",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.523); got != "52.30%" {
		t.Errorf("Pct = %q", got)
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h LatencyHist
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty hist not zero")
	}
	// 100 samples: 1..100.
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	// The bucketing is ~9% wide; accept 15% relative error.
	checks := map[float64]float64{0.5: 50, 0.95: 95, 0.99: 99}
	for q, want := range checks {
		got := h.Quantile(q)
		if got < want*0.85 || got > want*1.25 {
			t.Errorf("Quantile(%v) = %v, want ~%v", q, got, want)
		}
	}
	if h.P50() > h.P95() || h.P95() > h.P99() {
		t.Error("percentiles not monotone")
	}
	// Clamped inputs.
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Error("quantile clamping broken")
	}
}

func TestLatencyHistZeroAndTiny(t *testing.T) {
	var h LatencyHist
	h.Add(0)
	h.Add(1e-9)
	h.Add(5)
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if q := h.Quantile(0.01); q < 0 {
		t.Errorf("negative quantile %v", q)
	}
}

// A sub-unit sample lands in the bucket just below 1, so its quantile
// reads at most 1 — not one bucket high, as truncation toward zero made it.
func TestLatencyHistSubUnitBucket(t *testing.T) {
	var h LatencyHist
	h.Add(0.95)
	if p := h.P50(); p > 1.0 || p < 0.95 {
		t.Fatalf("P50 of one 0.95 sample = %v, want within (0.95, 1.0]", p)
	}
}

// Property: LatencyHist quantile bounds the true quantile from above within
// one bucket factor.
func TestLatencyHistProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%200 + 1
		var h LatencyHist
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.Float64()*100 + 0.001
			h.Add(samples[i])
		}
		sort.Float64s(samples)
		med := samples[(n-1)/2]
		got := h.Quantile(0.5)
		return got >= med*(1-1e-9) && got <= med*latencyBase*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging two histograms is sample-exact — identical to having
// recorded every sample into one histogram.
func TestLatencyHistMerge(t *testing.T) {
	f := func(seed int64, naRaw, nbRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		na, nb := int(naRaw)%100, int(nbRaw)%100
		var a, b, all LatencyHist
		for i := 0; i < na; i++ {
			v := rng.Float64() * 50
			a.Add(v)
			all.Add(v)
		}
		for i := 0; i < nb; i++ {
			v := rng.Float64() * 5000
			b.Add(v)
			all.Add(v)
		}
		a.Merge(&b)
		if a.Count() != all.Count() {
			return false
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
			if a.Quantile(q) != all.Quantile(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyHistMergeEmpty(t *testing.T) {
	var a, b LatencyHist
	a.Add(3)
	a.Merge(&b) // merging empty is a no-op
	if a.Count() != 1 {
		t.Fatalf("Count = %d", a.Count())
	}
	b.Merge(&a) // merging into empty copies
	if b.Count() != 1 || b.P50() != a.P50() {
		t.Fatalf("merge into empty: count=%d", b.Count())
	}
}
