package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eUnits are the end-to-end metrics every workload reports (with trace
// off); BENCHMARK.json bounds each of them per workload.
var e2eUnits = map[string]string{
	"setup_s":         "s",
	"ops_s":           "ops/s",
	"lat_p50_ms":      "ms",
	"lat_p90_ms":      "ms",
	"cpu_us_per_op":   "us",
	"alloc_kb_per_op": "KB",
	"rss_peak_mb":     "MB",
}

// extraUnits are the workload-specific end-to-end metrics: printed in the
// report of every workload they apply to, but not part of the gated set,
// because they do not exist (or are 0 by design) on every workload.
var extraUnits = map[string]string{
	"lat_p99_ms":       "ms",
	"write_p50_ms":     "ms",
	"write_p99_ms":     "ms",
	"read_p50_ms":      "ms",
	"read_p99_ms":      "ms",
	"fail_frac":        "ratio",
	"flash_wa":         "ratio",
	"erases_per_kpage": "count",
	"sim_resp_ms":      "ms",
}

// layerUnits are the per-layer metrics every traced run reports. A layer
// a workload bypasses reports 0.
var layerUnits = map[string]string{
	"cluster.write_node_p99_ms":       "ms",
	"cluster.fwd_p99_ms":              "ms",
	"cluster.fwd_pages_per_frame":     "ratio",
	"cluster.frame_ns_per_page":       "ns",
	"cluster.sheds_per_kop":           "count",
	"cluster.persists_per_kop":        "count",
	"cluster.evictor_stalls_per_kop":  "count",
	"cluster.pages_per_sync":          "pages",
	"cluster.drain_deferrals_per_kop": "count",
	"cluster.flushall_ms":             "ms",
	"cluster.read_ram_share":          "ratio",
	"cluster.read_victim_share":       "ratio",
	"cluster.read_device_share":       "ratio",
	"buffer.access_ns":                "ns",
	"buffer.hit_ratio":                "ratio",
	"buffer.pages_per_flush":          "pages",
	"victim.hit_ratio":                "ratio",
	"victim.admit_ratio":              "ratio",
	"victim.programs_per_admit":       "ratio",
	"victim.get_ns":                   "ns",
	"victim.offer_ns":                 "ns",
	"ssd.write_ns_per_page":           "ns",
	"ssd.gc_copies_per_page":          "ratio",
	"ssd.mean_write_pages":            "pages",
	"ssd.util":                        "ratio",
	"ssd.gc_pressure":                 "ratio",
	"ssd.flash_wa":                    "ratio",
	"ssd.erases_per_kpage":            "count",
	"core.access_ns":                  "ns",
	"metrics.hist_add_ns":             "ns",
	"gen.lag_p99_ms":                  "ms",
	"gen.backlog_end":                 "count",
	"runtime.gc_per_kop":              "count",
	"runtime.gc_pause_ms":             "ms",
	"trace.overhead_frac":             "ratio",
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	e2e               map[string]float64
	extra             map[string]float64
	layers            map[string]float64
	notes             []string
	problems          []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, extra: map[string]float64{}, layers: map[string]float64{}}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the human-readable lines (host shape, every metric by
// name and unit, notes, problems) and then the final JSON line: the
// end-to-end metrics with trace off, the per-layer metrics with trace on.
func (r *result) report(w io.Writer, host hostShape, traced bool) error {
	hb, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", hb)
	printSet := func(kind string, vals map[string]float64, units map[string]string) {
		names := make([]string, 0, len(vals))
		for n := range vals {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-8s %-34s %14.6g %s\n", kind, n, vals[n], units[n])
		}
	}
	if traced {
		printSet("layer", r.layers, layerUnits)
	} else {
		printSet("e2e", r.e2e, e2eUnits)
		printSet("e2e+", r.extra, extraUnits)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note     %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "PROBLEM  %s\n", p)
	}
	out := finalLine{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	want, vals := e2eUnits, r.e2e
	if traced {
		want, vals = layerUnits, r.layers
	}
	for n, u := range want {
		v, ok := vals[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", n, v)
		}
		out.Metrics[n] = metric{Value: v, Unit: u}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
