package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call the benchmark made into a layer: name, start and end
// (ns since the tracer's epoch), the span that caused it (-1 for none),
// and the op it served (-1 for set-up and standalone replays). Calls
// records how many calls a replay span covers (1 for a single call).
type span struct {
	name       string
	parent     int
	op         int64
	start, end int64
	calls      int
}

// spanCap bounds the spans one buffer keeps; later spans are counted in
// dropped instead of stored, so a long traced run has bounded memory.
const spanCap = 1 << 19

// spanBuf is one goroutine's span log. The traced run gives each client
// goroutine its own buffer and merges them when the run ends, so
// recording takes no lock. A nil *spanBuf records nothing, which is how
// untraced runs call the same code.
type spanBuf struct {
	epoch   time.Time
	spans   []span
	dropped int64
}

func newSpanBuf(epoch time.Time) *spanBuf { return &spanBuf{epoch: epoch} }

// begin opens a span and returns its index (or -1 when not recording).
func (b *spanBuf) begin(name string, parent int, opID int64) int {
	if b == nil {
		return -1
	}
	if len(b.spans) >= spanCap {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{name: name, parent: parent, op: opID, start: int64(time.Since(b.epoch)), calls: 1})
	return len(b.spans) - 1
}

// end closes span i.
func (b *spanBuf) end(i int) {
	if b == nil || i < 0 {
		return
	}
	b.spans[i].end = int64(time.Since(b.epoch))
}

// endCalls closes replay span i, recording how many calls it covered.
func (b *spanBuf) endCalls(i, calls int) {
	if b == nil || i < 0 {
		return
	}
	b.spans[i].calls = calls
	b.end(i)
}

// merge appends other's spans, rebasing their parent indices.
func (b *spanBuf) merge(other *spanBuf) {
	if b == nil || other == nil {
		return
	}
	base := len(b.spans)
	for _, s := range other.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		b.spans = append(b.spans, s)
	}
	b.dropped += other.dropped
}

// spanPercentile is the p-th percentile (ms) of the durations of the
// spans named name.
func spanPercentile(b *spanBuf, name string, p float64) float64 {
	var ds []float64
	for _, s := range b.spans {
		if s.name == name {
			ds = append(ds, float64(s.end-s.start)/1e6)
		}
	}
	return percentile(sortedCopy(ds), p)
}

// layerTime is one span name's totals: calls, wall time, and self time
// (wall time minus the part its child spans cover).
type layerTime struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes derives each span name's total and self time. Children of
// one span never overlap (one goroutine issues them in turn), so a
// span's self time is its duration minus its children's durations.
func (b *spanBuf) selfTimes() []layerTime {
	child := make([]int64, len(b.spans))
	for _, s := range b.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	byName := map[string]*layerTime{}
	for i, s := range b.spans {
		lt := byName[s.name]
		if lt == nil {
			lt = &layerTime{Name: s.name}
			byName[s.name] = lt
		}
		d := s.end - s.start
		lt.Spans++
		lt.Calls += s.calls
		lt.TotalMs += float64(d) / 1e6
		lt.SelfMs += float64(d-child[i]) / 1e6
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// writeTrace writes every span as one JSON object per line, followed by
// a summary line with the per-name self times.
func (b *spanBuf) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := b.encode(w); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}

func (b *spanBuf) encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	type rec struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Parent int    `json:"parent"`
		Op     int64  `json:"op"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Calls  int    `json:"calls"`
	}
	for i, s := range b.spans {
		if err := enc.Encode(rec{i, s.name, s.parent, s.op, s.start, s.end, s.calls}); err != nil {
			return err
		}
	}
	return enc.Encode(map[string]any{"summary": b.selfTimes(), "dropped": b.dropped})
}
