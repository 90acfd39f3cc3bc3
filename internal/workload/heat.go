package workload

import (
	"sort"

	"flashcoop/internal/trace"
)

// BlockHeat is a trace's per-block skew classification, derived ONCE up
// front from the whole request stream. Replay and load-generation paths
// ask Hot per operation, which is a single map lookup — deriving
// the class inside the per-op loop would re-tally the trace's access
// counts millions of times for the same answer.
type BlockHeat struct {
	ppb int64
	hot map[int64]struct{}

	// HotBlocks / ColdBlocks count the classified blocks, and
	// HotWriteShare is the fraction of the trace's page writes the hot
	// set actually absorbed (≥ the requested share by construction,
	// unless the trace has fewer writes than blocks).
	HotBlocks     int
	ColdBlocks    int
	HotWriteShare float64
}

// ClassifyHeat tallies the trace's write traffic per logical block and
// marks the smallest set of most-written blocks absorbing at least
// hotShare of all page writes as hot. hotShare outside (0,1) classifies
// everything cold. pagesPerBlock must match the block granularity the
// consumer cares about (usually the SSD's erase block).
func ClassifyHeat(reqs []trace.Request, pagesPerBlock int, hotShare float64) *BlockHeat {
	if pagesPerBlock < 1 {
		pagesPerBlock = 1
	}
	h := &BlockHeat{ppb: int64(pagesPerBlock), hot: make(map[int64]struct{})}
	counts := make(map[int64]int64)
	var total int64
	for _, r := range reqs {
		if r.Op != trace.Write {
			continue
		}
		for blk := r.LPN / h.ppb; blk*h.ppb < r.End(); blk++ {
			lo, hi := blk*h.ppb, (blk+1)*h.ppb
			if lo < r.LPN {
				lo = r.LPN
			}
			if hi > r.End() {
				hi = r.End()
			}
			counts[blk] += hi - lo
			total += hi - lo
		}
	}
	h.ColdBlocks = len(counts)
	if total == 0 || hotShare <= 0 || hotShare >= 1 {
		return h
	}
	blks := make([]int64, 0, len(counts))
	for blk := range counts {
		blks = append(blks, blk)
	}
	sort.Slice(blks, func(i, j int) bool {
		if counts[blks[i]] != counts[blks[j]] {
			return counts[blks[i]] > counts[blks[j]]
		}
		return blks[i] < blks[j]
	})
	want := int64(hotShare * float64(total))
	var absorbed int64
	for _, blk := range blks {
		if absorbed >= want {
			break
		}
		h.hot[blk] = struct{}{}
		absorbed += counts[blk]
	}
	h.HotBlocks = len(h.hot)
	h.ColdBlocks = len(counts) - h.HotBlocks
	h.HotWriteShare = float64(absorbed) / float64(total)
	return h
}

// Hot reports whether lpn's block is in the trace's hot set.
func (h *BlockHeat) Hot(lpn int64) bool {
	_, ok := h.hot[lpn/h.ppb]
	return ok
}
