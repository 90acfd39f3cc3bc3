// Package buffer implements the cache replacement policies at the heart of
// FlashCoop: the paper's Locality-Aware Replacement (LAR) scheme, the LRU
// and LFU baselines it is compared against, and three related-work schemes
// as extensions (BPLRU, FAB, LB-CLOCK).
//
// A Cache holds logical pages and decides, on overflow, which pages to
// evict and how to group them into flush units. The grouping is the whole
// point: LAR evicts entire logical blocks and flushes them as sequential
// runs (optionally clustering small leftovers into one large scattered
// write), while LRU/LFU evict single pages and therefore feed the SSD a
// stream of one-page writes. The caller (the FlashCoop node) turns flush
// units into SSD writes.
package buffer

import (
	"fmt"
	"slices"

	"flashcoop/internal/stream"
)

// Request is one host access applied to a cache.
type Request struct {
	LPN   int64
	Pages int
	Write bool
}

// FlushUnit is a group of pages evicted together and destined for the SSD
// as a single write operation.
type FlushUnit struct {
	// Pages are the evicted page numbers in ascending order.
	Pages []int64
	// Dirty is how many of them carried unwritten data. Clean pages may
	// appear when the policy rewrites a whole block for contiguity.
	Dirty int
	// Contiguous marks units whose pages form one run (flushed with a
	// single sequential write); clustered units gather pages from
	// multiple blocks and are issued as one scattered burst.
	Contiguous bool
	// PadPages lists pages included in Pages that are NOT buffered and
	// must be read back from the SSD before the write (BPLRU's block
	// padding). Empty for all other policies.
	PadPages []int64
	// Stream is the temperature class the evicting policy derived for
	// this unit (from block popularity, dirtiness, and run shape), used
	// by multi-stream FTLs to segregate lifetimes into separate erase
	// blocks. Policies without temperature information leave the zero
	// value (the default stream).
	Stream stream.Stream
	// Pop is the evicting block's observed popularity (accesses while
	// buffered) — the reuse signal a flash victim cache gates admission
	// on. Only popularity-tracking policies (LAR) set it; zero means "no
	// demonstrated reuse" and keeps the victim tier conservative.
	Pop int64
}

// Len reports the number of pages in the unit.
func (u FlushUnit) Len() int { return len(u.Pages) }

// Result describes the effects of one Access call.
type Result struct {
	// ReadHits / WriteHits count request pages already buffered.
	ReadHits  int
	WriteHits int
	// ReadMisses lists read pages that must be fetched from the SSD;
	// the cache has already inserted them (clean) when it buffers reads.
	ReadMisses []int64
	// Flush lists evictions triggered by this access, in order.
	Flush []FlushUnit
}

// Stats aggregates cache counters. Hits and misses are page-granular.
type Stats struct {
	Accesses   int64 // Access calls
	HitPages   int64
	MissPages  int64
	Evictions  int64 // flush units emitted
	FlushPages int64 // pages flushed (dirty or rewritten clean)
	CleanDrops int64 // clean pages discarded without flushing
}

// HitRatio reports page-granular hit ratio in [0,1].
func (s Stats) HitRatio() float64 {
	total := s.HitPages + s.MissPages
	if total == 0 {
		return 0
	}
	return float64(s.HitPages) / float64(total)
}

// Cache is the replacement-policy interface shared by all policies.
type Cache interface {
	// Name identifies the policy (one of the Policy* constants).
	Name() string
	// Capacity reports the page capacity.
	Capacity() int
	// Len reports the buffered page count.
	Len() int
	// DirtyLen reports the buffered dirty page count.
	DirtyLen() int
	// Contains reports whether lpn is buffered.
	Contains(lpn int64) bool
	// IsDirty reports whether lpn is buffered and dirty.
	IsDirty(lpn int64) bool
	// Access applies one request and returns hits, misses and evictions.
	// Result.Flush and Result.ReadMisses may live in memory the cache
	// reuses: they stay valid only until the next call on the same cache,
	// so a caller that keeps them longer copies them first. A FlushUnit
	// copied out keeps its Pages and PadPages, which a cache never
	// rewrites once returned.
	Access(req Request) Result
	// MarkClean clears the dirty flag of a buffered page (used after an
	// out-of-band flush, e.g. failure recovery).
	MarkClean(lpn int64)
	// Invalidate drops a buffered page without flushing it, dirty or
	// not, and reports whether it was present. This is how short-lived
	// data (deleted files) dies in the buffer without ever touching the
	// SSD (paper Section III.A).
	Invalidate(lpn int64) bool
	// DirtyPages returns all dirty page numbers in ascending order.
	DirtyPages() []int64
	// FlushAll evicts the entire contents, returning flush units for
	// every page (grouped per policy).
	FlushAll() []FlushUnit
	// Resize changes the capacity, evicting as needed to fit.
	Resize(capPages int) []FlushUnit
	// Stats returns a snapshot of the counters.
	Stats() Stats
}

// Policy names accepted by New.
const (
	PolicyLAR     = "lar"     // the paper's Locality-Aware Replacement
	PolicyLRU     = "lru"     // page-granular Least Recently Used
	PolicyLFU     = "lfu"     // page-granular Least Frequently Used
	PolicyBPLRU   = "bplru"   // Block Padding LRU (Kim & Ahn, FAST'08)
	PolicyFAB     = "fab"     // Flash-Aware Buffer (Jo et al. 2006)
	PolicyLBCLOCK = "lbclock" // Large Block CLOCK (Debnath et al., MASCOTS'09)
)

// New constructs a cache by policy name. pagesPerBlock is used by the
// block-granular policies (LAR, BPLRU, FAB) and ignored by LRU/LFU.
func New(policy string, capPages, pagesPerBlock int) (Cache, error) {
	switch policy {
	case PolicyLAR:
		return NewLAR(capPages, pagesPerBlock, DefaultLAROptions()), nil
	case PolicyLRU:
		return NewLRU(capPages), nil
	case PolicyLFU:
		return NewLFU(capPages), nil
	case PolicyBPLRU:
		return NewBPLRU(capPages, pagesPerBlock, true, true), nil
	case PolicyFAB:
		return NewFAB(capPages, pagesPerBlock), nil
	case PolicyLBCLOCK:
		return NewLBCLOCK(capPages, pagesPerBlock), nil
	default:
		return nil, fmt.Errorf("buffer: unknown policy %q", policy)
	}
}

// Policies lists the available replacement policy names.
func Policies() []string {
	return []string{PolicyLAR, PolicyLRU, PolicyLFU, PolicyBPLRU, PolicyFAB, PolicyLBCLOCK}
}

// runsOf splits ascending page numbers into maximal contiguous runs.
func runsOf(pages []int64) [][]int64 {
	if len(pages) == 0 {
		return nil
	}
	var runs [][]int64
	start := 0
	for i := 1; i <= len(pages); i++ {
		if i == len(pages) || pages[i] != pages[i-1]+1 {
			runs = append(runs, pages[start:i])
			start = i
		}
	}
	return runs
}

// sortedKeys returns the block's buffered page numbers ascending.
func sortedPages(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}
