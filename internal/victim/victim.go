// Package victim is a log-structured, flash-resident victim cache: a
// second caching tier that absorbs pages evicted from the RAM buffer
// while they are still warm, so the next buffer miss on them costs a
// cache lookup instead of a home-device read.
//
// Two design rules keep the tier from becoming a write-amplification
// machine, borrowed from Flashield and WLFC (see PAPERS.md):
//
//   - Admission is gated on demonstrated reuse. An evicted page enters
//     the log only when its eviction carried an admissible temperature
//     (Hot/Warm — the LAR-derived stream tags) AND its block showed
//     reuse while buffered (popularity ≥ MinReuse), or when the page was
//     recently evicted from the tier itself (a ghost-index hit, the
//     re-admission feedback loop). Cold and sequential one-touch data
//     bypasses the tier entirely and costs it nothing. Read-miss fills
//     go through the same ghost gate (OfferFill): the first miss records
//     metadata only, and only a repeat miss earns the flash write.
//
//   - The log is written strictly in erase-block-sized segments: one
//     open segment, sequential page appends, and whole-segment FIFO
//     reclamation. The cache never relocates live data, so it induces
//     zero device-side GC — the backing flash model enforces in-order
//     programming and erase-only-when-dead, making any violation an
//     error rather than an assumption.
//
// The tier is strictly a cache: every admitted page is also written to
// its durable home, entries never outlive a newer durable version (the
// cluster layer invalidates on every persist it does not admit), and a
// crash loses the contents with no durability impact.
package victim

import (
	"fmt"
	"sync"

	"flashcoop/internal/faultfs"
	"flashcoop/internal/flash"
	"flashcoop/internal/stream"
)

// Config sizes and parameterizes a Cache.
type Config struct {
	// Segments is the number of erase-block-sized log segments; one is
	// always the open (appending) segment, so at least 2 are required.
	Segments int
	// SegmentPages is the page capacity of one segment — the erase-block
	// size of the cache's flash, which is what makes whole-segment
	// reclamation GC-free.
	SegmentPages int
	// PageSize is the payload size of one page in bytes.
	PageSize int
	// MinReuse is the admission floor on the evicting block's observed
	// popularity (accesses while buffered). Pages below it are admitted
	// only on a ghost-index hit. Values < 1 default to 2.
	MinReuse int64
	// GhostPages bounds the ghost index (LPNs of recently reclaimed
	// entries, kept for re-admission feedback). 0 defaults to one full
	// cache worth (Segments × SegmentPages).
	GhostPages int
	// Log, when non-nil, mirrors each sealed segment (header + payloads)
	// to fixed per-segment offsets of this file. The mirror is the
	// tier's flash residency: written sequentially, never fsynced (cache
	// contents are expendable), never read back at startup (the tier
	// starts cold — reloading would resurrect entries the runtime
	// invalidation already killed). The Cache takes ownership and closes
	// it on Close.
	Log faultfs.File
}

// Stats counts cache activity. Snapshot via Cache.Snapshot.
type Stats struct {
	Hits        int64 // GetInto calls served from the log
	Misses      int64 // GetInto calls that found nothing
	Admits      int64 // offered pages appended to the log
	Rejects     int64 // offered pages bypassing the tier (inadmissible class or no reuse)
	Evictions   int64 // live entries dropped by whole-segment reclamation
	GhostAdmits int64 // admissions granted by the ghost index rather than popularity
	FillAdmits  int64 // admissions from the read-miss fill path (repeat-miss proof)
	Invalidates int64 // entries dropped because a newer version persisted elsewhere
	Seals       int64 // segments filled and sealed
	Faults      int64 // internal flash-model errors (always a bug; the op is dropped)
}

// Cache is the victim tier. All methods are safe for concurrent use; the
// cache holds its payloads in slot buffers allocated once at New (memory
// footprint is fixed at Segments × SegmentPages pages) and models its
// flash with an internal flash.Array for wear accounting and write-
// discipline enforcement.
type Cache struct {
	mu  sync.Mutex
	cfg Config
	arr *flash.Array

	idx    map[int64]int // lpn -> live slot
	data   [][]byte      // slot payload buffers, Segments*SegmentPages
	lpns   []int64       // slot -> lpn programmed there
	stamps []uint64      // slot -> write stamp
	live   []bool        // slot holds the current cached version

	head   int // open segment
	cursor int // next free slot offset within the open segment
	seq    uint64
	used   []bool // segment has been programmed since its last erase

	ghost     map[int64]struct{}
	ghostFIFO []int64
	ghostCap  int

	sealBuf []byte // reusable mirror buffer, header + payloads

	stats Stats
}

// New builds a cache. The flash model is sized exactly to the log: one
// plane of Segments erase blocks, SegmentPages pages each.
func New(cfg Config) (*Cache, error) {
	if cfg.Segments < 2 {
		return nil, fmt.Errorf("victim: %d segments, want >= 2 (one open, one stable)", cfg.Segments)
	}
	if cfg.SegmentPages < 1 {
		return nil, fmt.Errorf("victim: segment of %d pages, want >= 1", cfg.SegmentPages)
	}
	if cfg.PageSize < 1 {
		return nil, fmt.Errorf("victim: page size %d, want >= 1", cfg.PageSize)
	}
	if cfg.MinReuse < 1 {
		cfg.MinReuse = 2
	}
	if cfg.GhostPages <= 0 {
		cfg.GhostPages = cfg.Segments * cfg.SegmentPages
	}
	arr, err := flash.NewArray(flash.Params{
		PageSize:       cfg.PageSize,
		PagesPerBlock:  cfg.SegmentPages,
		BlocksPerPlane: cfg.Segments,
		PlanesPerDie:   1,
		Dies:           1,
	})
	if err != nil {
		return nil, fmt.Errorf("victim: %w", err)
	}
	slots := cfg.Segments * cfg.SegmentPages
	c := &Cache{
		cfg:      cfg,
		arr:      arr,
		idx:      make(map[int64]int, slots),
		data:     make([][]byte, slots),
		lpns:     make([]int64, slots),
		stamps:   make([]uint64, slots),
		live:     make([]bool, slots),
		used:     make([]bool, cfg.Segments),
		ghost:    make(map[int64]struct{}, cfg.GhostPages),
		ghostCap: cfg.GhostPages,
	}
	for i := range c.data {
		c.data[i] = make([]byte, cfg.PageSize)
	}
	return c, nil
}

// Capacity reports the page capacity of the log.
func (c *Cache) Capacity() int { return c.cfg.Segments * c.cfg.SegmentPages }

// Len reports the number of live cached pages.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idx)
}

// FlashStats snapshots the tier's own flash counters (programs, erases,
// GC copies — the latter provably zero). The write-amp a deployment
// charges to the tier is exactly Programs here.
func (c *Cache) FlashStats() flash.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.arr.Stats()
}

// Snapshot returns the counters and the flash counters (as FlashStats)
// taken under one lock hold, so counters that move together stay
// consistent: every admit is exactly one flash program, and two separate
// snapshots would let an Offer land between them.
func (c *Cache) Snapshot() (Stats, flash.Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats, c.arr.Stats()
}

// Offer presents one durably-persisting evicted page to the tier. strm is
// the eviction's temperature tag and pop the evicting block's observed
// popularity (buffer accesses) — together the admission signal. The
// payload is copied; admitted reports whether it entered the log. A
// false return with nil error is a policy bypass, not a failure.
func (c *Cache) Offer(lpn int64, stamp uint64, strm stream.Stream, pop int64, data []byte) (admitted bool, err error) {
	if len(data) != c.cfg.PageSize {
		return false, fmt.Errorf("victim: offer of %d bytes, want %d", len(data), c.cfg.PageSize)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, resident := c.idx[lpn]
	_, ghosted := c.ghost[lpn]
	switch {
	case !strm.VictimAdmissible():
		c.stats.Rejects++
		// Even a rejected class must not leave a stale entry behind; the
		// caller persists a newer version right after this bypass.
		c.invalidateOlderLocked(lpn, stamp)
		return false, nil
	case resident || pop >= c.cfg.MinReuse:
		// Admit: demonstrated reuse, or refreshing a page already here.
	case ghosted:
		c.stats.GhostAdmits++
	default:
		// An admissible-class eviction below the reuse floor gets a second
		// chance instead of a flat bypass: its LPN enters the ghost index
		// (metadata only — no flash write), so if the block churns back
		// through the buffer and evicts again inside the ghost window, that
		// repeat eviction IS the demonstrated reuse and earns admission.
		c.stats.Rejects++
		c.ghostAddLocked(lpn)
		c.invalidateOlderLocked(lpn, stamp)
		return false, nil
	}
	if err := c.appendLocked(lpn, stamp, strm, data); err != nil {
		c.stats.Faults++
		return false, err
	}
	c.stats.Admits++
	delete(c.ghost, lpn)
	return true, nil
}

// OfferFill presents a page the read path just fetched from its durable
// home after missing BOTH the buffer and this tier. Eviction-time offers
// (Offer) can only harvest dirty evictions — clean pages carry no payload
// once they leave the buffer — so this is the tier's only way to capture
// a read-dominated working set. Admission stays write-minimizing through
// the same ghost index: the first miss records the LPN as metadata and
// admits nothing; a repeat miss inside the ghost window proves the page
// is re-read faster than the buffer can hold it — exactly "evicted but
// still warm" — and earns the one flash write. Pages reclaimed from the
// log (whole-segment FIFO) re-enter via the same ghost loop.
//
// stamp must be the durable home's stamp for this payload at read time;
// the caller re-validates it after an admission (see the fill path in the
// cluster layer) so a persist racing the fill cannot strand stale data.
func (c *Cache) OfferFill(lpn int64, stamp uint64, data []byte) (admitted bool, err error) {
	if len(data) != c.cfg.PageSize {
		return false, fmt.Errorf("victim: fill offer of %d bytes, want %d", len(data), c.cfg.PageSize)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, resident := c.idx[lpn]; resident {
		// A concurrent admission beat us here; the cached copy serves the
		// next miss, so a second program would buy nothing.
		c.stats.Rejects++
		return false, nil
	}
	if _, ghosted := c.ghost[lpn]; !ghosted {
		c.stats.Rejects++
		c.ghostAddLocked(lpn)
		return false, nil
	}
	// A repeat miss is warm by definition — tag it so the tier's own flash
	// model segregates it with the other reused data.
	if err := c.appendLocked(lpn, stamp, stream.Warm, data); err != nil {
		c.stats.Faults++
		return false, err
	}
	c.stats.Admits++
	c.stats.FillAdmits++
	delete(c.ghost, lpn)
	return true, nil
}

// appendLocked writes one page at the log head, sealing and advancing the
// open segment as needed. An older live slot for the same lpn dies here.
func (c *Cache) appendLocked(lpn int64, stamp uint64, strm stream.Stream, data []byte) error {
	if old, ok := c.idx[lpn]; ok {
		if c.stamps[old] > stamp {
			return nil // a newer version is already cached; keep it
		}
		if err := c.killSlotLocked(old); err != nil {
			return err
		}
	}
	slot := c.head*c.cfg.SegmentPages + c.cursor
	if _, err := c.arr.ProgramPageTagged(slot, lpn, strm); err != nil {
		return err
	}
	c.used[c.head] = true
	copy(c.data[slot], data)
	c.lpns[slot], c.stamps[slot], c.live[slot] = lpn, stamp, true
	c.idx[lpn] = slot
	c.cursor++
	if c.cursor == c.cfg.SegmentPages {
		return c.advanceLocked()
	}
	return nil
}

// advanceLocked seals the full open segment (mirroring it to the log
// file, if one is attached) and opens the next segment in FIFO ring
// order, reclaiming it whole first: every live entry it still holds is
// evicted to the ghost index, every slot invalidated, and the block
// erased — the only reclamation the tier ever does, so no live page is
// ever copied (zero cache-internal GC, enforced by the flash model).
func (c *Cache) advanceLocked() error {
	c.seq++
	c.stats.Seals++
	c.mirrorLocked(c.head)
	next := (c.head + 1) % c.cfg.Segments
	if c.used[next] {
		base := next * c.cfg.SegmentPages
		for off := 0; off < c.cfg.SegmentPages; off++ {
			slot := base + off
			if !c.live[slot] {
				continue // superseded entries were invalidated at kill time
			}
			c.stats.Evictions++
			c.ghostAddLocked(c.lpns[slot])
			delete(c.idx, c.lpns[slot])
			c.live[slot] = false
			if err := c.arr.InvalidatePage(slot); err != nil {
				return err
			}
		}
		if _, err := c.arr.EraseBlock(next); err != nil {
			return err
		}
		c.used[next] = false
	}
	c.head, c.cursor = next, 0
	return nil
}

// mirrorLocked writes segment seg (header + payloads) to its fixed log
// offset. Best effort and never fsynced: a torn or lost mirror write
// costs nothing — the in-memory index is authoritative and the log is
// never read back for data.
func (c *Cache) mirrorLocked(seg int) {
	if c.cfg.Log == nil {
		return
	}
	sp, ps := c.cfg.SegmentPages, c.cfg.PageSize
	hdr := SegmentHeader{Seq: c.seq, Entries: make([]SlotRecord, sp)}
	base := seg * sp
	for off := 0; off < sp; off++ {
		hdr.Entries[off] = SlotRecord{LPN: c.lpns[base+off], Stamp: c.stamps[base+off]}
	}
	h := EncodeSegmentHeader(hdr)
	segBytes := len(h) + sp*ps
	if cap(c.sealBuf) < segBytes {
		c.sealBuf = make([]byte, segBytes)
	}
	buf := c.sealBuf[:segBytes]
	copy(buf, h)
	for off := 0; off < sp; off++ {
		copy(buf[len(h)+off*ps:], c.data[base+off])
	}
	c.cfg.Log.WriteAt(buf, int64(seg)*int64(segBytes)) //nolint:errcheck // cache mirror: loss is harmless by design
}

// killSlotLocked retires one live slot without reclaiming its segment.
func (c *Cache) killSlotLocked(slot int) error {
	c.live[slot] = false
	delete(c.idx, c.lpns[slot])
	return c.arr.InvalidatePage(slot)
}

func (c *Cache) ghostAddLocked(lpn int64) {
	if _, ok := c.ghost[lpn]; ok {
		return
	}
	for len(c.ghostFIFO) >= c.ghostCap {
		old := c.ghostFIFO[0]
		c.ghostFIFO = c.ghostFIFO[1:]
		delete(c.ghost, old)
	}
	c.ghost[lpn] = struct{}{}
	c.ghostFIFO = append(c.ghostFIFO, lpn)
}

// GetInto copies lpn's cached payload into dst (which must be PageSize
// bytes) and reports the cached version's stamp. A hit is a flash read
// of the slot in the tier's wear model.
func (c *Cache) GetInto(lpn int64, dst []byte) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.idx[lpn]
	if !ok {
		c.stats.Misses++
		return 0, false
	}
	if _, err := c.arr.ReadPage(slot); err != nil {
		c.stats.Faults++
		c.stats.Misses++
		return 0, false
	}
	copy(dst, c.data[slot])
	c.stats.Hits++
	return c.stamps[slot], true
}

// Contains reports whether lpn is cached (no hit/miss accounting).
func (c *Cache) Contains(lpn int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.idx[lpn]
	return ok
}

// InvalidateOlder drops the cached entry for lpn if its stamp is older
// than stamp. The cluster layer calls this before every durable persist
// it does not admit (cold evictions, degraded write-throughs, FlushAll,
// recovery and repair applies), which is what keeps the tier coherent:
// an entry never survives a newer durable version of its page.
func (c *Cache) InvalidateOlder(lpn int64, stamp uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidateOlderLocked(lpn, stamp)
}

func (c *Cache) invalidateOlderLocked(lpn int64, stamp uint64) {
	slot, ok := c.idx[lpn]
	if !ok || c.stamps[slot] >= stamp {
		return
	}
	if err := c.killSlotLocked(slot); err != nil {
		c.stats.Faults++
		return
	}
	c.stats.Invalidates++
}

// Drop unconditionally removes lpn from the cache and its ghost index
// (trim/discard semantics).
func (c *Cache) Drop(lpn int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.ghost, lpn)
	slot, ok := c.idx[lpn]
	if !ok {
		return
	}
	if err := c.killSlotLocked(slot); err != nil {
		c.stats.Faults++
		return
	}
	c.stats.Invalidates++
}

// Close releases the log mirror file, if any.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.Log == nil {
		return nil
	}
	err := c.cfg.Log.Close()
	c.cfg.Log = nil
	return err
}
