package buffer

import (
	"slices"

	"flashcoop/internal/stream"
)

// LAROptions expose the design choices of the Locality-Aware Replacement
// policy for ablation; the defaults are the paper's design.
type LAROptions struct {
	// SeqAsOneAccess counts a multi-page access to a block as a single
	// popularity increment (paper Section III.B.2), so sequentially
	// accessed blocks stay unpopular and are evicted early.
	SeqAsOneAccess bool
	// FlushCleanWithVictim flushes a victim's clean pages alongside its
	// dirty pages so logically continuous pages land physically
	// continuous on the SSD (paper Section III.B.2).
	FlushCleanWithVictim bool
	// ClusterSmallWrites groups dirty pages from several tail blocks
	// into one block-sized scattered write (paper Section III.B.3).
	ClusterSmallWrites bool
	// BufferReads inserts read misses into the buffer (paper: LAR
	// services both reads and writes to preserve block-level locality).
	BufferReads bool
	// DirtyOrder selects, among equally unpopular blocks, the one with
	// the most dirty pages as victim (paper's second-level sort).
	DirtyOrder bool
}

// DefaultLAROptions returns the configuration described in the paper.
func DefaultLAROptions() LAROptions {
	return LAROptions{
		SeqAsOneAccess:       true,
		FlushCleanWithVictim: true,
		ClusterSmallWrites:   true,
		BufferReads:          true,
		DirtyOrder:           true,
	}
}

// LAR is the paper's Locality-Aware Replacement cache. Pages are grouped
// into logical blocks; blocks are ranked by popularity (first level) and by
// dirty-page count (second level), and the victim block is flushed as
// sequential runs.
type LAR struct {
	opts       LAROptions
	capPages   int
	lenPages   int
	dirtyPages int
	ppb        int

	blocks  map[int64]*larBlock
	buckets map[int64]*popBucket
	// popHeap is an indexed min-heap (by popularity) of the occupied
	// buckets: a bucket leaves it the moment it empties, so the top is
	// always the least popular buffered block's bucket.
	popHeap []*popBucket
	stats   Stats

	// touched is reused across Access calls to carry the blocks of the
	// request in flight into eviction (they are exempt from victimhood).
	touched []int64
	// deferred is evictToFit's reused set-aside list for those blocks.
	deferred []*larBlock
	// free and freeBuckets recycle evicted block descriptors (with their
	// page-state arrays) and emptied buckets (with their per-dirty lists),
	// so steady-state churn does not allocate.
	free        []*larBlock
	freeBuckets []*popBucket

	// flushBuf and missBuf back the Result that Access returns (its Flush
	// units and its ReadMisses); the next Access reuses them (see
	// Cache.Access). pageBuf is the arena chunk that flush units' Pages
	// are carved from. A page list is never rewritten once returned, so
	// units copied out of a Result keep valid pages; a full chunk is left
	// to the units that still point into it.
	flushBuf []FlushUnit
	missBuf  []int64
	pageBuf  []int64
}

// pageChunk is how many page numbers one pageBuf chunk holds (8 KB).
const pageChunk = 1024

// pageState is one page's residency inside its block: absent, buffered
// clean, or buffered dirty.
type pageState uint8

const (
	pageAbsent pageState = iota
	pageClean
	pageDirty
)

// larBlock tracks one logical block's buffered pages. Pages live in an
// offset-indexed state array rather than a map: per-page operations are
// array indexing, and an in-order offset walk yields the block's pages
// already sorted, so eviction never sorts.
type larBlock struct {
	blk   int64
	st    []pageState // page offset within the block -> state
	count int         // buffered pages (st != pageAbsent)
	dirty int
	pop   int64
	// prev and next link the block into its bucket's list for bucketDirty.
	prev, next *larBlock
	// bucket / bucketDirty are where the block is currently registered;
	// pop and dirty may run ahead during an access until reposition()
	// re-files the block.
	bucket      *popBucket
	bucketDirty int
}

// larList is an intrusive FIFO of blocks linked through larBlock.prev and
// next: head is the oldest insertion.
type larList struct{ head, tail *larBlock }

func (l *larList) pushBack(b *larBlock) {
	b.prev, b.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = b
	} else {
		l.head = b
	}
	l.tail = b
}

func (l *larList) remove(b *larBlock) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		l.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		l.tail = b.prev
	}
	b.prev, b.next = nil, nil
}

// popBucket holds the blocks of one popularity value, sub-ordered by dirty
// count. Because every access to a block bumps its popularity (moving it to
// another bucket), a block's dirty count is immutable while it resides in a
// bucket, so the per-dirty lists never need reordering.
type popBucket struct {
	pop      int64
	byDirty  []larList // indexed by dirty count, length ppb+1
	maxDirty int       // highest dirty count with a non-empty list
	count    int
	heapIdx  int // position in LAR.popHeap
}

var _ Cache = (*LAR)(nil)

// NewLAR constructs a LAR cache with the given page capacity, logical block
// size, and option set.
func NewLAR(capPages, pagesPerBlock int, opts LAROptions) *LAR {
	if capPages < 0 {
		capPages = 0
	}
	if pagesPerBlock < 1 {
		pagesPerBlock = 1
	}
	return &LAR{
		opts:     opts,
		capPages: capPages,
		ppb:      pagesPerBlock,
		blocks:   make(map[int64]*larBlock),
		buckets:  make(map[int64]*popBucket),
	}
}

// Name implements Cache.
func (c *LAR) Name() string { return PolicyLAR }

// Capacity implements Cache.
func (c *LAR) Capacity() int { return c.capPages }

// Len implements Cache.
func (c *LAR) Len() int { return c.lenPages }

// DirtyLen implements Cache.
func (c *LAR) DirtyLen() int { return c.dirtyPages }

// Stats implements Cache.
func (c *LAR) Stats() Stats { return c.stats }

// base returns the first LPN of block b.
func (c *LAR) base(b *larBlock) int64 { return b.blk * int64(c.ppb) }

// Contains implements Cache.
func (c *LAR) Contains(lpn int64) bool {
	b, ok := c.blocks[lpn/int64(c.ppb)]
	return ok && b.st[lpn%int64(c.ppb)] != pageAbsent
}

// IsDirty implements Cache.
func (c *LAR) IsDirty(lpn int64) bool {
	b, ok := c.blocks[lpn/int64(c.ppb)]
	return ok && b.st[lpn%int64(c.ppb)] == pageDirty
}

// block descriptor recycling ------------------------------------------

// newBlock returns a zeroed block descriptor for blk, reusing a recycled
// one when available.
func (c *LAR) newBlock(blk int64) *larBlock {
	if n := len(c.free); n > 0 {
		b := c.free[n-1]
		c.free = c.free[:n-1]
		st := b.st
		clear(st)
		*b = larBlock{blk: blk, st: st}
		return b
	}
	return &larBlock{blk: blk, st: make([]pageState, c.ppb)}
}

// release returns an unlinked block descriptor to the freelist. The caller
// must be done reading b.
func (c *LAR) release(b *larBlock) {
	c.free = append(c.free, b)
}

// bucket bookkeeping ---------------------------------------------------

// newBucket returns an empty bucket for pop, reusing a recycled one when
// available.
func (c *LAR) newBucket(pop int64) *popBucket {
	if n := len(c.freeBuckets); n > 0 {
		pb := c.freeBuckets[n-1]
		c.freeBuckets = c.freeBuckets[:n-1]
		pb.pop = pop
		return pb
	}
	return &popBucket{pop: pop, byDirty: make([]larList, c.ppb+1)}
}

func (c *LAR) bucketAdd(b *larBlock) {
	pb, ok := c.buckets[b.pop]
	if !ok {
		pb = c.newBucket(b.pop)
		c.buckets[b.pop] = pb
		c.heapPush(pb)
	}
	pb.byDirty[b.dirty].pushBack(b)
	b.bucket, b.bucketDirty = pb, b.dirty
	pb.count++
	if b.dirty > pb.maxDirty {
		pb.maxDirty = b.dirty
	}
}

func (c *LAR) bucketRemove(b *larBlock) {
	pb := b.bucket
	l := &pb.byDirty[b.bucketDirty]
	l.remove(b)
	b.bucket = nil
	pb.count--
	if pb.count == 0 {
		// Every list is empty now: the bucket leaves the heap and the
		// map at once and waits on the free list for its next pop.
		delete(c.buckets, pb.pop)
		c.heapRemove(pb.heapIdx)
		pb.maxDirty = 0
		c.freeBuckets = append(c.freeBuckets, pb)
		return
	}
	if l.head == nil && b.bucketDirty == pb.maxDirty {
		for pb.maxDirty > 0 && pb.byDirty[pb.maxDirty].head == nil {
			pb.maxDirty--
		}
	}
}

// heapLess orders popHeap by popularity; occupied buckets have distinct
// pops, so there are no ties.
func (c *LAR) heapLess(i, j int) bool { return c.popHeap[i].pop < c.popHeap[j].pop }

func (c *LAR) heapSwap(i, j int) {
	h := c.popHeap
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

// heapPush adds an occupied bucket to the min-heap.
func (c *LAR) heapPush(pb *popBucket) {
	pb.heapIdx = len(c.popHeap)
	c.popHeap = append(c.popHeap, pb)
	c.heapUp(pb.heapIdx)
}

// heapRemove deletes the bucket at heap position i.
func (c *LAR) heapRemove(i int) {
	n := len(c.popHeap) - 1
	if i != n {
		c.heapSwap(i, n)
	}
	c.popHeap = c.popHeap[:n]
	if i != n {
		c.heapDown(i)
		c.heapUp(i)
	}
}

func (c *LAR) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !c.heapLess(i, p) {
			return
		}
		c.heapSwap(i, p)
		i = p
	}
}

func (c *LAR) heapDown(i int) {
	n := len(c.popHeap)
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < n && c.heapLess(l, s) {
			s = l
		}
		if r < n && c.heapLess(r, s) {
			s = r
		}
		if s == i {
			return
		}
		c.heapSwap(i, s)
		i = s
	}
}

// reposition moves a block whose pop or dirty changed into its new bucket.
func (c *LAR) reposition(b *larBlock) {
	c.bucketRemove(b)
	c.bucketAdd(b)
}

// Access implements Cache.
func (c *LAR) Access(req Request) Result {
	var res Result
	c.stats.Accesses++
	if req.Pages <= 0 {
		return res
	}
	end := req.LPN + int64(req.Pages)
	c.touched = c.touched[:0]
	c.missBuf = c.missBuf[:0]
	// Zero the last result's units, so that entries past this result's
	// length never keep a spent page chunk alive.
	clear(c.flushBuf)
	for blk := req.LPN / int64(c.ppb); blk*int64(c.ppb) < end; blk++ {
		lo := blk * int64(c.ppb)
		hi := lo + int64(c.ppb)
		if lo < req.LPN {
			lo = req.LPN
		}
		if hi > end {
			hi = end
		}
		c.accessBlock(blk, lo, hi, req.Write, &res)
		c.touched = append(c.touched, blk)
	}
	// Blocks touched by the request in flight are exempt from eviction
	// (unless nothing else can be evicted): evicting the data the host
	// just handed us would defeat buffering entirely.
	c.flushBuf = c.evictToFit(c.flushBuf[:0], c.touched)
	if len(c.flushBuf) > 0 {
		res.Flush = c.flushBuf
	}
	if len(c.missBuf) > 0 {
		res.ReadMisses = c.missBuf
	}
	return res
}

// accessBlock applies the request's page span [lo,hi) inside block blk.
func (c *LAR) accessBlock(blk, lo, hi int64, write bool, res *Result) {
	b := c.blocks[blk]
	touched := int(hi - lo)
	inserted := false
	base := blk * int64(c.ppb)

	for lpn := lo; lpn < hi; lpn++ {
		off := int(lpn - base)
		if b != nil && b.st[off] != pageAbsent {
			c.stats.HitPages++
			if write {
				res.WriteHits++
				if b.st[off] == pageClean {
					b.st[off] = pageDirty
					b.dirty++
					c.dirtyPages++
				}
			} else {
				res.ReadHits++
			}
			continue
		}
		c.stats.MissPages++
		if !write {
			c.missBuf = append(c.missBuf, lpn)
			if !c.opts.BufferReads {
				continue
			}
		}
		if b == nil {
			b = c.newBlock(blk)
			c.blocks[blk] = b
			// Registered in a bucket below, after pop/dirty settle.
			inserted = true
		}
		if write {
			b.st[off] = pageDirty
			b.dirty++
			c.dirtyPages++
		} else {
			b.st[off] = pageClean
		}
		b.count++
		c.lenPages++
	}

	if b == nil {
		return // read misses with read-buffering disabled
	}
	if c.opts.SeqAsOneAccess {
		b.pop++
	} else {
		b.pop += int64(touched)
	}
	if inserted {
		c.bucketAdd(b)
	} else {
		c.reposition(b)
	}
}

// containsBlk reports whether blk appears in the (short) exclusion list.
func containsBlk(s []int64, blk int64) bool {
	for _, v := range s {
		if v == blk {
			return true
		}
	}
	return false
}

// evictToFit evicts victim blocks until the cache fits its capacity,
// appending their flush units to units. Blocks in exclude are set aside
// and only evicted if nothing else remains.
func (c *LAR) evictToFit(units []FlushUnit, exclude []int64) []FlushUnit {
	deferred := c.deferred[:0]
	ignoreExclude := false
	for c.lenPages > c.capPages && len(c.blocks) > 0 {
		b := c.victim()
		if b == nil {
			if len(deferred) == 0 {
				break
			}
			// Only excluded blocks remain: put them back and
			// allow evicting them after all.
			for _, d := range deferred {
				c.bucketAdd(d)
			}
			deferred = deferred[:0]
			ignoreExclude = true
			continue
		}
		if !ignoreExclude && containsBlk(exclude, b.blk) {
			c.bucketRemove(b)
			deferred = append(deferred, b)
			continue
		}
		units = c.evictBlock(units, b, exclude)
	}
	for _, d := range deferred {
		c.bucketAdd(d)
	}
	c.deferred = deferred[:0]
	return units
}

// victim returns the block to evict next: least popular first, then (when
// DirtyOrder is set) most dirty pages, then oldest insertion.
func (c *LAR) victim() *larBlock {
	if len(c.popHeap) == 0 {
		return nil
	}
	pb := c.popHeap[0]
	if !c.opts.DirtyOrder {
		// Popularity-only ablation: take the lowest-numbered block among
		// the heads of the bucket's ppb+1 per-dirty lists.
		var oldest *larBlock
		for _, l := range pb.byDirty {
			if b := l.head; b != nil && (oldest == nil || b.blk < oldest.blk) {
				oldest = b
			}
		}
		return oldest
	}
	return pb.byDirty[pb.maxDirty].head
}

// removeBlock unlinks a block entirely and updates page accounting.
func (c *LAR) removeBlock(b *larBlock) {
	c.bucketRemove(b)
	delete(c.blocks, b.blk)
	c.lenPages -= b.count
	c.dirtyPages -= b.dirty
}

// streamFor derives the temperature tag of an evicted block from the very
// signals LAR already ranks victims by. A block accessed exactly once whose
// whole span sits buffered contiguously is a sequential streaming write
// (SeqAsOneAccess keeps such blocks at pop 1); other once-touched blocks
// are cold. Moderately re-referenced blocks are warm, and blocks that
// survived several re-references before finally losing the popularity race
// are hot — their pages are the likeliest to be overwritten again soon, so
// segregating them from cold data is what saves erases.
func (c *LAR) streamFor(pop int64, fullBlock bool) stream.Stream {
	switch {
	case pop <= 1 && fullBlock:
		return stream.Seq
	case pop <= 1:
		return stream.Cold
	case pop < 4:
		return stream.Warm
	default:
		return stream.Hot
	}
}

// evictBlock evicts block b (possibly clustering further tail blocks into
// the same flush) and appends its flush units to units.
func (c *LAR) evictBlock(units []FlushUnit, b *larBlock, exclude []int64) []FlushUnit {
	c.removeBlock(b)

	if b.dirty == 0 {
		// A clean victim is discarded: the SSD already has this data.
		c.stats.CleanDrops += int64(b.count)
		c.release(b)
		return units
	}

	flushCount := b.dirty
	if c.opts.FlushCleanWithVictim {
		flushCount = b.count
	}
	if c.opts.ClusterSmallWrites && flushCount <= c.ppb/4 {
		return append(units, c.clusterFlush(b, exclude))
	}
	c.reservePages()
	start := len(c.pageBuf)
	c.appendVictimPages(b)
	pages := c.pageBuf[start:]

	base := c.base(b)
	strm := c.streamFor(b.pop, b.count == c.ppb)
	for i := 0; i < len(pages); {
		j, dirty := i, 0
		for ; j < len(pages) && pages[j] == pages[i]+int64(j-i); j++ {
			if b.st[pages[j]-base] == pageDirty {
				dirty++
			}
		}
		units = append(units, FlushUnit{Pages: pages[i:j:j], Dirty: dirty, Contiguous: true, Stream: strm, Pop: b.pop})
		c.stats.Evictions++
		c.stats.FlushPages += int64(j - i)
		i = j
	}
	c.release(b)
	return units
}

// reservePages makes room in pageBuf for one flush unit's pages (at most
// a block's worth), starting a fresh chunk when the current one is full.
func (c *LAR) reservePages() {
	if cap(c.pageBuf)-len(c.pageBuf) < c.ppb {
		c.pageBuf = make([]int64, 0, max(pageChunk, c.ppb))
	}
}

// appendVictimPages appends to pageBuf the pages of a dirty victim that
// will be flushed: the whole block when FlushCleanWithVictim is set,
// otherwise dirty only. The offset walk yields them in ascending order.
func (c *LAR) appendVictimPages(b *larBlock) {
	base := c.base(b)
	if c.opts.FlushCleanWithVictim {
		for off, st := range b.st {
			if st != pageAbsent {
				c.pageBuf = append(c.pageBuf, base+int64(off))
			}
		}
		return
	}
	for off, st := range b.st {
		if st == pageDirty {
			c.pageBuf = append(c.pageBuf, base+int64(off))
		}
	}
	c.stats.CleanDrops += int64(b.count - b.dirty)
}

// clusterFlush implements the paper's small-write clustering: the victim's
// dirty pages are combined with dirty pages of further tail blocks (of the
// same least popularity) into a single block-sized scattered write.
func (c *LAR) clusterFlush(b *larBlock, exclude []int64) FlushUnit {
	// Clustering uses dirty pages only; clean pages of participants are
	// dropped (they are not worth rewriting scattered).
	c.reservePages()
	start := len(c.pageBuf)
	dirtyTotal := 0
	take := func(blk *larBlock) {
		base := c.base(blk)
		for off, st := range blk.st {
			if st == pageDirty {
				c.pageBuf = append(c.pageBuf, base+int64(off))
			}
		}
		dirtyTotal += blk.dirty
		c.stats.CleanDrops += int64(blk.count - blk.dirty)
		c.release(blk)
	}
	pop := b.pop
	take(b)
	for len(c.pageBuf)-start < c.ppb && len(c.blocks) > 0 {
		next := c.victim()
		if next == nil || next.pop != pop || next.dirty == 0 ||
			next.dirty > c.ppb/4 || len(c.pageBuf)-start+next.dirty > c.ppb ||
			containsBlk(exclude, next.blk) {
			break
		}
		c.removeBlock(next)
		take(next)
	}
	cluster := c.pageBuf[start:len(c.pageBuf):len(c.pageBuf)]
	slices.Sort(cluster)
	c.stats.Evictions++
	c.stats.FlushPages += int64(len(cluster))
	// Clustered leftovers are by construction sparse, least-popular tail
	// data: tag the whole scattered write cold.
	return FlushUnit{Pages: cluster, Dirty: dirtyTotal, Contiguous: false, Stream: stream.Cold, Pop: pop}
}

// MarkClean implements Cache.
func (c *LAR) MarkClean(lpn int64) {
	b, ok := c.blocks[lpn/int64(c.ppb)]
	if !ok {
		return
	}
	off := lpn % int64(c.ppb)
	if b.st[off] != pageDirty {
		return
	}
	b.st[off] = pageClean
	b.dirty--
	c.dirtyPages--
	c.reposition(b)
}

// sortedBlocks returns the buffered block numbers in ascending order.
func (c *LAR) sortedBlocks() []int64 {
	blks := make([]int64, 0, len(c.blocks))
	for blk := range c.blocks {
		blks = append(blks, blk)
	}
	slices.Sort(blks)
	return blks
}

// DirtyPages implements Cache.
func (c *LAR) DirtyPages() []int64 {
	out := make([]int64, 0, c.dirtyPages)
	for _, blk := range c.sortedBlocks() {
		b := c.blocks[blk]
		base := c.base(b)
		for off, st := range b.st {
			if st == pageDirty {
				out = append(out, base+int64(off))
			}
		}
	}
	return out
}

// FlushAll implements Cache: every dirty page is flushed as per-block
// sequential runs; clean pages are dropped.
func (c *LAR) FlushAll() []FlushUnit {
	var units []FlushUnit
	for _, blk := range c.sortedBlocks() {
		b := c.blocks[blk]
		base := c.base(b)
		dirty := make([]int64, 0, b.dirty)
		for off, st := range b.st {
			if st == pageDirty {
				dirty = append(dirty, base+int64(off))
			}
		}
		c.stats.CleanDrops += int64(b.count - len(dirty))
		strm := c.streamFor(b.pop, b.count == c.ppb)
		for _, run := range runsOf(dirty) {
			units = append(units, FlushUnit{Pages: run, Dirty: len(run), Contiguous: true, Stream: strm, Pop: b.pop})
			c.stats.Evictions++
			c.stats.FlushPages += int64(len(run))
		}
	}
	for _, b := range c.blocks {
		c.release(b)
	}
	for _, pb := range c.popHeap {
		clear(pb.byDirty)
		pb.count, pb.maxDirty = 0, 0
		c.freeBuckets = append(c.freeBuckets, pb)
	}
	clear(c.blocks)
	clear(c.buckets)
	c.popHeap = c.popHeap[:0]
	c.lenPages, c.dirtyPages = 0, 0
	return units
}

// Resize implements Cache.
func (c *LAR) Resize(capPages int) []FlushUnit {
	if capPages < 0 {
		capPages = 0
	}
	c.capPages = capPages
	return c.evictToFit(nil, nil)
}

// Invalidate implements Cache: the page is dropped without flushing; an
// emptied block leaves the structure entirely.
func (c *LAR) Invalidate(lpn int64) bool {
	b, ok := c.blocks[lpn/int64(c.ppb)]
	if !ok {
		return false
	}
	off := lpn % int64(c.ppb)
	st := b.st[off]
	if st == pageAbsent {
		return false
	}
	b.st[off] = pageAbsent
	b.count--
	c.lenPages--
	if st == pageDirty {
		b.dirty--
		c.dirtyPages--
	}
	if b.count == 0 {
		// The block is already empty (zero pages, zero dirty), so
		// removeBlock only unlinks it from the bucket structures.
		c.removeBlock(b)
		c.release(b)
		return true
	}
	if st == pageDirty {
		c.reposition(b)
	}
	return true
}
