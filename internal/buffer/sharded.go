package buffer

import (
	"fmt"
	"slices"
	"sync"
)

// Sharded stripes a replacement policy over N independent shards so
// concurrent accessors stop serializing on one cache lock. Pages are
// routed by logical block number — shard = (lpn / pagesPerBlock) % N —
// which keeps every block (LAR's eviction unit) wholly inside one shard,
// so per-shard policy instances still see whole blocks and their flush
// units stay sequential.
//
// Sharded implements Cache: the aggregate methods take each shard's lock
// internally and are safe for concurrent use. Callers that need to couple
// a cache access with their own per-shard state (the live node pins dirty
// payloads and journal entries next to each shard) use the explicit
// LockShard/ShardCache/UnlockShard API and hold the shard lock across the
// whole compound operation.
//
// The shard locks are not reentrant: never call an aggregate method while
// holding a shard lock.
type Sharded struct {
	ppb   int
	cells []shardCell
}

var _ Cache = (*Sharded)(nil)

type shardCell struct {
	mu sync.Mutex
	c  Cache
	// Pad cells apart so neighbouring shard locks don't share a cache
	// line under write-heavy fan-out.
	_ [48]byte
}

// NewSharded builds an N-shard cache of the named policy with capPages
// split as evenly as possible across shards (earlier shards take the
// remainder). shards is clamped to [1, capPages] so every shard owns at
// least one page.
func NewSharded(policy string, capPages, pagesPerBlock, shards int) (*Sharded, error) {
	if capPages <= 0 {
		return nil, fmt.Errorf("buffer: sharded capacity %d", capPages)
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capPages {
		shards = capPages
	}
	s := &Sharded{ppb: pagesPerBlock, cells: make([]shardCell, shards)}
	for i := range s.cells {
		c, err := New(policy, splitCap(capPages, shards, i), pagesPerBlock)
		if err != nil {
			return nil, err
		}
		s.cells[i].c = c
	}
	return s, nil
}

// splitCap deals total pages across n shards: total/n each, with the
// first total%n shards taking one extra.
func splitCap(total, n, i int) int {
	cap := total / n
	if i < total%n {
		cap++
	}
	return cap
}

// NumShards reports the shard count.
func (s *Sharded) NumShards() int { return len(s.cells) }

// ShardIndex maps a page to its shard by logical block number.
func (s *Sharded) ShardIndex(lpn int64) int {
	return int(uint64(lpn/int64(s.ppb)) % uint64(len(s.cells)))
}

// LockShard acquires shard i's lock for a compound operation.
func (s *Sharded) LockShard(i int) { s.cells[i].mu.Lock() }

// UnlockShard releases shard i's lock.
func (s *Sharded) UnlockShard(i int) { s.cells[i].mu.Unlock() }

// ShardCache returns shard i's policy instance. The caller must hold
// LockShard(i) for the whole time it uses the returned cache.
func (s *Sharded) ShardCache(i int) Cache { return s.cells[i].c }

// Name identifies the underlying policy.
func (s *Sharded) Name() string { return s.cells[0].c.Name() }

// Capacity reports the total page capacity across shards.
func (s *Sharded) Capacity() int {
	total := 0
	for i := range s.cells {
		s.cells[i].mu.Lock()
		total += s.cells[i].c.Capacity()
		s.cells[i].mu.Unlock()
	}
	return total
}

// Len reports the total buffered page count.
func (s *Sharded) Len() int {
	total := 0
	for i := range s.cells {
		s.cells[i].mu.Lock()
		total += s.cells[i].c.Len()
		s.cells[i].mu.Unlock()
	}
	return total
}

// DirtyLen reports the total buffered dirty page count.
func (s *Sharded) DirtyLen() int {
	total := 0
	for i := range s.cells {
		s.cells[i].mu.Lock()
		total += s.cells[i].c.DirtyLen()
		s.cells[i].mu.Unlock()
	}
	return total
}

// Contains reports whether lpn is buffered.
func (s *Sharded) Contains(lpn int64) bool {
	cell := &s.cells[s.ShardIndex(lpn)]
	cell.mu.Lock()
	defer cell.mu.Unlock()
	return cell.c.Contains(lpn)
}

// IsDirty reports whether lpn is buffered and dirty.
func (s *Sharded) IsDirty(lpn int64) bool {
	cell := &s.cells[s.ShardIndex(lpn)]
	cell.mu.Lock()
	defer cell.mu.Unlock()
	return cell.c.IsDirty(lpn)
}

// ShardRun is a maximal sub-request whose pages all live in one shard.
type ShardRun struct {
	Shard int
	LPN   int64
	Pages int
}

// AppendRuns cuts a multi-page request at shard boundaries and appends the
// runs to runs. Blocks are never split, so each run is a whole number of
// (possibly partial first and last) block spans that map to the same
// shard. For a single shard the request comes back whole.
func (s *Sharded) AppendRuns(runs []ShardRun, lpn int64, pages int) []ShardRun {
	if pages <= 0 {
		return runs
	}
	start := lpn
	cur := s.ShardIndex(lpn)
	for p := lpn + 1; p < lpn+int64(pages); p++ {
		if si := s.ShardIndex(p); si != cur {
			runs = append(runs, ShardRun{Shard: cur, LPN: start, Pages: int(p - start)})
			start, cur = p, si
		}
	}
	return append(runs, ShardRun{Shard: cur, LPN: start, Pages: int(lpn + int64(pages) - start)})
}

// Access applies one request, splitting it across the shards it touches.
func (s *Sharded) Access(req Request) Result {
	var out Result
	var buf [4]ShardRun
	for _, run := range s.AppendRuns(buf[:0], req.LPN, req.Pages) {
		cell := &s.cells[run.Shard]
		cell.mu.Lock()
		r := cell.c.Access(Request{LPN: run.LPN, Pages: run.Pages, Write: req.Write})
		// The shard's result is reused by its next Access, which another
		// caller may make once the lock drops: copy it out under the lock.
		out.ReadMisses = append(out.ReadMisses, r.ReadMisses...)
		out.Flush = append(out.Flush, r.Flush...)
		cell.mu.Unlock()
		out.ReadHits += r.ReadHits
		out.WriteHits += r.WriteHits
	}
	return out
}

// MarkClean clears the dirty flag of a buffered page.
func (s *Sharded) MarkClean(lpn int64) {
	cell := &s.cells[s.ShardIndex(lpn)]
	cell.mu.Lock()
	cell.c.MarkClean(lpn)
	cell.mu.Unlock()
}

// Invalidate drops a buffered page without flushing it.
func (s *Sharded) Invalidate(lpn int64) bool {
	cell := &s.cells[s.ShardIndex(lpn)]
	cell.mu.Lock()
	defer cell.mu.Unlock()
	return cell.c.Invalidate(lpn)
}

// DirtyPages returns all dirty page numbers ascending across shards.
func (s *Sharded) DirtyPages() []int64 {
	var out []int64
	for i := range s.cells {
		s.cells[i].mu.Lock()
		out = append(out, s.cells[i].c.DirtyPages()...)
		s.cells[i].mu.Unlock()
	}
	slices.Sort(out)
	return out
}

// FlushAll evicts the entire contents of every shard.
func (s *Sharded) FlushAll() []FlushUnit {
	var out []FlushUnit
	for i := range s.cells {
		s.cells[i].mu.Lock()
		out = append(out, s.cells[i].c.FlushAll()...)
		s.cells[i].mu.Unlock()
	}
	return out
}

// Resize changes the total capacity, splitting it across shards the same
// way the constructor does and evicting per shard as needed.
func (s *Sharded) Resize(capPages int) []FlushUnit {
	if capPages < 0 {
		capPages = 0
	}
	var out []FlushUnit
	for i := range s.cells {
		s.cells[i].mu.Lock()
		out = append(out, s.cells[i].c.Resize(splitCap(capPages, len(s.cells), i))...)
		s.cells[i].mu.Unlock()
	}
	return out
}

// Stats aggregates per-shard counters.
func (s *Sharded) Stats() Stats {
	var out Stats
	for i := range s.cells {
		s.cells[i].mu.Lock()
		st := s.cells[i].c.Stats()
		s.cells[i].mu.Unlock()
		out.Accesses += st.Accesses
		out.HitPages += st.HitPages
		out.MissPages += st.MissPages
		out.Evictions += st.Evictions
		out.FlushPages += st.FlushPages
		out.CleanDrops += st.CleanDrops
	}
	return out
}
