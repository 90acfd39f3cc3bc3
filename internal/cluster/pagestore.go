package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"flashcoop/internal/faultfs"
)

// ErrSyncPoisoned is returned by every put/flush on a store section whose
// fsync has failed once. Per fsyncgate semantics, a failed fsync means the
// kernel may already have DROPPED the dirty pages — a retried fsync then
// "succeeds" while covering nothing, so retrying and pretending is the one
// unforgivable response. The section latches the failure permanently:
// writes fail fast, the lifecycle is driven to Degraded, and only a
// process restart (which rebuilds state from the medium and its peers)
// clears it.
var ErrSyncPoisoned = errors.New("cluster: store section poisoned by failed fsync")

// section is one stripe of the durable medium behind a live node: what
// survives once a page has been flushed from the cooperative buffer. Each
// page carries its write stamp (the node's monotonic per-page version) so
// that crash recovery can tell a stale peer backup from newer durable
// data. A node's store is a shardedStore of sections, one per buffer
// shard.
//
// Implementations are safe for concurrent use: reads, repair, and
// recovery reach a section beside its shard's evictor, so sections
// synchronize internally instead of leaning on a caller's lock. getInto
// writes into a buffer the caller owns and never hands out the store's own
// memory — mutating a read result can never corrupt the store.
type section interface {
	// getInto copies the stored payload for lpn into dst (one page) and
	// reports true. It reports false, leaving dst untouched, when lpn is
	// absent or, for checksummed stores, when the record fails
	// verification: unverified bytes never reach dst.
	getInto(lpn int64, dst []byte) bool
	// getStamp returns the stored write stamp for lpn.
	getStamp(lpn int64) (uint64, bool)
	// put stores the payload (exactly one page) with its write stamp.
	put(lpn int64, data []byte, stamp uint64) error
	// putRun stores a run of consecutive-LPN pages (parallel slices) with
	// the same semantics as put page by page; file sections coalesce
	// records that land in adjacent slots into single pwrites.
	putRun(lpns []int64, data [][]byte, stamps []uint64) error
	// remove deletes the page (TRIM).
	remove(lpn int64) error
	// pages reports how many pages are stored.
	pages() int
	// maxStamp reports the largest stamp currently stored; a restarted
	// node resumes its stamp counter from here.
	maxStamp() uint64
	// flush makes every preceding put durable (fsync in sync mode). puts
	// are batched between flushes so an evictor draining a whole flush
	// unit pays one sync, not one per page.
	flush() error
	close() error
	// verify re-reads and checksums lpn's record without mutating any
	// counters, reporting whether the local durable copy is intact.
	// Recovery and repair use it to decide whether a stamp comparison
	// against a peer copy can be trusted.
	verify(lpn int64) bool
	// takeCorrupt drains the LPNs of records that failed verification at
	// load time (their lpn self-description was still parseable) —
	// repair candidates for the ring.
	takeCorrupt() []int64
	// corruptCount reports how many corrupt records have been detected
	// over the section's lifetime (load + runtime).
	corruptCount() int64
	// poisoned reports whether a failed fsync has latched the section
	// (see ErrSyncPoisoned).
	poisoned() bool
}

// memStore is the default in-memory medium (contents die with the process,
// like the simulator's SSD).
type memStore struct {
	mu  sync.Mutex
	m   map[int64]memPage
	max uint64
}

type memPage struct {
	data  []byte
	stamp uint64
}

func newMemStore() *memStore { return &memStore{m: make(map[int64]memPage)} }

func (s *memStore) getInto(lpn int64, dst []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.m[lpn]
	if ok {
		copy(dst, p.data)
	}
	return ok
}

func (s *memStore) getStamp(lpn int64) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.m[lpn]
	return p.stamp, ok
}

func (s *memStore) put(lpn int64, data []byte, stamp uint64) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[lpn] = memPage{data: cp, stamp: stamp}
	if stamp > s.max {
		s.max = stamp
	}
	return nil
}

func (s *memStore) remove(lpn int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, lpn)
	return nil
}

func (s *memStore) pages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func (s *memStore) maxStamp() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max
}

func (s *memStore) putRun(lpns []int64, data [][]byte, stamps []uint64) error {
	for i, lpn := range lpns {
		if err := s.put(lpn, data[i], stamps[i]); err != nil {
			return err
		}
	}
	return nil
}

func (s *memStore) flush() error { return nil }

func (s *memStore) close() error { return nil }

// A memStore holds no integrity metadata: every record is intact and the
// section can never be poisoned.
func (s *memStore) verify(int64) bool    { return true }
func (s *memStore) takeCorrupt() []int64 { return nil }
func (s *memStore) corruptCount() int64  { return 0 }
func (s *memStore) poisoned() bool       { return false }

// On-disk format. The file opens with a 16-byte header:
//
//	[4B magic "FCPS"][1B version][3B zero][4B BE page size][4B zero]
//
// followed by fixed-size slots of a 24-byte record header plus the page
// payload:
//
//	[4B BE CRC32-C][1B flags][3B zero][8B BE lpn][8B BE stamp][payload]
//
// The CRC (Castagnoli, same table the v2 wire frames use) covers bytes
// 4..24+pageSize of a live record and bytes 4..24 of a free one (flags
// bit 0 set, lpn = -1, stamp = 0), so a free slot's stale payload bytes
// never count against it. The lpn in the record is self-description: a
// read that returns a VALID record for the WRONG lpn (a misdirected
// write) fails verification just like a torn one. A file without the
// header is refused at open, never reinterpreted.
var storeMagic = [4]byte{'F', 'C', 'P', 'S'}

const (
	storeVersion    = 1
	storeHeaderSize = 16
	slotHeaderSize  = 24
	slotFlagFree    = 1 // flags bit 0: record is a free slot
)

// freeSlotMarker marks a deleted record (the lpn field of a free slot).
const freeSlotMarker = int64(-1)

// encodeSlot fills rec (slotHeaderSize+len(payload) bytes) with a live record.
func encodeSlot(rec []byte, lpn int64, stamp uint64, payload []byte) {
	rec[4], rec[5], rec[6], rec[7] = 0, 0, 0, 0
	binary.BigEndian.PutUint64(rec[8:16], uint64(lpn))
	binary.BigEndian.PutUint64(rec[16:24], stamp)
	copy(rec[slotHeaderSize:], payload)
	binary.BigEndian.PutUint32(rec[:4], crc32.Checksum(rec[4:], castagnoli))
}

// encodeFreeSlot fills hdr (at least slotHeaderSize bytes) with a free record
// header; payload bytes beyond it are not covered by the CRC.
func encodeFreeSlot(hdr []byte) {
	hdr[4], hdr[5], hdr[6], hdr[7] = slotFlagFree, 0, 0, 0
	marker := freeSlotMarker // via a variable: uint64(-1) is a constant overflow
	binary.BigEndian.PutUint64(hdr[8:16], uint64(marker))
	binary.BigEndian.PutUint64(hdr[16:24], 0)
	binary.BigEndian.PutUint32(hdr[:4], crc32.Checksum(hdr[4:slotHeaderSize], castagnoli))
}

// decodeSlot validates one record carrying a pageSize-byte payload.
// ok=false means the record is torn, bit-rotted, or malformed; free
// reports a (valid) free slot.
func decodeSlot(rec []byte, pageSize int) (lpn int64, stamp uint64, free, ok bool) {
	if len(rec) != slotHeaderSize+pageSize {
		return 0, 0, false, false
	}
	if rec[4]&^byte(slotFlagFree) != 0 || rec[5]|rec[6]|rec[7] != 0 {
		return 0, 0, false, false
	}
	crc := binary.BigEndian.Uint32(rec[:4])
	free = rec[4]&slotFlagFree != 0
	cover := rec[4:]
	if free {
		cover = rec[4:slotHeaderSize]
	}
	if crc32.Checksum(cover, castagnoli) != crc {
		return 0, 0, false, false
	}
	lpn = int64(binary.BigEndian.Uint64(rec[8:16]))
	stamp = binary.BigEndian.Uint64(rec[16:24])
	if free {
		if lpn != freeSlotMarker || stamp != 0 {
			return 0, 0, true, false
		}
		return lpn, stamp, true, true
	}
	if lpn < 0 {
		return 0, 0, false, false
	}
	return lpn, stamp, false, true
}

// fileStore persists pages in a single slotted file so a restarted daemon
// keeps its data (see the format comment above). The index is rebuilt
// by scanning — and checksumming — every record at open; corrupt records
// are freed, counted, and their self-described LPNs queued as repair
// candidates.
type fileStore struct {
	mu       sync.Mutex
	f        faultfs.File
	path     string
	pageSize int
	index    map[int64]fileSlot // lpn -> slot + cached stamp
	free     []int64            // reusable slots
	slots    int64              // total slots in the file
	max      uint64             // largest stamp seen
	sync     bool               // fsync on flush
	puts     uint64             // write generation: bumped by every put
	suspects []int64            // load-time corrupt records with a parseable lpn

	// corrupt counts records that failed verification (load + runtime,
	// each record at most once until repaired).
	corrupt atomic.Int64
	// onCorrupt, when set, is invoked (outside mu) with the lpn of each
	// newly detected corrupt record — the node hooks this to queue ring
	// repair. Set before the node's goroutines start.
	onCorrupt func(lpn int64)

	// Fsync-poison latch (see ErrSyncPoisoned): once an fsync fails, the
	// section permanently fails puts and flushes. perr is stored before
	// poisonFlag flips so any reader that observes the flag also observes
	// the error. onPoison fires exactly once, outside all store locks.
	poisonFlag atomic.Bool
	perr       atomic.Value // error
	poisonOnce sync.Once
	onPoison   func(err error)

	// syncMu serializes fsync, deliberately apart from mu: holding the
	// record lock across f.Sync would stall every put (and getInto) behind the
	// sync, re-serializing exactly the put/fsync overlap the group-commit
	// pipeline depends on. synced is the put generation the last completed
	// sync covered; a flush whose target generation is already covered
	// returns without another fsync — concurrent flushes group-commit at
	// the file level.
	syncMu sync.Mutex
	synced uint64 // guarded by syncMu

	// recPool recycles the whole-record buffers (*[]byte of recordSize
	// bytes) that getInto and verify pread into, so a read verifies its
	// record without allocating one.
	recPool sync.Pool
}

type fileSlot struct {
	slot  int64
	stamp uint64
	bad   bool // record failed verification; awaiting repair
}

const fileStoreName = "pagestore.dat"

// storeDatasync is datasync through the faultfs layer: real files keep the
// fdatasync fast path, injected ones go through their Sync (where the
// fault schedule lives).
func storeDatasync(f faultfs.File) error {
	if of, ok := f.(*faultfs.OSFile); ok {
		return datasync(of.File)
	}
	return f.Sync()
}

// newFileStore opens (creating if needed) the page store in dir.
func newFileStore(dir string, pageSize int, syncWrites bool) (*fileStore, error) {
	return newFileStoreAt(dir, fileStoreName, pageSize, syncWrites)
}

// newFileStoreAt opens a page store under an explicit file name; the
// sharded store gives each shard its own file so per-shard evictors fsync
// independent streams instead of convoying on one inode.
func newFileStoreAt(dir, name string, pageSize int, syncWrites bool) (*fileStore, error) {
	return newFileStoreFS(faultfs.OS(), dir, name, pageSize, syncWrites)
}

// newFileStoreFS opens a page store through an explicit filesystem layer —
// faultfs.OS() in production, a faultfs.Injector under chaos.
func newFileStoreFS(fsys faultfs.FS, dir, name string, pageSize int, syncWrites bool) (*fileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: pagestore dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := fsys.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: pagestore: %w", err)
	}
	s := &fileStore{
		f:        f,
		path:     path,
		pageSize: pageSize,
		index:    make(map[int64]fileSlot),
		sync:     syncWrites,
	}
	s.recPool.New = func() any { rec := make([]byte, s.recordSize()); return &rec }
	if err := s.load(); err != nil {
		s.f.Close()
		return nil, err
	}
	return s, nil
}

func (s *fileStore) recordSize() int64 { return int64(slotHeaderSize + s.pageSize) }

func (s *fileStore) slotOff(slot int64) int64 { return storeHeaderSize + slot*s.recordSize() }

func (s *fileStore) writeHeader() error {
	var hdr [storeHeaderSize]byte
	copy(hdr[:4], storeMagic[:])
	hdr[4] = storeVersion
	binary.BigEndian.PutUint32(hdr[8:12], uint32(s.pageSize))
	if _, err := s.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("cluster: pagestore header: %w", err)
	}
	return nil
}

// load rebuilds the index from the slotted file. A file that does not
// open with the store header is refused untouched: scanning it as slots
// would free every record as corrupt.
func (s *fileStore) load() error {
	size, err := s.f.Size()
	if err != nil {
		return fmt.Errorf("cluster: pagestore: %w", err)
	}
	if size == 0 {
		return s.writeHeader()
	}
	var hdr [storeHeaderSize]byte
	if size >= storeHeaderSize {
		if _, err := s.f.ReadAt(hdr[:], 0); err != nil {
			return fmt.Errorf("cluster: pagestore load: %w", err)
		}
	}
	if size < storeHeaderSize || !bytes.Equal(hdr[:4], storeMagic[:]) {
		return fmt.Errorf("cluster: pagestore %s: no %q header (not a page store file)", s.path, storeMagic[:])
	}
	if hdr[4] != storeVersion {
		return fmt.Errorf("cluster: pagestore %s: unsupported format version %d", s.path, hdr[4])
	}
	if ps := int(binary.BigEndian.Uint32(hdr[8:12])); ps != s.pageSize {
		return fmt.Errorf("cluster: pagestore %s: page size %d on disk, opened with %d (page size or format mismatch?)",
			s.path, ps, s.pageSize)
	}
	return s.loadRecords(size)
}

// loadRecords scans and verifies every record. Corrupt records are counted,
// their slot freed (a clean free header is written over them so later
// scrub passes stay quiet), and their self-described lpn — when it parses
// — queued as a repair suspect for the ring. A trailing partial record
// (torn append at crash) is normalized into a free slot the same way.
func (s *fileStore) loadRecords(size int64) error {
	rs := s.recordSize()
	body := size - storeHeaderSize
	s.slots = body / rs
	tail := body % rs
	rec := make([]byte, rs)
	for slot := int64(0); slot < s.slots; slot++ {
		if _, err := s.f.ReadAt(rec, s.slotOff(slot)); err != nil {
			return fmt.Errorf("cluster: pagestore load: %w", err)
		}
		lpn, stamp, free, ok := decodeSlot(rec, s.pageSize)
		switch {
		case ok && free:
			s.free = append(s.free, slot)
		case ok:
			s.index[lpn] = fileSlot{slot: slot, stamp: stamp}
			if stamp > s.max {
				s.max = stamp
			}
		default:
			s.corrupt.Add(1)
			if raw := int64(binary.BigEndian.Uint64(rec[8:16])); raw >= 0 {
				s.suspects = append(s.suspects, raw)
			}
			s.freeSlotOnDisk(slot)
			s.free = append(s.free, slot)
		}
	}
	if tail > 0 {
		s.corrupt.Add(1)
		s.freeSlotOnDisk(s.slots)
		s.free = append(s.free, s.slots)
		s.slots++
	}
	return nil
}

// freeSlotOnDisk best-effort overwrites slot with a full-size clean free
// record, so a once-detected corrupt slot is not re-detected every pass.
func (s *fileStore) freeSlotOnDisk(slot int64) {
	rec := make([]byte, s.recordSize())
	encodeFreeSlot(rec)
	s.f.WriteAt(rec, s.slotOff(slot)) //nolint:errcheck // best effort
}

// getInto copies lpn's verified payload into dst. The record is read into
// a pooled buffer and checked there; only a record that passes reaches
// dst. A record that fails its checksum or does not self-describe as
// (lpn, indexed stamp) — a torn, misdirected, or bit-rotted write —
// reports false, is reported once through onCorrupt and is KEPT in the
// index: its cached stamp still ranks repair candidates, and a later put
// (repair or fresh write) heals the slot.
//
// The pread runs with s.mu RELEASED: a read miss stalled in disk latency
// must not serialize every put to the section behind it (the off-lock
// read path depends on this store-level concurrency too). Dropping the
// lock means a concurrent put or remove can rewrite or free the slot
// mid-read; the verdict is therefore re-validated against the index
// afterwards, and a snapshot that changed mid-read retries instead of
// being misreported as corruption. The retry terminates because each
// iteration means a concurrent writer advanced the entry.
func (s *fileStore) getInto(lpn int64, dst []byte) bool {
	recp := s.recPool.Get().(*[]byte)
	defer s.recPool.Put(recp)
	rec := *recp
	for {
		s.mu.Lock()
		fs, ok := s.index[lpn]
		f := s.f
		s.mu.Unlock()
		if !ok {
			return false
		}
		_, rerr := f.ReadAt(rec, s.slotOff(fs.slot))
		var glpn int64
		var gstamp uint64
		var free, okRec bool
		if rerr == nil {
			glpn, gstamp, free, okRec = decodeSlot(rec, s.pageSize)
		}
		var report func(int64)
		s.mu.Lock()
		cur, ok := s.index[lpn]
		if !ok {
			s.mu.Unlock()
			return false // removed mid-read; the torn view is meaningless
		}
		if cur.slot != fs.slot || cur.stamp != fs.stamp {
			s.mu.Unlock()
			continue // rewritten mid-read; judge the new record instead
		}
		switch {
		case rerr != nil:
			// Unreadable (I/O error): possibly transient, so no bad-mark,
			// but still a repair candidate.
			report = s.onCorrupt
		case !okRec || free || glpn != lpn || gstamp != cur.stamp:
			if !cur.bad {
				cur.bad = true
				s.index[lpn] = cur
				s.corrupt.Add(1)
				report = s.onCorrupt
			}
		default:
			if cur.bad {
				cur.bad = false
				s.index[lpn] = cur
			}
			s.mu.Unlock()
			copy(dst, rec[slotHeaderSize:])
			return true
		}
		s.mu.Unlock()
		if report != nil {
			report(lpn)
		}
		return false
	}
}

// verify reports whether lpn's durable record is present and intact,
// without touching corruption counters.
func (s *fileStore) verify(lpn int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs, ok := s.index[lpn]
	if !ok {
		return false
	}
	recp := s.recPool.Get().(*[]byte)
	defer s.recPool.Put(recp)
	rec := *recp
	if _, err := s.f.ReadAt(rec, s.slotOff(fs.slot)); err != nil {
		return false
	}
	glpn, gstamp, free, okRec := decodeSlot(rec, s.pageSize)
	return okRec && !free && glpn == lpn && gstamp == fs.stamp
}

func (s *fileStore) takeCorrupt() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.suspects
	s.suspects = nil
	return out
}

func (s *fileStore) corruptCount() int64 { return s.corrupt.Load() }

func (s *fileStore) poisoned() bool { return s.poisonFlag.Load() }

// poison latches a permanent sync failure (see ErrSyncPoisoned) and
// returns the latched error.
func (s *fileStore) poison(cause error) error {
	s.poisonOnce.Do(func() {
		err := fmt.Errorf("%w: %s: %v", ErrSyncPoisoned, s.path, cause)
		s.perr.Store(err)
		s.poisonFlag.Store(true)
		if s.onPoison != nil {
			s.onPoison(err)
		}
	})
	return s.poisonErr()
}

func (s *fileStore) poisonErr() error {
	if e, _ := s.perr.Load().(error); e != nil {
		return e
	}
	return ErrSyncPoisoned
}

// scrubRange verifies up to maxSlots records starting at slot start (one
// lock hold — keep batches modest). It returns the next cursor (0 after
// wrapping), how many slots were checked, and the LPNs of every indexed
// record currently failing verification; newly detected ones are also
// counted and reported through onCorrupt. Unindexed slots holding invalid
// bytes (crash remnants on freed slots) are silently rewritten as clean
// free records.
func (s *fileStore) scrubRange(start int64, maxSlots int) (next int64, checked int, bad []int64) {
	s.mu.Lock()
	total := s.slots
	if start >= total {
		start = 0
	}
	if total == 0 {
		s.mu.Unlock()
		return 0, 0, nil
	}
	end := start + int64(maxSlots)
	if end > total {
		end = total
	}
	owner := make(map[int64]int64, maxSlots) // slot -> lpn, batch only
	for lpn, fs := range s.index {
		if fs.slot >= start && fs.slot < end {
			owner[fs.slot] = lpn
		}
	}
	var newly []int64
	rec := make([]byte, s.recordSize())
	for slot := start; slot < end; slot++ {
		checked++
		lpn, owned := owner[slot]
		_, rerr := s.f.ReadAt(rec, s.slotOff(slot))
		var glpn int64
		var gstamp uint64
		var free, okRec bool
		if rerr == nil {
			glpn, gstamp, free, okRec = decodeSlot(rec, s.pageSize)
		}
		if !owned {
			if rerr == nil && !(okRec && free) {
				s.freeSlotOnDisk(slot)
			}
			continue
		}
		fs := s.index[lpn]
		if rerr == nil && okRec && !free && glpn == lpn && gstamp == fs.stamp {
			if fs.bad {
				fs.bad = false
				s.index[lpn] = fs
			}
			continue
		}
		if !fs.bad {
			fs.bad = true
			s.index[lpn] = fs
			s.corrupt.Add(1)
			newly = append(newly, lpn)
		}
		bad = append(bad, lpn)
	}
	next = end
	if next >= total {
		next = 0
	}
	cb := s.onCorrupt
	s.mu.Unlock()
	if cb != nil {
		for _, lpn := range newly {
			cb(lpn)
		}
	}
	return next, checked, bad
}

func (s *fileStore) getStamp(lpn int64) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs, ok := s.index[lpn]
	return fs.stamp, ok
}

func (s *fileStore) put(lpn int64, data []byte, stamp uint64) error {
	if s.poisonFlag.Load() {
		return s.poisonErr()
	}
	if len(data) != s.pageSize {
		return fmt.Errorf("cluster: pagestore put of %d bytes, want %d", len(data), s.pageSize)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var slot int64
	if fs, ok := s.index[lpn]; ok {
		slot = fs.slot
	} else if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = s.slots
		s.slots++
	}
	rec := make([]byte, s.recordSize())
	encodeSlot(rec, lpn, stamp, data)
	if _, err := s.f.WriteAt(rec, s.slotOff(slot)); err != nil {
		return fmt.Errorf("cluster: pagestore write: %w", err)
	}
	s.index[lpn] = fileSlot{slot: slot, stamp: stamp}
	if stamp > s.max {
		s.max = stamp
	}
	s.puts++
	return nil
}

// runBufPool recycles the combined-record buffers putRun assembles, so a
// steady eviction stream doesn't allocate one per persist batch.
var runBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

// putRun stores a run of consecutive-LPN pages. Records whose slots come
// out adjacent — the common case: a block's pages were first written
// together, so they were appended together — are combined into one
// WriteAt, halving (ppb=2) or better the pwrite syscalls per persist
// batch versus per-page put.
func (s *fileStore) putRun(lpns []int64, data [][]byte, stamps []uint64) error {
	if s.poisonFlag.Load() {
		return s.poisonErr()
	}
	for _, d := range data {
		if len(d) != s.pageSize {
			return fmt.Errorf("cluster: pagestore put of %d bytes, want %d", len(d), s.pageSize)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := s.recordSize()
	slots := make([]int64, len(lpns))
	for i, lpn := range lpns {
		if fs, ok := s.index[lpn]; ok {
			slots[i] = fs.slot
		} else if n := len(s.free); n > 0 {
			slots[i] = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			slots[i] = s.slots
			s.slots++
		}
	}
	bufp := runBufPool.Get().(*[]byte)
	defer runBufPool.Put(bufp)
	for i := 0; i < len(lpns); {
		j := i + 1
		for j < len(lpns) && slots[j] == slots[j-1]+1 {
			j++
		}
		need := int(rs) * (j - i)
		buf := (*bufp)[:0]
		if cap(buf) < need {
			buf = make([]byte, 0, need)
			*bufp = buf
		}
		buf = buf[:need]
		for k := i; k < j; k++ {
			encodeSlot(buf[(k-i)*int(rs):(k-i+1)*int(rs)], lpns[k], stamps[k], data[k])
		}
		if _, err := s.f.WriteAt(buf, s.slotOff(slots[i])); err != nil {
			return fmt.Errorf("cluster: pagestore write: %w", err)
		}
		for k := i; k < j; k++ {
			s.index[lpns[k]] = fileSlot{slot: slots[k], stamp: stamps[k]}
			if stamps[k] > s.max {
				s.max = stamps[k]
			}
		}
		i = j
	}
	s.puts++
	return nil
}

// flush makes every completed put durable. Generation tracking makes it
// both safe and cheap under concurrency: the target generation is read
// before taking syncMu, so a flush that finds its target already covered
// piggybacked on a sibling's completed fsync (syncMu means waiting for
// that fsync to finish, never just to start), and a put racing an fsync
// simply lands in a later generation for the next flush to cover. A
// failed fsync permanently poisons the section — see ErrSyncPoisoned.
func (s *fileStore) flush() error {
	if s.poisonFlag.Load() {
		return s.poisonErr()
	}
	if !s.sync {
		return nil
	}
	s.mu.Lock()
	target := s.puts
	s.mu.Unlock()
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	// A sync that failed while this caller waited for syncMu poisoned the
	// section. Its pages may have been lost with that failure, and a retry
	// that succeeds would not bring them back, so it must not report them
	// durable.
	if s.poisonFlag.Load() {
		return s.poisonErr()
	}
	if s.synced >= target {
		return nil
	}
	s.mu.Lock()
	covered := s.puts // everything written before this fsync starts
	s.mu.Unlock()
	if err := storeDatasync(s.f); err != nil {
		return s.poison(err)
	}
	s.synced = covered
	return nil
}

func (s *fileStore) remove(lpn int64) error {
	if s.poisonFlag.Load() {
		return s.poisonErr()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fs, ok := s.index[lpn]
	if !ok {
		return nil
	}
	var hdr [slotHeaderSize]byte
	encodeFreeSlot(hdr[:])
	if _, err := s.f.WriteAt(hdr[:], s.slotOff(fs.slot)); err != nil {
		return fmt.Errorf("cluster: pagestore remove: %w", err)
	}
	delete(s.index, lpn)
	s.free = append(s.free, fs.slot)
	return nil
}

func (s *fileStore) pages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

func (s *fileStore) maxStamp() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max
}

func (s *fileStore) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.poisonFlag.Load() {
		// The section already failed durability; closing must not pretend
		// otherwise (and the final sync would only re-fail).
		s.f.Close()
		return s.poisonErr()
	}
	// fsync never legitimately returns io.EOF; any error here means the
	// final records may not have reached the medium, and it must surface
	// as a persist failure instead of being swallowed.
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// shardedStore stripes the store across one section per buffer shard,
// routed by the same block→shard function the buffer uses, so a shard's
// evictor only ever touches its own section (and, with a fileStore
// backing, its own file descriptor and fsync stream). This is what keeps
// the durable medium from re-serializing the sharded write path.
type shardedStore struct {
	subs []section
	// files holds the same sections as subs when the store is file-backed
	// (empty for an in-memory store): the scrubber and the integrity hooks
	// walk these.
	files []*fileStore
	ppb   int64
}

// newShardedMemStore builds an n-way striped in-memory store.
func newShardedMemStore(n, pagesPerBlock int) *shardedStore {
	s := &shardedStore{subs: make([]section, n), ppb: int64(pagesPerBlock)}
	for i := range s.subs {
		s.subs[i] = newMemStore()
	}
	return s
}

// shardStoreName names shard i's backing file. Shard 0 keeps the
// single-store name, so a 1-shard node reopens a plain fileStore's data.
func shardStoreName(i int) string {
	if i == 0 {
		return fileStoreName
	}
	return fmt.Sprintf("pagestore-%d.dat", i)
}

// newShardedFileStore builds an n-way striped file store in dir over fsys.
// The shard count must be stable across restarts of the same DataDir:
// pages are routed to files by shard index, so reopening with a different
// count would look up pages in the wrong section.
func newShardedFileStore(fsys faultfs.FS, dir string, pageSize int, syncWrites bool, n, pagesPerBlock int) (*shardedStore, error) {
	s := &shardedStore{subs: make([]section, n), files: make([]*fileStore, n), ppb: int64(pagesPerBlock)}
	for i := range s.subs {
		sub, err := newFileStoreFS(fsys, dir, shardStoreName(i), pageSize, syncWrites)
		if err != nil {
			for j := 0; j < i; j++ {
				s.subs[j].close()
			}
			return nil, err
		}
		s.subs[i], s.files[i] = sub, sub
	}
	return s, nil
}

// sub returns the section holding lpn.
func (s *shardedStore) sub(lpn int64) section {
	return s.subs[uint64(lpn/s.ppb)%uint64(len(s.subs))]
}

func (s *shardedStore) getInto(lpn int64, dst []byte) bool { return s.sub(lpn).getInto(lpn, dst) }
func (s *shardedStore) getStamp(lpn int64) (uint64, bool)  { return s.sub(lpn).getStamp(lpn) }
func (s *shardedStore) put(lpn int64, data []byte, stamp uint64) error {
	return s.sub(lpn).put(lpn, data, stamp)
}
func (s *shardedStore) remove(lpn int64) error { return s.sub(lpn).remove(lpn) }
func (s *shardedStore) verify(lpn int64) bool  { return s.sub(lpn).verify(lpn) }

func (s *shardedStore) takeCorrupt() []int64 {
	var out []int64
	for _, sub := range s.subs {
		out = append(out, sub.takeCorrupt()...)
	}
	return out
}

func (s *shardedStore) corruptCount() int64 {
	var total int64
	for _, sub := range s.subs {
		total += sub.corruptCount()
	}
	return total
}

// putRun routes a consecutive-LPN run to its sections, keeping each
// section's span intact so a file-backed section can coalesce the
// pwrites. A run can cross a block boundary into another section
// mid-way, so the split walks by routing, not just by the first page.
func (s *shardedStore) putRun(lpns []int64, data [][]byte, stamps []uint64) error {
	for i := 0; i < len(lpns); {
		sub := s.sub(lpns[i])
		j := i + 1
		for j < len(lpns) && s.sub(lpns[j]) == sub {
			j++
		}
		if err := sub.putRun(lpns[i:j], data[i:j], stamps[i:j]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

func (s *shardedStore) maxStamp() uint64 {
	var max uint64
	for _, sub := range s.subs {
		if m := sub.maxStamp(); m > max {
			max = m
		}
	}
	return max
}

func (s *shardedStore) flush() error {
	var first error
	for _, sub := range s.subs {
		if err := sub.flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *shardedStore) close() error {
	var first error
	for _, sub := range s.subs {
		if err := sub.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
