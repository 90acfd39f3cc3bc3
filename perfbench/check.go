package main

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Payload layout of every page the benchmark writes: the page's LPN plus
// one (so an all-zero, never-written page decodes as lpn -1), the writing
// client, and the page's version; the last eight bytes repeat the
// version mixed with the LPN, so a torn or misplaced page fails to
// decode.
const (
	offLPN     = 0
	offClient  = 8
	offVersion = 16
	trailerMix = 0x9E3779B97F4A7C15
	// setupClient marks pages written by set-up's pre-fill.
	setupClient = 255
)

func encodePage(pg []byte, lpn int64, client int, version int64) {
	binary.LittleEndian.PutUint64(pg[offLPN:], uint64(lpn+1))
	binary.LittleEndian.PutUint64(pg[offClient:], uint64(client))
	binary.LittleEndian.PutUint64(pg[offVersion:], uint64(version))
	binary.LittleEndian.PutUint64(pg[len(pg)-8:], uint64(version)^uint64(lpn)^trailerMix)
}

// decodePage returns the version a page holds. A never-written (all-zero)
// page decodes as version 0.
func decodePage(pg []byte, lpn int64) (int64, error) {
	stored := int64(binary.LittleEndian.Uint64(pg[offLPN:])) - 1
	v := int64(binary.LittleEndian.Uint64(pg[offVersion:]))
	trailer := binary.LittleEndian.Uint64(pg[len(pg)-8:])
	if stored == -1 && v == 0 && trailer == 0 {
		return 0, nil
	}
	if stored != lpn {
		return 0, fmt.Errorf("page %d holds lpn %d", lpn, stored)
	}
	if trailer != uint64(v)^uint64(lpn)^trailerMix {
		return 0, fmt.Errorf("page %d version %d has a torn trailer", lpn, v)
	}
	return v, nil
}

// lockStripes serializes writes to the same page across clients.
const lockStripes = 1024

// checker tracks, per page, the last version issued and the last version
// acknowledged (the high-water mark), and verifies reads and the final
// durable state against them. Writes to one page are serialized by the
// page's stripe lock, so versions of a page are acknowledged in order
// and "at least the version acked before the read was issued" is exact.
type checker struct {
	pageSize int
	issued   []int64        // guarded by the page's stripe lock
	hwm      []atomic.Int64 // last acknowledged version (0: never acked)
	stripes  [lockStripes]sync.Mutex

	mu       sync.Mutex
	problems []string
	nProblem atomic.Int64
}

func newChecker(span int64, pageSize int) *checker {
	return &checker{
		pageSize: pageSize,
		issued:   make([]int64, span),
		hwm:      make([]atomic.Int64, span),
	}
}

// fail records a correctness problem (the first few are kept verbatim).
func (c *checker) fail(format string, args ...any) {
	if c.nProblem.Add(1) > 8 {
		return
	}
	c.mu.Lock()
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// lockPages takes the stripe locks of [lpn, lpn+pages) in ascending
// stripe order and returns the unlock.
func (c *checker) lockPages(lpn int64, pages int) func() {
	idx := make([]int, 0, pages)
	for p := lpn; p < lpn+int64(pages); p++ {
		s := int(p % lockStripes)
		dup := false
		for _, x := range idx {
			if x == s {
				dup = true
				break
			}
		}
		if !dup {
			idx = append(idx, s)
		}
	}
	sort.Ints(idx)
	for _, s := range idx {
		c.stripes[s].Lock()
	}
	return func() {
		for _, s := range idx {
			c.stripes[s].Unlock()
		}
	}
}

// write runs one client write under the pages' stripe locks: it stamps a
// fresh version into each page of buf, calls do, and on success raises
// the pages' high-water marks.
func (c *checker) write(lpn int64, pages, client int, buf []byte, do func([]byte) error) error {
	unlock := c.lockPages(lpn, pages)
	defer unlock()
	ps := c.pageSize
	for i := 0; i < pages; i++ {
		p := lpn + int64(i)
		c.issued[p]++
		encodePage(buf[i*ps:(i+1)*ps], p, client, c.issued[p])
	}
	if err := do(buf[:pages*ps]); err != nil {
		return err
	}
	for i := 0; i < pages; i++ {
		p := lpn + int64(i)
		c.hwm[p].Store(c.issued[p])
	}
	return nil
}

// floor is the version a read of lpn issued now must at least return.
func (c *checker) floor(lpn int64) int64 { return c.hwm[lpn].Load() }

// checkRead verifies a read's pages against the floors taken before it
// was issued; a stale, misplaced or torn page is a correctness problem.
func (c *checker) checkRead(lpn int64, data []byte, floors []int64) {
	ps := c.pageSize
	for i, fl := range floors {
		p := lpn + int64(i)
		v, err := decodePage(data[i*ps:(i+1)*ps], p)
		if err != nil {
			c.fail("read: %v", err)
			continue
		}
		if v < fl {
			c.fail("stale read: page %d returned version %d, version %d was acked before the read", p, v, fl)
		}
	}
}

// checkDurable compares every written page's durable copy with its last
// acknowledged version. Call only once all writes have returned and the
// node has flushed: then a page may hold no version older than its
// high-water mark and none newer than its last issued one.
func (c *checker) checkDurable(get func(int64) []byte) int {
	n := 0
	for p := range c.hwm {
		hw := c.hwm[p].Load()
		if hw == 0 {
			continue
		}
		n++
		lpn := int64(p)
		pg := get(lpn)
		if pg == nil {
			c.fail("durable: page %d missing after flush", lpn)
			continue
		}
		v, err := decodePage(pg, lpn)
		if err != nil {
			c.fail("durable: %v", err)
			continue
		}
		if v < hw || v > c.issued[p] {
			c.fail("durable: page %d holds version %d, acked %d, issued %d", lpn, v, hw, c.issued[p])
		}
	}
	return n
}
