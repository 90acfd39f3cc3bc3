package ftl

import (
	"fmt"

	"flashcoop/internal/flash"
)

// blockPool hands out erased blocks, preferring the block with the lowest
// erase count. This implements the simple static wear-leveling policy the
// paper's Section II.B describes: "ensure that equal use is made of all the
// available write cycles for each block".
type blockPool struct {
	arr *flash.Array
	h   eraseHeap
	in  []bool // membership by pbn, to catch double-free bugs
}

type poolEntry struct {
	pbn   int
	erase int
}

// eraseHeap is a min-heap of free blocks ordered by (erase count, pbn), a
// strict total order, so the block it yields is fully determined.
type eraseHeap []poolEntry

func (h eraseHeap) less(i, j int) bool {
	if h[i].erase != h[j].erase {
		return h[i].erase < h[j].erase
	}
	return h[i].pbn < h[j].pbn // deterministic tie-break
}

func (h *eraseHeap) push(e poolEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *eraseHeap) pop() poolEntry {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && s.less(l, m) {
			m = l
		}
		if r < n && s.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

func newBlockPool(arr *flash.Array) *blockPool {
	return &blockPool{arr: arr, in: make([]bool, arr.Params().TotalBlocks())}
}

// put returns an erased block to the pool.
func (p *blockPool) put(pbn int) {
	bi, err := p.arr.BlockInfo(pbn)
	if err != nil {
		panic(err)
	}
	if p.in[pbn] {
		panic(fmt.Sprintf("ftl: block %d freed twice", pbn))
	}
	if bi.NextProgram != 0 {
		panic(fmt.Sprintf("ftl: block %d returned to pool while not erased", pbn))
	}
	p.in[pbn] = true
	p.h.push(poolEntry{pbn: pbn, erase: bi.EraseCount})
}

// get removes and returns the free block with the lowest erase count, or an
// ErrOutOfSpace error when the pool is empty.
func (p *blockPool) get() (int, error) {
	for len(p.h) > 0 {
		e := p.h.pop()
		p.in[e.pbn] = false
		bi, err := p.arr.BlockInfo(e.pbn)
		if err != nil {
			return 0, err
		}
		if bi.WornOut {
			continue // retired block: drop it from circulation
		}
		return e.pbn, nil
	}
	return 0, ErrOutOfSpace
}

// len reports how many blocks are available.
func (p *blockPool) len() int { return len(p.h) }

// contains reports whether pbn is currently in the pool.
func (p *blockPool) contains(pbn int) bool { return p.in[pbn] }
