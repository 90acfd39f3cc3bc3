package core

import "slices"

// RemoteStore is the Remote Caching Table (RCT) plus backing pages a server
// keeps on behalf of its cooperative partner: a bounded set of the
// partner's dirty pages, discarded when the partner flushes them and
// drained wholesale during failure recovery.
//
// Backups sit in a slot array linked oldest to youngest through slot
// indices; freed slots are chained for reuse, so steady-state inserts,
// refreshes and discards do not allocate.
type RemoteStore struct {
	capPages int
	index    map[int64]int32 // lpn -> slot
	slots    []rctSlot
	head     int32 // oldest backup, or noSlot
	tail     int32 // youngest backup, or noSlot
	free     int32 // first reusable slot (chained through next), or noSlot

	stats RemoteStats
}

// rctSlot is one backed-up page and its FIFO neighbours.
type rctSlot struct {
	lpn        int64
	prev, next int32
}

// noSlot terminates the slot chains.
const noSlot int32 = -1

// RemoteStats counts remote-buffer activity.
type RemoteStats struct {
	Inserts   int64
	Discards  int64
	Overflows int64 // backups dropped because the remote buffer was full
}

// NewRemoteStore constructs a remote store holding at most capPages pages.
func NewRemoteStore(capPages int) *RemoteStore {
	if capPages < 0 {
		capPages = 0
	}
	return &RemoteStore{
		capPages: capPages,
		index:    make(map[int64]int32),
		head:     noSlot,
		tail:     noSlot,
		free:     noSlot,
	}
}

// Capacity reports the page capacity.
func (r *RemoteStore) Capacity() int { return r.capPages }

// Len reports the number of backed-up pages.
func (r *RemoteStore) Len() int { return len(r.index) }

// Stats returns a snapshot of the counters.
func (r *RemoteStore) Stats() RemoteStats { return r.stats }

// Contains reports whether lpn is backed up here.
func (r *RemoteStore) Contains(lpn int64) bool {
	_, ok := r.index[lpn]
	return ok
}

// pushBack links slot i in as the youngest backup.
func (r *RemoteStore) pushBack(i int32) {
	s := &r.slots[i]
	s.prev, s.next = r.tail, noSlot
	if r.tail != noSlot {
		r.slots[r.tail].next = i
	} else {
		r.head = i
	}
	r.tail = i
}

// unlink takes slot i out of the FIFO.
func (r *RemoteStore) unlink(i int32) {
	s := &r.slots[i]
	if s.prev != noSlot {
		r.slots[s.prev].next = s.next
	} else {
		r.head = s.next
	}
	if s.next != noSlot {
		r.slots[s.next].prev = s.prev
	} else {
		r.tail = s.prev
	}
}

// drop removes the backup in slot i and returns the slot to the free chain.
func (r *RemoteStore) drop(i int32) {
	r.unlink(i)
	delete(r.index, r.slots[i].lpn)
	r.slots[i].next = r.free
	r.free = i
}

// Insert backs up the given pages. A page already present is refreshed
// (moved to the young end). When the store is full the oldest backups are
// dropped and counted as overflows — the partner's data is then protected
// only by its own buffer, as when a too-small θ is configured.
func (r *RemoteStore) Insert(lpns []int64) {
	for _, lpn := range lpns {
		if i, ok := r.index[lpn]; ok {
			r.unlink(i)
			r.pushBack(i)
			continue
		}
		r.stats.Inserts++
		if r.capPages == 0 {
			r.stats.Overflows++
			continue
		}
		for len(r.index) >= r.capPages {
			r.drop(r.head)
			r.stats.Overflows++
		}
		i := r.free
		if i != noSlot {
			r.free = r.slots[i].next
		} else {
			i = int32(len(r.slots))
			r.slots = append(r.slots, rctSlot{})
		}
		r.slots[i].lpn = lpn
		r.pushBack(i)
		r.index[lpn] = i
	}
}

// Discard drops backups for pages the partner has flushed to its SSD.
func (r *RemoteStore) Discard(lpns []int64) {
	for _, lpn := range lpns {
		if i, ok := r.index[lpn]; ok {
			r.drop(i)
			r.stats.Discards++
		}
	}
}

// Drain removes and returns all backed-up pages in ascending order; used
// when the partner recovers from a local failure and needs its dirty data.
func (r *RemoteStore) Drain() []int64 {
	out := make([]int64, 0, len(r.index))
	for lpn := range r.index {
		out = append(out, lpn)
	}
	slices.Sort(out)
	clear(r.index)
	r.slots = r.slots[:0]
	r.head, r.tail, r.free = noSlot, noSlot, noSlot
	return out
}

// Resize changes the capacity, dropping oldest backups on shrink.
func (r *RemoteStore) Resize(capPages int) {
	if capPages < 0 {
		capPages = 0
	}
	r.capPages = capPages
	for len(r.index) > r.capPages {
		r.drop(r.head)
		r.stats.Overflows++
	}
}
