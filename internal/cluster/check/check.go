// Package check contains the durability invariant checkers for a
// cooperative FlashCoop ring (a pair is a 2-member ring). It is a testing
// aid: a Tracker records every write attempt a client makes and which of
// them were acknowledged, and the checkers compare that history against
// snapshots of the cluster's state (local dirty buffer, the partners'
// backups held for the node, persisted page store) taken at a quiescent
// point — after a crash, a failover, or a recovery.
//
// The invariants:
//
//  1. Acked-write durability (Durability): every acknowledged write is
//     reconstructible from local buffer ∪ partner backups ∪ persisted store.
//     A concurrent attempt that was never acknowledged may legally have
//     replaced the acked value (it raced the ack and partially applied),
//     so a copy matching any open attempt also satisfies the invariant;
//     what is never legal is the page holding no tracked value at all.
//  2. Discard safety (DiscardSafety): a backup discard is only issued
//     after the page is durable, so a page absent from every partner's
//     backups and the local dirty buffer must be in the persisted store.
//  3. Seq/ack sanity (SeqChecker, seqcheck.go): request seqs on a
//     connection are never reused and every response matches exactly one
//     outstanding request.
package check

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
)

// NodeState is the inspection surface a checker needs from the node whose
// writes are tracked. *cluster.LiveNode satisfies it; unit tests use fakes.
type NodeState interface {
	// SnapshotDirty returns the locally buffered dirty payloads by LPN.
	SnapshotDirty() map[int64][]byte
	// DurableGet returns the persisted payload for lpn, or nil.
	DurableGet(lpn int64) []byte
}

// RemoteHolder is the surface a backup holder exposes: its per-origin
// hold snapshot. *cluster.LiveNode satisfies it.
type RemoteHolder interface {
	// SnapshotRemoteFor returns the backups this node holds for the named
	// origin (a member ID) by LPN.
	SnapshotRemoteFor(origin string) map[int64][]byte
}

// Violation is one invariant breach.
type Violation struct {
	Invariant string // "durability", "discard-safety", "seq"
	LPN       int64  // page concerned, or -1 for connection-level breaches
	Detail    string
}

func (v Violation) String() string {
	if v.LPN < 0 {
		return fmt.Sprintf("[%s] %s", v.Invariant, v.Detail)
	}
	return fmt.Sprintf("[%s] lpn %d: %s", v.Invariant, v.LPN, v.Detail)
}

// Tracker records the client-visible write history of one node: every
// attempt, and which attempt's value was last acknowledged per page. It is
// safe for concurrent use by many writer goroutines.
//
// An attempt that never gets Acked stays registered forever: the write may
// have partially applied (its error raced the data), so its value remains
// a legal occupant of the page. Acknowledged attempts collapse into the
// page's single lastAcked value.
type Tracker struct {
	mu     sync.Mutex
	nextID uint64
	pages  map[int64]*pageHist
}

type pageHist struct {
	acked    []byte            // value of the most recent acked attempt
	attempts map[uint64][]byte // open (unacked or failed) attempts
}

// NewTracker builds an empty history.
func NewTracker() *Tracker {
	return &Tracker{pages: make(map[int64]*pageHist)}
}

// Attempt registers a write of data to lpn about to be issued and returns
// a token for Acked. The payload is copied.
func (t *Tracker) Attempt(lpn int64, data []byte) uint64 {
	cp := make([]byte, len(data))
	copy(cp, data)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	h := t.pages[lpn]
	if h == nil {
		h = &pageHist{attempts: make(map[uint64][]byte)}
		t.pages[lpn] = h
	}
	h.attempts[t.nextID] = cp
	return t.nextID
}

// Acked marks the attempt as acknowledged: its value becomes the page's
// required-durable value and the attempt leaves the open set.
func (t *Tracker) Acked(lpn int64, id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.pages[lpn]
	if h == nil || h.attempts[id] == nil {
		return
	}
	h.acked = h.attempts[id]
	delete(h.attempts, id)
}

// Pages lists every LPN with at least one acknowledged write, sorted.
func (t *Tracker) Pages() []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int64, 0, len(t.pages))
	for lpn, h := range t.pages {
		if h.acked != nil {
			out = append(out, lpn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Ops reports the total number of attempts registered.
func (t *Tracker) Ops() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nextID
}

// Valid reports whether data is a legal occupant of lpn: the last acked
// value or any open attempt's value.
func (t *Tracker) Valid(lpn int64, data []byte) bool {
	if data == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.pages[lpn]
	if h == nil {
		return false
	}
	if h.acked != nil && bytes.Equal(h.acked, data) {
		return true
	}
	for _, a := range h.attempts {
		if bytes.Equal(a, data) {
			return true
		}
	}
	return false
}

// backups gathers every holder's backups for origin. On a ring the
// origin's pages are spread across its partners (and, after a membership
// change, possibly duplicated on former owners with stale versions), so
// the checkers consider the union: a copy on ANY holder counts, and the
// stamp guards make stale duplicates harmless.
func backups(origin string, holders []RemoteHolder) []map[int64][]byte {
	out := make([]map[int64][]byte, 0, len(holders))
	for _, h := range holders {
		out = append(out, h.SnapshotRemoteFor(origin))
	}
	return out
}

// copies gathers every copy of lpn the cluster currently holds for the
// tracked node: its dirty buffer, each remote map, and its store.
func copies(lpn int64, dirty map[int64][]byte, remotes []map[int64][]byte, local NodeState) [][]byte {
	var out [][]byte
	if pg := dirty[lpn]; pg != nil {
		out = append(out, pg)
	}
	for _, remote := range remotes {
		if pg := remote[lpn]; pg != nil {
			out = append(out, pg)
		}
	}
	if pg := local.DurableGet(lpn); pg != nil {
		out = append(out, pg)
	}
	return out
}

// Durability checks invariant 1 against a quiesced cluster: for every
// page with an acknowledged write, at least one copy across local's dirty
// buffer, the backups the live holders keep for origin (local's member
// ID), and local's persisted store must hold a tracked value. Leave out
// holders that are down.
func Durability(t *Tracker, local NodeState, origin string, holders ...RemoteHolder) []Violation {
	remotes := backups(origin, holders)
	dirty := local.SnapshotDirty()
	var out []Violation
	for _, lpn := range t.Pages() {
		cs := copies(lpn, dirty, remotes, local)
		if len(cs) == 0 {
			out = append(out, Violation{
				Invariant: "durability", LPN: lpn,
				Detail: "acked write has no copy anywhere (buffer, peer RCT, store)",
			})
			continue
		}
		ok := false
		for _, c := range cs {
			if t.Valid(lpn, c) {
				ok = true
				break
			}
		}
		if !ok {
			out = append(out, Violation{
				Invariant: "durability", LPN: lpn,
				Detail: fmt.Sprintf("%d copies exist but none holds a tracked value (acked write lost or corrupted)", len(cs)),
			})
		}
	}
	return out
}

// DiscardSafety checks invariant 2: a page whose backup is gone from every
// holder and which is no longer dirty locally must be durable — the node
// only issues a discard after persisting the page, so "no backup, no
// buffer, no store copy" means a discard ran ahead of durability.
// Arguments are as for Durability.
func DiscardSafety(t *Tracker, local NodeState, origin string, holders ...RemoteHolder) []Violation {
	remotes := backups(origin, holders)
	dirty := local.SnapshotDirty()
	var out []Violation
	for _, lpn := range t.Pages() {
		if dirty[lpn] != nil {
			continue // a live copy exists upstream of the store
		}
		held := false
		for _, remote := range remotes {
			if remote[lpn] != nil {
				held = true
				break
			}
		}
		if held {
			continue
		}
		if pg := local.DurableGet(lpn); pg == nil {
			out = append(out, Violation{
				Invariant: "discard-safety", LPN: lpn,
				Detail: "backup discarded and buffer clean, but page not in persisted store",
			})
		} else if !t.Valid(lpn, pg) {
			out = append(out, Violation{
				Invariant: "discard-safety", LPN: lpn,
				Detail: "only remaining copy (persisted store) holds an untracked value",
			})
		}
	}
	return out
}
