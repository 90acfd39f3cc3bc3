package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
)

// ringVnodes is the number of virtual points each member contributes to
// the hash ring. More points smooth the block distribution across members
// (each member's arc is the union of many small arcs instead of one big
// one); 64 keeps the per-member imbalance under a few percent while the
// whole point table stays small enough to rebuild on every membership
// change.
const ringVnodes = 64

// Ring is a consistent-hash ring over cluster member IDs (partner listen
// addresses). Each member contributes ringVnodes points; a block's backup
// owners are the first `replicas` distinct members met walking clockwise
// from the block's hash. The structure is immutable after construction —
// membership changes build a new Ring — so readers never lock.
//
// Because every node's LPN space is private (each owns its own SSD), only
// the home node ever computes the owners of its blocks: placement needs
// no global coordination beyond agreeing on the member list, which the
// ownership epoch on v2 frames enforces (see SetMembers / checkEpoch).
type Ring struct {
	replicas int
	members  []string
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member int32 // index into members
}

// NewRing builds a ring over the given member IDs. IDs must be non-empty
// and unique; replicas is clamped to [1, len(members)-1] (a member never
// backs itself up, so at most len-1 distinct owners exist).
func NewRing(members []string, replicas int) (*Ring, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("cluster: ring needs at least 2 members, got %d", len(members))
	}
	seen := make(map[string]struct{}, len(members))
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: ring member ID must be non-empty")
		}
		if _, dup := seen[m]; dup {
			return nil, fmt.Errorf("cluster: duplicate ring member %q", m)
		}
		seen[m] = struct{}{}
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(members)-1 {
		replicas = len(members) - 1
	}
	r := &Ring{
		replicas: replicas,
		members:  append([]string(nil), members...),
		points:   make([]ringPoint, 0, len(members)*ringVnodes),
	}
	// Sort the member list so rings built from permuted inputs are
	// identical: owner sets depend only on the membership SET.
	sort.Strings(r.members)
	for mi, m := range r.members {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: vnodeHash(m, v), member: int32(mi)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// Members returns the ring's member IDs (sorted).
func (r *Ring) Members() []string { return r.members }

// Replicas reports the effective replication factor.
func (r *Ring) Replicas() int { return r.replicas }

// Owners returns the backup owners for a block key: the first Replicas
// distinct members != exclude met walking clockwise from the key's point.
// The walk is deterministic — same ring, same key, same owners — and
// consults only the point table, so it is safe from any goroutine.
func (r *Ring) Owners(key uint64, exclude string) []string {
	return r.appendOwners(make([]string, 0, r.replicas), key, exclude)
}

// appendOwners is Owners appending to out, for hot-path callers that
// reuse a scratch slice.
func (r *Ring) appendOwners(out []string, key uint64, exclude string) []string {
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	n := len(r.points)
	var taken [ringMaxInlineMembers]bool
	var takenMap map[int32]bool
	if len(r.members) > ringMaxInlineMembers {
		takenMap = make(map[int32]bool, r.replicas)
	}
	for i := 0; i < n && len(out) < r.replicas; i++ {
		p := r.points[(start+i)%n]
		m := r.members[p.member]
		if m == exclude {
			continue
		}
		if takenMap != nil {
			if takenMap[p.member] {
				continue
			}
			takenMap[p.member] = true
		} else {
			if taken[p.member] {
				continue
			}
			taken[p.member] = true
		}
		out = append(out, m)
	}
	return out
}

// ringMaxInlineMembers bounds the stack-allocated dedup bitmap in
// appendOwners; larger rings fall back to a map.
const ringMaxInlineMembers = 64

// BlockKey hashes one of a node's erase blocks onto the ring. The home
// node's ID is folded in so different nodes' identically-numbered blocks
// land on different points — without it, every node's block b would chase
// the same arc and the ring would load its successors unevenly.
func BlockKey(self string, block int64) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(self))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(block))
	_, _ = h.Write(b[:])
	return mix64(h.Sum64())
}

// vnodeHash places one virtual point for a member.
func vnodeHash(member string, vnode int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(member))
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(vnode))
	_, _ = h.Write(b[:])
	return mix64(h.Sum64())
}

// mix64 is the murmur3 64-bit finalizer. FNV-1a alone is NOT enough for
// ring placement: appending a small counter (the vnode index, the block
// number) to the input yields near-sequential outputs, so one member's 64
// vnodes would collapse into a single tight arc and a node's consecutive
// blocks would all chase the same successor. The finalizer avalanches
// those low-byte differences across all 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
