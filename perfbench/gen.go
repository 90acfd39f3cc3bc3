package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"

	"flashcoop/internal/trace"
	"flashcoop/internal/workload"
)

// op is one generated client request. The program under test receives
// only these; the seed never reaches it.
type op struct {
	lpn   int64
	pages int
	read  bool
}

// warmSalt derives the warm-up stream's seed from the run's seed, so
// warm-up draws from the same distribution without replaying the
// measured ops.
const warmSalt = 0x5eed11fe

// streamHash fingerprints an op stream (FNV-64a over every field).
func streamHash(ops []op) uint64 {
	h := fnv.New64a()
	var b [17]byte
	for _, o := range ops {
		binary.LittleEndian.PutUint64(b[0:], uint64(o.lpn))
		binary.LittleEndian.PutUint64(b[8:], uint64(o.pages))
		b[16] = 0
		if o.read {
			b[16] = 1
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// zipfKeys draws zipf-ranked keys over [0, span), P(rank k) ∝ (v+k)^-s,
// and scatters the ranks with a seeded permutation, so hot keys are not
// adjacent (and spread over buffer shards instead of piling into the
// first erase blocks).
func zipfKeys(rng *rand.Rand, s, v float64, span int64) func() int64 {
	z := rand.NewZipf(rng, s, v, uint64(span-1))
	perm := rng.Perm(int(span))
	return func() int64 { return int64(perm[z.Uint64()]) }
}

// genAckResident draws single-page ops, writeFrac of them writes, over
// zipf-ranked pages of [0, span).
func genAckResident(seed int64, n int, span int64, zipfS, zipfV, writeFrac float64) []op {
	rng := rand.New(rand.NewSource(seed))
	key := zipfKeys(rng, zipfS, zipfV, span)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{lpn: key(), pages: 1, read: rng.Float64() >= writeFrac}
	}
	return ops
}

// fin1WriteProfile is the Fin1 profile (Table I skew, 2% sequential runs,
// popularity drift) made write-only with requests of 1-8 pages.
func fin1WriteProfile(seed int64, n int, span int64, ppb int) workload.Profile {
	p := workload.Fin1(n, seed)
	p.AddrPages = span
	p.PagesPerBlock = ppb
	p.WriteFrac = 1
	p.Sizes = []workload.SizePoint{
		{Bytes: 4096, Weight: 0.80},
		{Bytes: 8192, Weight: 0.10},
		{Bytes: 16384, Weight: 0.06},
		{Bytes: 32768, Weight: 0.04},
	}
	return p
}

// genFlushBound draws write-only Fin1-shaped ops over [0, span).
func genFlushBound(seed int64, n int, span int64, ppb int) ([]op, error) {
	reqs, err := fin1WriteProfile(seed, n, span, ppb).Generate()
	if err != nil {
		return nil, err
	}
	ops := make([]op, len(reqs))
	for i, r := range reqs {
		ops[i] = op{lpn: r.LPN, pages: r.Pages, read: r.Op == trace.Read}
	}
	return ops, nil
}

// genReadZipf draws the update-hot-header / read-hot-payload block mix:
// readFrac single-page reads of a zipf-chosen block's payload page
// (readPage, in the half writes never touch) and half-block writes of a
// zipf-chosen block's first half.
func genReadZipf(seed int64, n int, blocks int64, ppb int, zipfS, readFrac float64, readPage int) []op {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, zipfS, 1, uint64(blocks-1))
	ops := make([]op, n)
	for i := range ops {
		blk := int64(z.Uint64())
		if rng.Float64() < readFrac {
			ops[i] = op{lpn: blk*int64(ppb) + int64(readPage), pages: 1, read: true}
		} else {
			ops[i] = op{lpn: blk * int64(ppb), pages: ppb / 2}
		}
	}
	return ops
}
