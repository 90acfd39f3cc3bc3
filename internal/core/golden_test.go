package core

import (
	"math"
	"testing"

	"flashcoop/internal/buffer"
	"flashcoop/internal/flash"
	"flashcoop/internal/ftl"
	"flashcoop/internal/ssd"
	"flashcoop/internal/workload"
)

// TestFin1ReplayGolden pins the exact outcome of a seeded Fin1 pair replay
// through LAR (paper defaults, small-write clustering on) over a
// preconditioned BAST device at Table II timing: the sim-fin1 benchmark's
// shape at a tenth of its requests, and again with a quarter of its buffer,
// which evicts about four times as often. Any change to LAR's victim
// order, to clusterFlush's choice of tail blocks or to the FTL's free-block
// order moves at least one of these numbers. A restructuring of those parts
// must reproduce them bit for bit; a change meant to alter the order
// re-records them and says why.
func TestFin1ReplayGolden(t *testing.T) {
	cases := []struct {
		bufPages                 int
		respBits                 uint64
		erases, programs, copies int64
		hitRatio                 float64
	}{
		{4096, 0x3fd957d5ec6211d4, 3861, 4171, 125367, 0.6223923026459655},
		{1024, 0x3ff9c4d6d76440e5, 14506, 11486, 469003, 0.406866389678548},
	}
	for _, tc := range cases {
		p := flash.TableII()
		p.PlanesPerDie = 8
		p.BlocksPerPlane = 2048 / p.PlanesPerDie
		cfg := func(name string) Config {
			return Config{Name: name, Policy: buffer.PolicyLAR, BufferPages: tc.bufPages,
				RemotePages: tc.bufPages, SSD: ssd.Config{Scheme: "bast", FTL: ftl.Config{Flash: p}}}
		}
		a, _, err := NewPair(cfg("a"), cfg("b"))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Device().Precondition(0.95); err != nil {
			t.Fatal(err)
		}
		prof := workload.Fin1(20000, 1)
		prof.AddrPages = a.Device().UserPages() / 2
		prof.PagesPerBlock = a.Device().PagesPerBlock()
		reqs, err := prof.Generate()
		if err != nil {
			t.Fatal(err)
		}
		fl0 := a.Device().FTL().Flash().Stats()
		for i, r := range reqs {
			if _, err := a.Access(r); err != nil {
				t.Fatalf("buffer %d: request %d: %v", tc.bufPages, i, err)
			}
		}
		fl := a.Device().FTL().Flash().Stats()
		st := a.Stats()
		resp := st.Resp.Mean()
		erases := fl.Erases - fl0.Erases
		programs := fl.Programs - fl.CopyPrograms - (fl0.Programs - fl0.CopyPrograms)
		copies := fl.CopyPrograms - fl0.CopyPrograms
		hit := a.Buffer().Stats().HitRatio()
		if math.Float64bits(resp) != tc.respBits || erases != tc.erases || programs != tc.programs ||
			copies != tc.copies || hit != tc.hitRatio {
			t.Errorf("buffer %d: resp %v (%#x) erases %d programs %d copies %d hit %v; want resp %v (%#x) erases %d programs %d copies %d hit %v",
				tc.bufPages, resp, math.Float64bits(resp), erases, programs, copies, hit,
				math.Float64frombits(tc.respBits), tc.respBits, tc.erases, tc.programs, tc.copies, tc.hitRatio)
		}
	}
}
