package workload

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/stackdist"
	"repro/internal/trace"
)

// TestFamilyMatchesPerPoint is the design-space equivalence anchor: one
// family pass must report, for every (banks, ways, victim) point, the
// exact statistics the replay oracle reports for that device (one
// simulated cache per configuration, one trace pass per point) —
// including the victim-compound replays, whose eviction-order state
// cannot come from the histograms.
func TestFamilyMatchesPerPoint(t *testing.T) {
	points := []FamilyPoint{
		{Banks: 8, Ways: 1, VictimEntries: 0},
		{Banks: 8, Ways: 2, VictimEntries: 16},
		{Banks: 16, Ways: 2, VictimEntries: 0},
		{Banks: 16, Ways: 2, VictimEntries: 16},
		{Banks: 16, Ways: 4, VictimEntries: 8},
		{Banks: 24, Ways: 2, VictimEntries: 16}, // non-power-of-two banks
	}
	for _, name := range []string{"126.gcc", "101.tomcatv"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range []int{256, 512} {
			fam := NewFamilyCacheSet(col, points)
			instr, err := Live{}.Stream(w, 120_000, fam)
			if err != nil {
				t.Fatal(err)
			}
			sum := fam.Summary(w, points)
			for _, p := range points {
				dev := core.Proposed().WithOrganisation(p.Banks, col, p.VictimEntries, p.Ways)
				if err := dev.Validate(); err != nil {
					t.Fatalf("col=%d %+v: %v", col, p, err)
				}
				m := measureWith(t, w, 120_000, NewReplayCacheSetFor(dev, core.Reference()))
				if a, b := fam.RefCounts(), m.Caches.RefCounts(); a != b {
					t.Errorf("%s col=%d %+v counts: family %+v, point %+v", name, col, p, a, b)
				}
				if a, b := fam.IStats(p.Banks), m.Caches.PropIStats(); a != b {
					t.Errorf("%s col=%d %+v I: family %+v, point %+v", name, col, p, a, b)
				}
				if a, b := fam.DStats(p.Banks, p.Ways), m.Caches.PropDStats(); a != b {
					t.Errorf("%s col=%d %+v D: family %+v, point %+v", name, col, p, a, b)
				}
				if a, b := fam.DVictimStats(p), m.Caches.PropDVictimStats(); a != b {
					t.Errorf("%s col=%d %+v D+victim: family %+v, point %+v", name, col, p, a, b)
				}
				if a, b := sum.Rates(p), m.Rates(true, p.VictimEntries > 0); a != b {
					t.Errorf("%s col=%d %+v rates: family %+v, point %+v", name, col, p, a, b)
				}
				if instr != m.Instr {
					t.Errorf("%s col=%d %+v instr: family %d, point %d", name, col, p, instr, m.Instr)
				}
			}
		}
	}
}

// TestFamilyCompoundsDeduplicated checks that duplicate victim points
// share one compound and victimless points cost none.
func TestFamilyCompoundsDeduplicated(t *testing.T) {
	f := NewFamilyCacheSet(512, []FamilyPoint{
		{Banks: 16, Ways: 2, VictimEntries: 16},
		{Banks: 16, Ways: 2, VictimEntries: 16},
		{Banks: 16, Ways: 2, VictimEntries: 0},
		{Banks: 32, Ways: 2, VictimEntries: 16},
	})
	if got := f.Compounds(); got != 2 {
		t.Errorf("compounds = %d, want 2", got)
	}
}

// TestLineSetCollapse checks that collapsing same-line runs into
// repeat counts is equivalent to profiling every reference, on an
// interleaved stream in which half the references repeat their
// stream's previous line (data repeats mixing loads and stores).
func TestLineSetCollapse(t *testing.T) {
	ig := []stackdist.Geometry{{Sets: 64, Ways: 1}}
	dg := []stackdist.Geometry{{Sets: 16, Ways: 2}, {Sets: 64, Ways: 1}}
	var s lineSet
	s.init(32, ig, dg)
	fullI := stackdist.NewSetProfiler(32, ig)
	fullD := stackdist.NewSetProfiler(32, dg)
	rng := rand.New(rand.NewSource(11))
	var lastI, lastD uint64
	for i := 0; i < 60_000; i++ {
		kind := trace.Kind(rng.Intn(3))
		last, full := &lastD, fullD
		if kind == trace.Ifetch {
			last, full = &lastI, fullI
		}
		if rng.Intn(2) == 0 {
			*last = uint64(rng.Intn(1 << 12))
		}
		ref := trace.Ref{Addr: *last&^31 + uint64(rng.Intn(32)), Kind: kind}
		s.ref(ref)
		full.Access(ref.Addr, ref.Kind)
	}
	if got, want := s.iStats(64), setStats(fullI, 64, 1); got != want {
		t.Errorf("I 64x1: collapsed %+v, full %+v", got, want)
	}
	for _, g := range dg {
		if got, want := s.dStats(g.Sets, g.Ways), setStats(fullD, g.Sets, g.Ways); got != want {
			t.Errorf("D %+v: collapsed %+v, full %+v", g, got, want)
		}
	}
}
