package workload

import (
	"testing"

	"repro/internal/core"
)

// TestFamilyMatchesPerPoint is the design-space equivalence anchor: one
// family pass must report, for every (banks, ways, victim) point, the
// exact statistics the per-point measurement path (one CacheSet per
// device, one trace pass per point) reports — including the
// victim-compound replays, whose eviction-order state cannot come from
// the histograms.
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
			sum := fam.Summary(w, instr, points)
			for _, p := range points {
				dev := core.Proposed().WithOrganisation(p.Banks, col, p.VictimEntries, p.Ways)
				if err := dev.Validate(); err != nil {
					t.Fatalf("col=%d %+v: %v", col, p, err)
				}
				m := measureWith(t, w, 120_000, NewCacheSetFor(dev, core.Reference()))
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
