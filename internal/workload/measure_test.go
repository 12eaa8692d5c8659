package workload

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// measureWith streams w's live reference stream for budget through cs.
func measureWith(t *testing.T, w Workload, budget int64, cs CacheMeasurer) *Measurement {
	t.Helper()
	instr, err := Live{}.Stream(w, budget, cs)
	if err != nil {
		t.Fatal(err)
	}
	return &Measurement{Workload: w, Caches: cs, Instr: instr}
}

// TestFastMatchesReplay is the workload half of the property-based
// equivalence suite (the random-trace half lives in
// internal/stackdist): for every workload at the -quick budget, the
// single-pass profiled measurement and the per-configuration replay
// oracle must report identical miss counts for every size/associativity
// in the Figure 7/8 grid, the proposed caches, the victim-augmented
// cache, and the conditional L2, and identical GSPN inputs for all four
// system/victim variants. The figures and tables are rendered from
// exactly these values.
func TestFastMatchesReplay(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			fast := measure(t, w.Name)
			replay := measureWith(t, w, testBudget, NewReplayCacheSet())
			f, r := fast.Caches, replay.Caches
			if fc, rc := f.RefCounts(), r.RefCounts(); fc != rc {
				t.Errorf("counts: fast %+v, replay %+v", fc, rc)
			}
			if a, b := f.PropIStats(), r.PropIStats(); a != b {
				t.Errorf("PropI: fast %+v, replay %+v", a, b)
			}
			if a, b := f.PropDStats(), r.PropDStats(); a != b {
				t.Errorf("PropD: fast %+v, replay %+v", a, b)
			}
			if a, b := f.PropDVictimStats(), r.PropDVictimStats(); a != b {
				t.Errorf("PropDVictim: fast %+v, replay %+v", a, b)
			}
			if a, b := f.L2Stats(), r.L2Stats(); a != b {
				t.Errorf("L2: fast %+v, replay %+v", a, b)
			}
			for _, kb := range ConvISizesKB {
				if a, b := f.ConvIStats(kb), r.ConvIStats(kb); a != b {
					t.Errorf("ConvI %dKB: fast %+v, replay %+v", kb, a, b)
				}
			}
			for _, kb := range ConvDSizesKB {
				if a, b := f.ConvDMStats(kb), r.ConvDMStats(kb); a != b {
					t.Errorf("ConvDM %dKB: fast %+v, replay %+v", kb, a, b)
				}
				if a, b := f.Conv2WStats(kb), r.Conv2WStats(kb); a != b {
					t.Errorf("Conv2W %dKB: fast %+v, replay %+v", kb, a, b)
				}
			}
			if fast.Instr != replay.Instr {
				t.Errorf("instructions: fast %d, replay %d", fast.Instr, replay.Instr)
			}
			for _, integrated := range []bool{true, false} {
				for _, victim := range []bool{true, false} {
					if a, b := fast.Rates(integrated, victim), replay.Rates(integrated, victim); a != b {
						t.Errorf("rates integrated=%v victim=%v: fast %+v, replay %+v",
							integrated, victim, a, b)
					}
				}
			}
		})
	}
}

// TestRatesAgreeAcrossPaths checks the GSPN input derivation end to
// end on both measurement paths at a budget off the -quick grid, for
// the paper's device and for the example 32-bank, 256 B-column device
// with its 8-entry victim cache.
func TestRatesAgreeAcrossPaths(t *testing.T) {
	w, err := ByName("102.swim")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "machine-32bank.json"))
	if err != nil {
		t.Fatal(err)
	}
	bank32, err := core.FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range []core.Device{core.Proposed(), bank32} {
		fast := measureWith(t, w, 120_000, NewCacheSetFor(dev, core.Reference()))
		replay := measureWith(t, w, 120_000, NewReplayCacheSetFor(dev, core.Reference()))
		for _, integrated := range []bool{true, false} {
			for _, victim := range []bool{true, false} {
				a := fast.Rates(integrated, victim)
				b := replay.Rates(integrated, victim)
				if a != b {
					t.Errorf("%s integrated=%v victim=%v: fast %+v, replay %+v",
						dev.Name, integrated, victim, a, b)
				}
			}
		}
	}
}
