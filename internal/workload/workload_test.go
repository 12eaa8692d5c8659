package workload

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/vm"
)

const testBudget = 300_000

// measured caches one measurement per workload for the whole test
// package (the assertions below all read the same run).
var measured = map[string]*Measurement{}

func measure(t *testing.T, name string) *Measurement {
	t.Helper()
	if m, ok := measured[name]; ok {
		return m
	}
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m := measureWith(t, w, testBudget, NewCacheSetFor(core.Proposed(), core.Reference()))
	measured[name] = m
	return m
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 22 {
		t.Fatalf("registered %d workloads, want 22 (Table 2 + real group)", len(names))
	}
	want := []string{
		"099.go", "124.m88ksim", "126.gcc", "129.compress", "130.li",
		"132.ijpeg", "134.perl", "147.vortex",
		"101.tomcatv", "102.swim", "103.su2cor", "104.hydro2d", "107.mgrid",
		"110.applu", "125.turb3d", "141.apsi", "145.fpppp", "146.wave5",
		"synopsys",
		"bfs", "hashjoin", "gemm",
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("order[%d] = %s, want %s", i, names[i], n)
		}
	}
	if len(Spec()) != 18 {
		t.Errorf("Spec() returned %d workloads, want 18", len(Spec()))
	}
	if len(Real()) != 3 {
		t.Errorf("Real() returned %d workloads, want 3", len(Real()))
	}
}

// TestGroupOrdering: groups are strictly ordered in All() — the SPEC
// stand-ins, then synopsys, then the real-program kernels — so a new
// group can never reorder rows in existing figures or goldens.
func TestGroupOrdering(t *testing.T) {
	last := GroupSpec
	for _, w := range All() {
		if w.Group < last {
			t.Fatalf("%s (group %d) sorted after group %d", w.Name, w.Group, last)
		}
		last = w.Group
	}
	for _, w := range Spec() {
		if w.Group != GroupSpec {
			t.Errorf("Spec() leaked %s (group %d)", w.Name, w.Group)
		}
	}
	for _, w := range Real() {
		if w.Group != GroupReal {
			t.Errorf("Real() leaked %s (group %d)", w.Name, w.Group)
		}
		if w.SpecCal != 0 {
			t.Errorf("%s: real kernels have no paper SPEC calibration, got %v", w.Name, w.SpecCal)
		}
		if w.BaseCPI < 1 {
			t.Errorf("%s: explicit BaseCPI %v missing or implausible", w.Name, w.BaseCPI)
		}
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("ByName accepted an unknown benchmark")
	}
}

func TestAllBuildAndRun(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			m := measure(t, w.Name)
			if m.Instr < testBudget/2 {
				t.Errorf("executed only %d instructions", m.Instr)
			}
			counts := m.Caches.RefCounts()
			lf := counts.LoadFrac()
			if lf < 0.005 || lf > 0.6 {
				t.Errorf("load fraction %.3f outside a plausible range", lf)
			}
			if w.Name != "synopsys" && w.BaseCPI < 1 {
				t.Errorf("BaseCPI %v not wired from paperref", w.BaseCPI)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Figure 7 shapes.
// ---------------------------------------------------------------------

// TestFig7TightLoopsFitICache: the paper lists applu, compress, swim,
// mgrid and ijpeg as fitting an 8 KB I-cache almost entirely.
func TestFig7TightLoopsFitICache(t *testing.T) {
	for _, name := range []string{"110.applu", "129.compress", "102.swim", "107.mgrid", "132.ijpeg"} {
		m := measure(t, name)
		if miss := m.Caches.PropIStats().Ifetch.Percent(); miss > 0.1 {
			t.Errorf("%s: proposed I-miss %.3f%%, want ~0", name, miss)
		}
	}
}

// TestFig7LongLinesBeatConventional: for the code-heavy benchmarks the
// proposed 8 KB cache beats a conventional cache of twice its size.
func TestFig7LongLinesBeatConventional(t *testing.T) {
	for _, name := range []string{"126.gcc", "134.perl", "147.vortex", "145.fpppp", "141.apsi"} {
		m := measure(t, name)
		prop := m.Caches.PropIStats().Ifetch.Percent()
		conv16 := m.Caches.ConvIStats(16).Ifetch.Percent()
		if prop >= conv16 {
			t.Errorf("%s: proposed %.3f%% not better than conventional 16KB %.3f%%",
				name, prop, conv16)
		}
	}
}

// TestFig7FppppFactor: fpppp's straight-line code gives the proposed
// cache a ~11x advantage over the same-size conventional cache.
func TestFig7FppppFactor(t *testing.T) {
	m := measure(t, "145.fpppp")
	prop := m.Caches.PropIStats().Ifetch.Percent()
	conv8 := m.Caches.ConvIStats(8).Ifetch.Percent()
	if prop <= 0 {
		t.Fatal("fpppp proposed I-miss is zero; kernel too small")
	}
	ratio := conv8 / prop
	if ratio < 8 || ratio > 25 {
		t.Errorf("fpppp advantage %.1fx, want ~11x (8-25 accepted)", ratio)
	}
}

// TestFig7Turb3dRegression: turb3d is the one application whose I-miss
// rate is *higher* on the proposed cache (loop/callee line conflict).
func TestFig7Turb3dRegression(t *testing.T) {
	m := measure(t, "125.turb3d")
	prop := m.Caches.PropIStats().Ifetch.Percent()
	conv8 := m.Caches.ConvIStats(8).Ifetch.Percent()
	if prop <= conv8 {
		t.Errorf("turb3d: proposed %.3f%% should exceed conventional %.3f%%", prop, conv8)
	}
	// And it should be the ONLY such benchmark.
	for _, w := range All() {
		if w.Name == "125.turb3d" {
			continue
		}
		mm := measure(t, w.Name)
		p := mm.Caches.PropIStats().Ifetch.Percent()
		c := mm.Caches.ConvIStats(8).Ifetch.Percent()
		if p > c+0.05 {
			t.Errorf("%s: unexpected proposed I-cache regression (%.3f%% vs %.3f%%)",
				w.Name, p, c)
		}
	}
}

// ---------------------------------------------------------------------
// Figure 8 shapes.
// ---------------------------------------------------------------------

// TestFig8LongLineWinners: mgrid and hydro2d benefit dramatically from
// the 512 B lines (paper: ~10x better than same-size conventional DM).
func TestFig8LongLineWinners(t *testing.T) {
	for _, name := range []string{"107.mgrid", "104.hydro2d"} {
		m := measure(t, name)
		prop := m.Caches.PropDStats().Data().Percent()
		conv := m.Caches.ConvDMStats(16).Data().Percent()
		if prop <= 0 {
			t.Fatalf("%s: zero miss rate, kernel degenerate", name)
		}
		if conv/prop < 5 {
			t.Errorf("%s: long-line advantage only %.1fx, want >= 5x", name, conv/prop)
		}
	}
}

// TestFig8ConflictVictims: tomcatv, swim, su2cor and wave5 suffer MORE
// conflict misses with long lines than a same-size conventional cache.
func TestFig8ConflictVictims(t *testing.T) {
	for _, name := range []string{"101.tomcatv", "102.swim", "103.su2cor", "146.wave5"} {
		m := measure(t, name)
		prop := m.Caches.PropDStats().Data().Percent()
		conv := m.Caches.ConvDMStats(16).Data().Percent()
		if prop <= conv {
			t.Errorf("%s: proposed %.2f%% should exceed conventional 16KB DM %.2f%%",
				name, prop, conv)
		}
	}
}

// TestFig8VictimRecovers: the victim cache absorbs those conflicts,
// bringing the miss rate to (or below) conventional 2-way levels.
func TestFig8VictimRecovers(t *testing.T) {
	for _, name := range []string{"101.tomcatv", "102.swim", "103.su2cor", "146.wave5"} {
		m := measure(t, name)
		prop := m.Caches.PropDStats().Data().Percent()
		vic := m.Caches.PropDVictimStats().Data().Percent()
		conv2w := m.Caches.Conv2WStats(16).Data().Percent()
		if vic > prop/3 {
			t.Errorf("%s: victim only improved %.2f%% -> %.2f%%, want >= 3x", name, prop, vic)
		}
		if vic > conv2w*1.3 {
			t.Errorf("%s: victim %.2f%% should approach 2-way conventional %.2f%%",
				name, vic, conv2w)
		}
	}
}

// TestFig8GoVictimSmall: 099.go's poor locality limits the victim
// cache to a modest benefit (paper: ~25% — contrast tomcatv's ~7x).
func TestFig8GoVictimSmall(t *testing.T) {
	m := measure(t, "099.go")
	prop := m.Caches.PropDStats().Data().Percent()
	vic := m.Caches.PropDVictimStats().Data().Percent()
	gain := (prop - vic) / prop
	if gain < 0.08 || gain > 0.45 {
		t.Errorf("go: victim gain %.0f%% outside the paper's ~25%% regime (%.2f%% -> %.2f%%)",
			100*gain, prop, vic)
	}
}

// TestFig8VictimNeverHurts: across the whole suite the victim cache
// never increases the miss rate.
func TestFig8VictimNeverHurts(t *testing.T) {
	for _, w := range All() {
		m := measure(t, w.Name)
		prop := m.Caches.PropDStats().Data().Events
		vic := m.Caches.PropDVictimStats().Data().Events
		if vic > prop {
			t.Errorf("%s: victim increased misses %d -> %d", w.Name, prop, vic)
		}
	}
}

// TestLiListsAreRealPointers: the li kernel must truly chase cdr
// pointers through simulated memory (a regression guard for the data
// segment builder).
func TestLiListsAreRealPointers(t *testing.T) {
	w, err := ByName("130.li")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build()
	if len(prog.Data) == 0 {
		t.Fatal("li has no initialised heap")
	}
	cpu, err := vm.RunProgram(prog, trace.Discard, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Regs[7] == 0 {
		t.Error("li accumulated nothing: cars were never loaded")
	}
}

// TestRatesProduceValidGSPNInputs: every workload's measured rates
// must pass cpumodel validation for all four system/victim variants.
func TestRatesProduceValidGSPNInputs(t *testing.T) {
	for _, w := range All() {
		m := measure(t, w.Name)
		for _, integrated := range []bool{true, false} {
			for _, victim := range []bool{true, false} {
				r := m.Rates(integrated, victim)
				if err := r.Validate(); err != nil {
					t.Errorf("%s integrated=%v victim=%v: %v", w.Name, integrated, victim, err)
				}
			}
		}
	}
}

func TestDescriptionsPresent(t *testing.T) {
	for _, w := range All() {
		if !strings.Contains(w.Description, " ") {
			t.Errorf("%s: missing description", w.Name)
		}
	}
}
