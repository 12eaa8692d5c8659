package cpumodel

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// perfect returns rates for an application that never misses.
func perfect() AppRates {
	return AppRates{
		Name: "perfect", BaseCPI: 1,
		LoadFrac: 0.25, StoreFrac: 0.10,
		IHit: 1, LoadHit: 1, StoreHit: 1,
		IL2Hit: 1, LoadL2Hit: 1, StoreL2Hit: 1,
	}
}

// gccLike is a realistic reference mix with light bank contention.
func gccLike() AppRates {
	return AppRates{
		Name: "gcc-like", BaseCPI: 1.01,
		LoadFrac: 0.23, StoreFrac: 0.09,
		IHit: 0.985, LoadHit: 0.97, StoreHit: 0.97,
	}
}

const testInstr = 20000

// TestPerfectCachesCPIOne: with 100% hit rates the pipeline issues one
// instruction per cycle, so the memory CPI component is ~0.
func TestPerfectCachesCPIOne(t *testing.T) {
	for _, cfg := range []SystemConfig{ConfigFor(core.Proposed()), ConfigFor(core.Reference())} {
		r, err := Evaluate(cfg, perfect(), testInstr, 1)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if r.MemCPI > 0.01 {
			t.Errorf("%s: MemCPI = %v with perfect caches, want ~0", cfg.Name, r.MemCPI)
		}
		if math.Abs(r.TotalCPI-1) > 0.01 {
			t.Errorf("%s: TotalCPI = %v, want ~1", cfg.Name, r.TotalCPI)
		}
	}
}

// TestIMissPenalty: with every ifetch missing to memory and no data
// traffic, each instruction pays roughly the memory latency on top of
// its issue cycle.
func TestIMissPenalty(t *testing.T) {
	app := perfect()
	app.LoadFrac, app.StoreFrac = 0, 0
	app.IHit = 0
	app.IL2Hit = 0
	cfg := ConfigFor(core.Proposed())
	r, err := Evaluate(cfg, app, testInstr, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Every fetch goes to a random bank: 6-cycle access, plus rare
	// precharge queueing when the same bank is hit twice in a row.
	if r.MemCPI < cfg.MemCycles-0.5 || r.MemCPI > cfg.MemCycles+2 {
		t.Errorf("MemCPI = %v, want ≈ %v", r.MemCPI, cfg.MemCycles)
	}
}

// TestLoadMissStallNoScoreboard: without scoreboarding, a load miss
// stalls the CPU for the full memory latency; the expected memory CPI
// is loadFrac × missRate × latency (plus small queueing effects).
func TestLoadMissStallNoScoreboard(t *testing.T) {
	app := perfect()
	app.LoadHit = 0.5
	cfg := ConfigFor(core.Proposed())
	cfg.ScoreboardRate = 0 // stall immediately
	r, err := Evaluate(cfg, app, testInstr, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := app.LoadFrac * (1 - app.LoadHit) * cfg.MemCycles
	if r.MemCPI < want*0.8 || r.MemCPI > want*1.5 {
		t.Errorf("MemCPI = %v, want ≈ %v", r.MemCPI, want)
	}
}

// TestScoreboardingHidesLatency: with scoreboarding (rate 1), about one
// instruction issues under each outstanding load, so the stall CPI is
// lower than without scoreboarding.
func TestScoreboardingHidesLatency(t *testing.T) {
	app := perfect()
	app.LoadHit = 0.5
	with := ConfigFor(core.Proposed())
	without := ConfigFor(core.Proposed())
	without.ScoreboardRate = 0
	rw, err := Evaluate(with, app, testInstr, 4)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Evaluate(without, app, testInstr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rw.MemCPI >= ro.MemCPI {
		t.Errorf("scoreboarding did not help: with=%v without=%v", rw.MemCPI, ro.MemCPI)
	}
	// It should hide roughly one cycle per miss, not eliminate the cost.
	if rw.MemCPI < ro.MemCPI/3 {
		t.Errorf("scoreboarding hides too much: with=%v without=%v", rw.MemCPI, ro.MemCPI)
	}
}

// TestL2ReducesPenalty: in the reference system, a higher conditional
// L2 hit rate strictly reduces memory CPI.
func TestL2ReducesPenalty(t *testing.T) {
	app := perfect()
	app.LoadHit = 0.7
	app.LoadL2Hit = 0.0
	cfg := ConfigFor(core.Reference())
	rNoL2, err := Evaluate(cfg, app, testInstr, 5)
	if err != nil {
		t.Fatal(err)
	}
	app.LoadL2Hit = 0.95
	rL2, err := Evaluate(cfg, app, testInstr, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rL2.MemCPI >= rNoL2.MemCPI {
		t.Errorf("L2 hits did not reduce CPI: %v vs %v", rL2.MemCPI, rNoL2.MemCPI)
	}
}

// TestMissRateMonotonicity: memory CPI grows monotonically (within
// noise) as the data miss rate rises.
func TestMissRateMonotonicity(t *testing.T) {
	var prev float64
	for i, hit := range []float64{1.0, 0.95, 0.85, 0.7, 0.5} {
		app := perfect()
		app.LoadHit = hit
		app.StoreHit = hit
		r, err := Evaluate(ConfigFor(core.Proposed()), app, testInstr, 6)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && r.MemCPI+0.02 < prev {
			t.Errorf("MemCPI not monotone: hit=%v gives %v, previous %v", hit, r.MemCPI, prev)
		}
		prev = r.MemCPI
	}
}

// TestBankUtilizationLowForRealisticRates: the paper reports per-bank
// utilisation around 1–2% for gcc on 16 banks; a realistic miss mix
// must give low utilisation here too.
func TestBankUtilizationLowForRealisticRates(t *testing.T) {
	r, err := Evaluate(ConfigFor(core.Proposed()), gccLike(), testInstr, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.BankUtilization > 0.05 {
		t.Errorf("bank utilisation = %v, want < 5%%", r.BankUtilization)
	}
}

// TestFewerBanksMoreContention: with a high miss rate, fewer banks must
// not reduce CPI, and utilisation per bank must rise.
func TestFewerBanksMoreContention(t *testing.T) {
	app := perfect()
	app.IHit = 0.7
	app.LoadHit = 0.5
	cfg16 := ConfigFor(core.Proposed())
	cfg2 := ConfigFor(core.Proposed())
	cfg2.Banks = 2
	r16, err := Evaluate(cfg16, app, testInstr, 8)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Evaluate(cfg2, app, testInstr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r2.MemCPI+0.05 < r16.MemCPI {
		t.Errorf("2 banks beat 16 banks: %v vs %v", r2.MemCPI, r16.MemCPI)
	}
	if r2.BankUtilization <= r16.BankUtilization {
		t.Errorf("per-bank utilisation did not rise with fewer banks: %v vs %v",
			r2.BankUtilization, r16.BankUtilization)
	}
}

// TestValidateRejectsBadRates exercises AppRates.Validate.
func TestValidateRejectsBadRates(t *testing.T) {
	cases := []func(*AppRates){
		func(a *AppRates) { a.IHit = 1.5 },
		func(a *AppRates) { a.LoadHit = -0.1 },
		func(a *AppRates) { a.LoadFrac = 0.8; a.StoreFrac = 0.5 },
		func(a *AppRates) { a.BaseCPI = 0.5 },
	}
	for i, mutate := range cases {
		app := perfect()
		mutate(&app)
		if err := app.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid rates %+v", i, app)
		}
	}
	good := perfect()
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected valid rates: %v", err)
	}
}

// TestStoresDoNotStall: a store-miss-heavy workload stalls far less
// than a load-miss-heavy one, because the store buffer decouples the
// pipeline (stores only occupy the LSU).
func TestStoresDoNotStall(t *testing.T) {
	ldApp := perfect()
	ldApp.LoadFrac, ldApp.StoreFrac = 0.25, 0.0
	ldApp.LoadHit = 0.6
	stApp := perfect()
	stApp.LoadFrac, stApp.StoreFrac = 0.0, 0.25
	stApp.StoreHit = 0.6
	rl, err := Evaluate(ConfigFor(core.Proposed()), ldApp, testInstr, 9)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Evaluate(ConfigFor(core.Proposed()), stApp, testInstr, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rs.MemCPI >= rl.MemCPI {
		t.Errorf("store misses stall as much as load misses: stores=%v loads=%v",
			rs.MemCPI, rl.MemCPI)
	}
}

// TestReproducible: same seed gives identical results.
func TestReproducible(t *testing.T) {
	app := perfect()
	app.LoadHit = 0.9
	app.IHit = 0.95
	r1, err := Evaluate(ConfigFor(core.Proposed()), app, testInstr, 42)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Evaluate(ConfigFor(core.Proposed()), app, testInstr, 42)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("same seed diverged: %+v vs %+v", r1, r2)
	}
}

// TestNetShape pins the Figure 9/10 topology: the integrated net has
// 16 bank subnets and no L2 plumbing; the reference adds the grey
// components (L2 paths and the shared port) with only 2 banks.
func TestNetShape(t *testing.T) {
	integ, err := Build(ConfigFor(core.Proposed()), perfect())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Build(ConfigFor(core.Reference()), perfect())
	if err != nil {
		t.Fatal(err)
	}
	is, rs := integ.Shape(), ref.Shape()
	if is.Banks != 16 || rs.Banks != 2 {
		t.Errorf("banks: integrated %d / reference %d", is.Banks, rs.Banks)
	}
	if is.HasL2 || !rs.HasL2 {
		t.Error("L2 flags wrong")
	}
	if is.Exponential != 1 || rs.Exponential != 1 {
		t.Errorf("T23 count: %d / %d, want 1 each", is.Exponential, rs.Exponential)
	}
	// Integrated: 3 bank paths × 16 banks × 2 timed + issue + 2 hit-done
	// deterministic transitions.
	if want := 3*16*2 + 3; is.Deterministic != want {
		t.Errorf("integrated deterministic transitions = %d, want %d", is.Deterministic, want)
	}
	// Reference: 3 bank paths × 2 banks × 2 timed + 3 L2 access + issue
	// + 2 hit-done.
	if want := 3*2*2 + 3 + 3; rs.Deterministic != want {
		t.Errorf("reference deterministic transitions = %d, want %d", rs.Deterministic, want)
	}
	if is.Places == 0 || is.Immediate == 0 {
		t.Error("empty shape")
	}
}

// analyticMemCPI returns a closed-form first-order approximation of
// the memory CPI component, ignoring bank contention and scoreboard
// overlap:
//
//	CPI_mem ≈ missI·Tmem' + fL·missL·Tload' + (store drain stalls ≈ 0)
//
// where Tmem' folds the conditional L2 hit when present. It is the
// oracle for TestAnalyticAgreesWithGSPN: the Monte-Carlo result must
// land near this value whenever contention is light, and above it when
// contention matters.
func analyticMemCPI(cfg SystemConfig, app AppRates) float64 {
	memI := cfg.MemCycles
	memD := cfg.MemCycles
	if cfg.HasL2 {
		memI = app.IL2Hit*cfg.L2Cycles + (1-app.IL2Hit)*(cfg.L2Cycles+cfg.MemCycles)
		memD = app.LoadL2Hit*cfg.L2Cycles + (1-app.LoadL2Hit)*(cfg.L2Cycles+cfg.MemCycles)
	}
	overlap := 0.0
	if cfg.ScoreboardRate > 0 {
		overlap = 1 / cfg.ScoreboardRate // instructions issued under the miss
	}
	loadStall := memD - overlap
	if loadStall < 0 {
		loadStall = 0
	}
	return (1-app.IHit)*memI + app.LoadFrac*(1-app.LoadHit)*loadStall
}

// TestAnalyticAgreesWithGSPN cross-validates the Monte-Carlo model
// against the closed-form first-order approximation at light load.
func TestAnalyticAgreesWithGSPN(t *testing.T) {
	apps := []AppRates{
		{Name: "light", BaseCPI: 1, LoadFrac: 0.2, StoreFrac: 0.05,
			IHit: 0.99, LoadHit: 0.98, StoreHit: 0.98},
		{Name: "moderate", BaseCPI: 1, LoadFrac: 0.25, StoreFrac: 0.1,
			IHit: 0.97, LoadHit: 0.92, StoreHit: 0.95},
	}
	for _, app := range apps {
		want := analyticMemCPI(ConfigFor(core.Proposed()), app)
		r, err := Evaluate(ConfigFor(core.Proposed()), app, 40_000, 11)
		if err != nil {
			t.Fatal(err)
		}
		// The GSPN includes contention and store-drain effects the
		// analytic form omits, so it may exceed the approximation
		// slightly, but must track it.
		if r.MemCPI < want*0.7 || r.MemCPI > want*1.6+0.02 {
			t.Errorf("%s: GSPN %.4f vs analytic %.4f", app.Name, r.MemCPI, want)
		}
	}
}

// TestEvaluateSeeds: an N-seed Evaluate is the running mean of N
// one-seed calls, added in seed order, bit for bit; one seed carries no
// interval; no seed is an error.
func TestEvaluateSeeds(t *testing.T) {
	cfg := ConfigFor(core.Proposed())
	seeds := []int64{3, 1, 4, 5}
	var mem, total, util stats.Running
	for _, seed := range seeds {
		r, err := Evaluate(cfg, gccLike(), 5000, seed)
		if err != nil {
			t.Fatal(err)
		}
		if r.MemCPICI95 != 0 {
			t.Errorf("seed %d: one seed gives MemCPICI95 = %v, want 0", seed, r.MemCPICI95)
		}
		mem.Add(r.MemCPI)
		total.Add(r.TotalCPI)
		util.Add(r.BankUtilization)
	}
	got, err := Evaluate(cfg, gccLike(), 5000, seeds...)
	if err != nil {
		t.Fatal(err)
	}
	want := Result{
		MemCPI:          mem.Mean(),
		TotalCPI:        total.Mean(),
		BankUtilization: util.Mean(),
		MemCPICI95:      mem.CI95(),
	}
	if got != want {
		t.Errorf("%d-seed Evaluate = %+v, want the running mean %+v", len(seeds), got, want)
	}
	if got.MemCPICI95 <= 0 {
		t.Errorf("%d seeds give MemCPICI95 = %v, want > 0", len(seeds), got.MemCPICI95)
	}
	if _, err := Evaluate(cfg, gccLike(), 5000); err == nil {
		t.Error("zero seeds accepted")
	}
}

// TestEnsembleNoise: the §5.6 claim made measurable — bank-count CPI
// differences for a realistic mix are within the ensembles' combined
// 95% intervals, while a genuinely different configuration is not.
func TestEnsembleNoise(t *testing.T) {
	app := gccLike()
	seeds := []int64{1, 2, 3, 4, 5}
	cfg16 := ConfigFor(core.Proposed())
	cfg4 := ConfigFor(core.Proposed())
	cfg4.Banks = 4
	e16, err := Evaluate(cfg16, app, 15_000, seeds...)
	if err != nil {
		t.Fatal(err)
	}
	e4, err := Evaluate(cfg4, app, 15_000, seeds...)
	if err != nil {
		t.Fatal(err)
	}
	if !WithinNoise(e16, e4) {
		t.Errorf("4 vs 16 banks differ beyond noise: %.4f±%.4f vs %.4f±%.4f",
			e4.MemCPI, e4.MemCPICI95, e16.MemCPI, e16.MemCPICI95)
	}
	// A much slower memory is NOT within noise.
	slow := ConfigFor(core.Proposed())
	slow.MemCycles = 30
	eSlow, err := Evaluate(slow, app, 15_000, seeds...)
	if err != nil {
		t.Fatal(err)
	}
	if WithinNoise(e16, eSlow) {
		t.Error("a 5x memory latency change should exceed simulation noise")
	}
	if _, err := Evaluate(cfg16, app, 1000); err == nil {
		t.Error("zero seeds accepted")
	}
}
