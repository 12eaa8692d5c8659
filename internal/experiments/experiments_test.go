package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Shared quick options + measurement cache for the whole package test.
var (
	topts = func() Options {
		o := Quick()
		o.Budget = 250_000
		o.GSPNInstr = 15_000
		o.Procs = []int{1, 4}
		return o
	}()
	tms = NewMeasurementSet(topts)
)

// run builds the named experiment from the registry and runs it
// serially, the engine's reference schedule.
func run[T any](t testing.TB, name string, o Options, ms *MeasurementSet) T {
	t.Helper()
	j, err := JobFor(name, o, ms)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sweep.RunSerial(j)
	if err != nil {
		t.Fatal(err)
	}
	return v.(T)
}

func TestFig7EndToEnd(t *testing.T) {
	r := run[*Fig7Result](t, "fig7", topts, tms)
	if len(r.Rows) != 22 {
		t.Fatalf("%d rows, want 22 (SPEC + synopsys + real kernels)", len(r.Rows))
	}
	tbl := r.Table().String()
	for _, want := range []string{"Figure 7", "145.fpppp", "125.turb3d", "gemm", "bfs", "hashjoin"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestFig8EndToEnd(t *testing.T) {
	r := run[*Fig8Result](t, "fig8", topts, tms)
	if len(r.Rows) != 22 {
		t.Fatalf("%d rows, want 22 (SPEC + synopsys + real kernels)", len(r.Rows))
	}
	// Spot-check the paper's central Figure 8 story on tomcatv.
	for _, row := range r.Rows {
		if row.Bench != "101.tomcatv" {
			continue
		}
		prop := row.PropLoad + row.PropStore
		vic := row.VicLoad + row.VicStore
		if vic >= prop {
			t.Errorf("tomcatv: victim %.2f%% should beat plain %.2f%%", vic, prop)
		}
		if prop <= row.ConvDM[16] {
			t.Errorf("tomcatv: plain proposed %.2f%% should exceed conv DM16 %.2f%%",
				prop, row.ConvDM[16])
		}
	}
}

func TestTables34EndToEnd(t *testing.T) {
	t3 := run[*CPIResult](t, "table3", topts, tms)
	t4 := run[*CPIResult](t, "table4", topts, tms)
	if len(t3.Rows) != 18 || len(t4.Rows) != 18 {
		t.Fatalf("row counts %d/%d, want 18", len(t3.Rows), len(t4.Rows))
	}
	byName := func(rs []CPIRow, n string) CPIRow {
		for _, r := range rs {
			if r.Bench == n {
				return r
			}
		}
		t.Fatalf("missing %s", n)
		return CPIRow{}
	}
	// Victim cache must slash the conflict benchmarks' memory CPI.
	for _, n := range []string{"101.tomcatv", "102.swim", "103.su2cor", "146.wave5"} {
		no := byName(t3.Rows, n)
		yes := byName(t4.Rows, n)
		if yes.MemCPI > no.MemCPI/2 {
			t.Errorf("%s: victim mem CPI %.3f vs %.3f — want >= 2x reduction",
				n, yes.MemCPI, no.MemCPI)
		}
	}
	// Table 4 totals should land near the paper's (loose band: the
	// workloads are stand-ins).
	for _, r := range t4.Rows {
		if r.PaperTotalCPI == 0 {
			continue
		}
		ratio := r.TotalCPI / r.PaperTotalCPI
		if ratio < 0.75 || ratio > 1.45 {
			t.Errorf("%s: total CPI %.2f vs paper %.2f (ratio %.2f outside [0.75,1.45])",
				r.Bench, r.TotalCPI, r.PaperTotalCPI, ratio)
		}
	}
	// Paper drift, bench/iramperf's experiments.cpi_err_vs_paper: the
	// mean |TotalCPI - paper| / paper over the 36 rows of Tables 3 and
	// 4. At these options it reads 0.0661 at seed 1 and 0.0661-0.0685
	// over seeds 1-6; the ceiling is seed 1 plus twice that spread.
	var errSum float64
	var rows int
	for _, rs := range [][]CPIRow{t3.Rows, t4.Rows} {
		for _, r := range rs {
			if r.PaperTotalCPI > 0 {
				errSum += math.Abs(r.TotalCPI-r.PaperTotalCPI) / r.PaperTotalCPI
				rows++
			}
		}
	}
	if drift := errSum / float64(rows); rows != 36 || drift > 0.071 {
		t.Errorf("mean CPI error vs paper %.4f over %d rows, want at most 0.071 over 36", drift, rows)
	}
	// Rendering includes the Alpha column only for Table 4.
	if strings.Contains(t3.Table().String(), "Alpha") {
		t.Error("Table 3 must not include the Alpha column")
	}
	if !strings.Contains(t4.Table().String(), "Alpha") {
		t.Error("Table 4 must include the Alpha column")
	}
}

// TestRealCPIEndToEnd: the real-program kernels evaluate through both
// system models and the integrated device comes out ahead — the memory
// wall argument made with programs that actually compute something.
func TestRealCPIEndToEnd(t *testing.T) {
	r := run[*RealCPIResult](t, "realcpi", topts, tms)
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.BaseCPI < 1 {
			t.Errorf("%s: BaseCPI %.2f below 1", row.Bench, row.BaseCPI)
		}
		if row.IntTotalCPI <= row.BaseCPI {
			t.Errorf("%s: integrated total %.3f not above base %.3f", row.Bench, row.IntTotalCPI, row.BaseCPI)
		}
		if row.Speedup <= 1 {
			t.Errorf("%s: integrated system not faster (speedup %.2f)", row.Bench, row.Speedup)
		}
	}
	tbl := r.Table().String()
	for _, want := range []string{"gemm", "bfs", "hashjoin", "speedup"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

// cpiAt returns the CPI for a bench at given latencies (slc 0 = any).
func (r *LatencyResult) cpiAt(bench string, slc, mem float64) (float64, bool) {
	for _, p := range r.Points {
		if p.Bench == bench && (slc == 0 || p.SLCCycles == slc) && p.MemCycles == mem {
			return p.CPI, true
		}
	}
	return 0, false
}

func TestFig11Fig12EndToEnd(t *testing.T) {
	f11 := run[*LatencyResult](t, "fig11", topts, tms)
	f12 := run[*LatencyResult](t, "fig12", topts, tms)
	// CPI grows with memory latency in both systems.
	lo, ok1 := f11.cpiAt("126.gcc", 6, 6)
	hi, ok2 := f11.cpiAt("126.gcc", 6, 60)
	if !ok1 || !ok2 || hi <= lo {
		t.Errorf("Fig11 gcc: CPI(60cy)=%.3f should exceed CPI(6cy)=%.3f", hi, lo)
	}
	lo12, ok1 := f12.cpiAt("126.gcc", 0, 2)
	hi12, ok2 := f12.cpiAt("126.gcc", 0, 20)
	if !ok1 || !ok2 || hi12 <= lo12 {
		t.Errorf("Fig12 gcc: CPI(20cy)=%.3f should exceed CPI(2cy)=%.3f", hi12, lo12)
	}
	// Paper's headline: at the 30 ns (6-cycle) operating point the
	// integrated CPI impact is modest (10-25% in the paper; allow a
	// wider band for the stand-in workloads).
	cpi6, _ := f12.cpiAt("126.gcc", 0, 6)
	base := 1.01
	if over := cpi6/base - 1; over > 0.4 {
		t.Errorf("Fig12 gcc at 6 cycles: %.0f%% above base, want modest", 100*over)
	}
}

func TestBanksEndToEnd(t *testing.T) {
	r := run[*BankResult](t, "banks", topts, tms)
	// CPI differences across integrated bank counts are small (paper:
	// below simulation noise), and per-bank utilisation rises as banks
	// shrink.
	var cpi4, cpi16, util4, util16 float64
	for _, row := range r.Rows {
		if !row.Integrated || row.Bench != "126.gcc" {
			continue
		}
		switch row.Banks {
		case 4:
			cpi4, util4 = row.MemCPI, row.Utilization
		case 16:
			cpi16, util16 = row.MemCPI, row.Utilization
		}
	}
	if diff := cpi4 - cpi16; diff < -0.05 || diff > 0.05 {
		t.Errorf("gcc: bank-count CPI difference %.3f, want ~0 (paper: below noise)", diff)
	}
	if util4 <= util16 {
		t.Errorf("per-bank utilisation must rise with fewer banks: %.4f vs %.4f", util4, util16)
	}
}

// TestBanksFollowSeed: -seed drives the bank ensembles like every
// other Monte-Carlo run; seed s runs seeds s to s+4. Builds that ran
// seeds 1-5 at every seed stored those rows under the seed's key, so
// away from seed 1 the key must differ from theirs.
func TestBanksFollowSeed(t *testing.T) {
	o2 := topts
	o2.Seed = 2
	r1 := run[*BankResult](t, "banks", topts, tms)
	r2 := run[*BankResult](t, "banks", o2, tms)
	if reflect.DeepEqual(r1, r2) {
		t.Error("banks at seed 2 equals seed 1: the ensembles ignore the seed")
	}
	j, err := JobFor("banks", o2, tms)
	if err != nil {
		t.Fatal(err)
	}
	old := newKeyer("banks", o2, fmt.Sprintf("budget=%d", o2.Budget), fmt.Sprintf("gspn=%d", o2.GSPNInstr))
	for _, u := range j.Units {
		if u.Key == old.key(u.Name, o2.Seed, bankCodec.schema()) {
			t.Errorf("%s: seed-2 key would serve an entry computed from seeds 1-5", u.Name)
		}
	}
}

func TestTable1EndToEnd(t *testing.T) {
	r := run[*Table1Result](t, "table1", topts, nil)
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	ss5, ss10 := r.Rows[0], r.Rows[1]
	if ss5.SpecInt92 >= ss10.SpecInt92 {
		t.Error("published SPEC'92 must favour the SS-10/61")
	}
	if ss5.ModelNsPerInst >= ss10.ModelNsPerInst {
		t.Errorf("the SS-5 must win the >50MB workload: %.1f vs %.1f ns/instr",
			ss5.ModelNsPerInst, ss10.ModelNsPerInst)
	}
	// The inversion factor should be in the neighbourhood of the
	// paper's 44/32 = 1.38.
	ratio := ss10.ModelNsPerInst / ss5.ModelNsPerInst
	if ratio < 1.1 || ratio > 2.0 {
		t.Errorf("SS-5 advantage %.2fx, want ~1.4x", ratio)
	}
}

func TestFig2EndToEnd(t *testing.T) {
	r := run[*Fig2Result](t, "fig2", topts, nil)
	// Crossover: SS-10 faster at 256 KB, SS-5 faster at 16 MB.
	in5 := r.AvgNs["SS-5"][256<<10][512]
	in10 := r.AvgNs["SS-10/61"][256<<10][512]
	out5 := r.AvgNs["SS-5"][16<<20][512]
	out10 := r.AvgNs["SS-10/61"][16<<20][512]
	if in10 >= in5 {
		t.Errorf("inside L2: SS-10 %.0f should beat SS-5 %.0f", in10, in5)
	}
	if out5 >= out10 {
		t.Errorf("beyond L2: SS-5 %.0f should beat SS-10 %.0f", out5, out10)
	}
	// The prefetch footnote: SS-10's small-stride latency beyond the
	// caches stays low.
	if seq := r.AvgNs["SS-10/61"][16<<20][16]; seq > out10/2 {
		t.Errorf("SS-10 prefetch not visible: stride16 %.0f vs stride512 %.0f", seq, out10)
	}
}

func TestSplashFigures(t *testing.T) {
	for _, name := range []string{"fig13", "fig14", "fig15", "fig16", "fig17"} {
		r := run[*SplashResult](t, name, topts, nil)
		if len(r.Points) != len(topts.Procs)*3 {
			t.Errorf("%s: %d points", name, len(r.Points))
		}
		if _, ok := r.Cycles(coherence.IntegratedVictim, 4); !ok {
			t.Errorf("%s: missing victim config", name)
		}
		if !strings.Contains(r.Table().String(), r.Bench) {
			t.Errorf("%s: table missing benchmark name", name)
		}
	}
	if _, err := JobFor("fig99", topts, nil); err == nil {
		t.Error("JobFor accepted a bogus figure")
	}
}

func TestCostTable(t *testing.T) {
	out := Cost().String()
	for _, want := range []string{"$800", "ECC", "mm2"} {
		if !strings.Contains(out, want) {
			t.Errorf("cost table missing %q:\n%s", want, out)
		}
	}
}

func TestMeasurementSetCaches(t *testing.T) {
	ms := NewMeasurementSet(topts)
	w := mustWorkload(t, "132.ijpeg")
	m1, err := ms.Get(w)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ms.Get(w)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("MeasurementSet re-ran a cached workload")
	}
}

func mustWorkload(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFabricExperiment(t *testing.T) {
	tab, err := Fabric(topts.Device())
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, want := range []string{"bisection", "256", "200"} {
		if !strings.Contains(out, want) {
			t.Errorf("fabric table missing %q", want)
		}
	}
}

func TestFig2IntegratedFlat(t *testing.T) {
	r := run[*Fig2Result](t, "fig2", topts, nil)
	small := r.AvgNs["Integrated"][64<<10][512]
	big := r.AvgNs["Integrated"][16<<20][512]
	if big > 31 {
		t.Errorf("integrated latency at 16MB = %.1f ns, want <= ~30", big)
	}
	if big < small {
		t.Errorf("integrated latency shrank with size: %.1f vs %.1f", big, small)
	}
	// And it beats both workstations beyond the caches.
	if big >= r.AvgNs["SS-5"][16<<20][512] {
		t.Error("integrated device should beat the SS-5 beyond the caches")
	}
}

func TestGeoMeans(t *testing.T) {
	r := run[*CPIResult](t, "table4", topts, tms)
	im, ip, fm, fp := r.GeoMeans()
	if im <= 0 || fm <= 0 {
		t.Fatalf("degenerate geomeans: %v %v", im, fm)
	}
	// Measured means should track the paper's within ~20%.
	if im/ip > 1.2 || ip/im > 1.2 {
		t.Errorf("SPECint geomean %0.1f vs paper %0.1f", im, ip)
	}
	if fm/fp > 1.2 || fp/fm > 1.2 {
		t.Errorf("SPECfp geomean %0.1f vs paper %0.1f", fm, fp)
	}
	if !strings.Contains(r.Table().String(), "geometric means") {
		t.Error("geomeans missing from rendered table")
	}
}
