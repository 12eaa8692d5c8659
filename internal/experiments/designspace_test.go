package experiments

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/workload"
)

// dsQuick returns the reduced-fidelity options the designspace tests
// share.
func dsQuick() Options {
	o := Quick()
	o.Budget = 50_000
	o.GSPNInstr = 2_000
	return o
}

// designPointReference is the pre-rewrite per-point path — one full
// trace pass per (geometry, bench) through CacheSet plus a GSPN run —
// kept as the oracle the family-shared path is verified against.
func designPointReference(o Options, dev core.Device, p DesignPoint, bench string) (DesignRow, error) {
	w, err := workload.ByName(bench)
	if err != nil {
		return DesignRow{}, err
	}
	cs := workload.NewCacheSetFor(dev, core.Reference())
	instr, err := o.source().Stream(w, o.Budget, cs)
	if err != nil {
		return DesignRow{}, err
	}
	m := &workload.Measurement{Workload: w, Caches: cs, Instr: instr}
	withVictim := p.VictimEntries > 0
	d := cs.PropDStats()
	if withVictim {
		d = cs.PropDVictimStats()
	}
	rates := m.Rates(true, withVictim)
	r, err := cpumodel.Evaluate(cpumodel.ConfigFor(dev), rates, o.GSPNInstr, o.Seed)
	if err != nil {
		return DesignRow{}, err
	}
	return DesignRow{
		Point:    p,
		Bench:    bench,
		IMissPct: cs.PropIStats().Ifetch.Percent(),
		DMissPct: d.Data().Percent(),
		AreaMM2:  dev.AreaMM2(),
		MemCPI:   r.MemCPI,
		TotalCPI: r.TotalCPI,
		HasCPI:   true,
	}, nil
}

// TestDesignspaceMatchesPerPoint is the search's equivalence anchor:
// on the seed 12-point grid, every row of the family-shared-pass search
// must match the pre-rewrite per-point path — one full CacheSet trace
// pass plus a GSPN run per (geometry, bench) — bit for bit, victim
// compounds included.
func TestDesignspaceMatchesPerPoint(t *testing.T) {
	o := dsQuick() // default axes: 3 banks x 2 columns x {0,16} victims = 12 points
	res := run[*DesignspaceResult](t, "designspace", o, nil)
	if len(res.Points) != 12 {
		t.Fatalf("default grid has %d points, want 12", len(res.Points))
	}
	base := o.Device()
	for _, p := range res.Points {
		dev := base.WithOrganisation(p.Banks, p.ColumnBytes, p.VictimEntries, p.Ways)
		for _, bench := range res.Benches {
			want, err := designPointReference(o, dev, p, bench)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := res.Row(p, bench)
			if !ok {
				t.Fatalf("no row for %s/%s", p, bench)
			}
			if got != want {
				t.Errorf("%s/%s:\n family %+v\n  point %+v", p, bench, got, want)
			}
		}
	}
	if a := res.Accounting; a.Passes > a.Families*a.Benches {
		t.Errorf("accounting: %d passes for %d families x %d benches", a.Passes, a.Families, a.Benches)
	}
}

// TestDesignspaceDeterministicAcrossWorkers: the assembled search —
// grid rows, frontier, accounting — must be byte-identical for any
// worker count, including workers > families (the family units racing
// each other, then the GSPN wave's units racing each other).
func TestDesignspaceDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) []byte {
		res := runJob(t, DesignspaceJob(dsQuick(), nil), workers, nil).(*DesignspaceResult)
		var buf bytes.Buffer
		for _, tab := range res.Tables() {
			tab.Render(&buf)
		}
		return buf.Bytes()
	}
	serial := render(1)
	for _, w := range []int{3, 8} {
		if got := render(w); !bytes.Equal(serial, got) {
			t.Errorf("workers=%d output differs from serial:\n--- serial ---\n%s\n--- j=%d ---\n%s",
				w, serial, w, got)
		}
	}
}

// TestDesignspacePassReduction runs a deliberately large lattice and
// checks the headline claim: trace passes stay at families × benches,
// a >= 50x reduction over per-point evaluation, and the GSPN runs only
// for screening-frontier candidates.
func TestDesignspacePassReduction(t *testing.T) {
	o := dsQuick()
	o.Budget = 20_000
	o.DSBanks = []int{4, 6, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64}
	o.DSColumns = []int{256, 512}
	o.DSWays = []int{1, 2, 4}
	o.DSVictims = []int{0, 16}
	res := run[*DesignspaceResult](t, "designspace", o, nil)
	a := res.Accounting
	if a.Lattice != 15*2*3*2 {
		t.Fatalf("lattice = %d points, want 180", a.Lattice)
	}
	if a.Passes > a.Families*a.Benches {
		t.Errorf("passes = %d, want <= %d (families x benches)", a.Passes, a.Families*a.Benches)
	}
	if reduction := a.Lattice / a.Families; reduction < 50 {
		t.Errorf("pass reduction = %dx (lattice %d / families %d), want >= 50x",
			reduction, a.Lattice, a.Families)
	}
	if a.GSPNEvals >= a.Lattice*a.Benches {
		t.Errorf("GSPN ran for all %d rows — screening did nothing", a.GSPNEvals)
	}
	if len(res.Frontier) == 0 {
		t.Error("empty Pareto frontier")
	}
	// Every frontier point must carry a real CPI from the GSPN stage.
	for _, f := range res.Frontier {
		row, ok := res.Row(f.Point, f.Bench)
		if !ok || !row.HasCPI {
			t.Errorf("frontier point %s/%s has no GSPN evaluation", f.Point, f.Bench)
		}
	}
}

// TestScreeningRecall measures what the GSPN screen misses on the
// designspace-128 benchmark lattice (banks 8..64:8, columns
// 256..2048:*2, ways 1,2, victims 0,16: 256 rows, so the screen runs).
// It GSPN-evaluates every (point, bench) row with the call the search's
// second wave makes, over the same family passes, and takes the Pareto
// frontier of all of them. The screened frontier must hold no row off
// that true frontier, and at least the 31 of 33 true rows it held when
// this test was written (EXPERIMENTS.md, "Searching at 10⁴–10⁵ points").
func TestScreeningRecall(t *testing.T) {
	const recallKept, recallTrue = 31, 33
	o := dsQuick()
	for b := 8; b <= 64; b += 8 {
		o.DSBanks = append(o.DSBanks, b)
	}
	o.DSColumns = []int{256, 512, 1024, 2048}
	o.DSWays = []int{1, 2}
	o.DSVictims = []int{0, 16}

	j := DesignspaceJob(o, nil)
	var sums []*workload.FamilySummary // family-major, bench-minor
	assemble := j.Assemble
	j.Assemble = func(parts []interface{}) (interface{}, error) {
		for _, p := range parts {
			sums = append(sums, p.(*workload.FamilySummary))
		}
		return assemble(parts)
	}
	res := runJob(t, j, 1, nil).(*DesignspaceResult)

	lat := newDesignLattice(o)
	columns, _ := lat.families()
	nb := len(res.Benches)
	all := &DesignspaceResult{Benches: res.Benches}
	for i, p := range lat.points {
		fp := workload.FamilyPoint{Banks: p.Banks, Ways: p.Ways, VictimEntries: p.VictimEntries}
		fi := sort.SearchInts(columns, p.ColumnBytes)
		for bi := range res.Benches {
			r, err := cpumodel.Evaluate(cpumodel.ConfigFor(lat.devs[i]), sums[fi*nb+bi].Rates(fp), o.GSPNInstr, o.Seed)
			if err != nil {
				t.Fatal(err)
			}
			row := res.Rows[i*nb+bi]
			row.MemCPI, row.TotalCPI, row.HasCPI = r.MemCPI, r.TotalCPI, true
			all.Rows = append(all.Rows, row)
		}
	}
	truth := map[FrontierRow]bool{}
	for _, f := range paretoFrontier(all) {
		truth[f] = true
	}
	kept := 0
	for _, f := range res.Frontier {
		if !truth[f] {
			t.Errorf("screened frontier row %s/%s (CPI %.4f) is not on the exhaustive frontier", f.Bench, f.Point, f.TotalCPI)
			continue
		}
		kept++
	}
	t.Logf("screen kept %d of %d true frontier rows with %d of %d GSPN evaluations",
		kept, len(truth), res.Accounting.GSPNEvals, len(all.Rows))
	if kept*recallTrue < recallKept*len(truth) {
		t.Errorf("screen kept %d of %d true frontier rows, recall below %d of %d", kept, len(truth), recallKept, recallTrue)
	}
}

// TestDesignspaceFrontierExport sanity-checks the two export formats.
func TestDesignspaceFrontierExport(t *testing.T) {
	o := dsQuick()
	o.DSBanks = []int{8, 16}
	o.DSColumns = []int{512}
	o.DSVictims = []int{0}
	res := run[*DesignspaceResult](t, "designspace", o, nil)
	var j, c bytes.Buffer
	if err := res.WriteFrontierJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteFrontierCSV(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(j.Bytes(), []byte(`"Frontier"`)) || !bytes.Contains(j.Bytes(), []byte(`"Accounting"`)) {
		t.Errorf("JSON export missing sections:\n%s", j.String())
	}
	lines := bytes.Count(c.Bytes(), []byte("\n"))
	if lines != 1+len(res.Frontier) {
		t.Errorf("CSV export has %d lines, want %d", lines, 1+len(res.Frontier))
	}
}
