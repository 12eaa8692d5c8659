package experiments

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/sweep"
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

// TestDesignspaceRefinementZeroIsExhaustive: with a stride-1 coarse
// grid there is nothing to refine — any refinement budget must
// reproduce the exhaustive result byte for byte, with zero rounds
// spent.
func TestDesignspaceRefinementZeroIsExhaustive(t *testing.T) {
	render := func(refine int) []byte {
		o := dsQuick()
		o.DSCoarse = 1
		o.DSRefine = refine
		res := run[*DesignspaceResult](t, "designspace", o, nil)
		if res.Accounting.Rounds != 0 {
			t.Errorf("refine=%d: %d rounds spent on an exhaustive grid", refine, res.Accounting.Rounds)
		}
		var buf bytes.Buffer
		for _, tab := range res.Tables() {
			tab.Render(&buf)
		}
		return buf.Bytes()
	}
	if a, b := render(0), render(5); !bytes.Equal(a, b) {
		t.Errorf("exhaustive grid changed under refinement budget:\n--- refine=0 ---\n%s\n--- refine=5 ---\n%s", a, b)
	}
}

// TestDesignspaceRefinementConverges: a strided coarse grid plus
// refinement must (a) evaluate strictly fewer points than the lattice,
// (b) spend at least one round, and (c) cost no additional trace
// passes over the unrefined run.
func TestDesignspaceRefinementConverges(t *testing.T) {
	o := dsQuick()
	o.Budget = 20_000
	for b := 4; b <= 96; b += 4 {
		o.DSBanks = append(o.DSBanks, b) // 24 lattice indices on the banks axis
	}
	o.DSColumns = []int{256, 512}
	o.DSWays = []int{1, 2}
	o.DSVictims = []int{0, 16}
	o.DSCoarse = 6 // coarse banks indices {0, 6, 12, 18, 23}
	o.DSRefine = 1 // one round reaches only index-neighbours of those
	res := run[*DesignspaceResult](t, "designspace", o, nil)
	a := res.Accounting
	if a.Evaluated >= a.Lattice {
		t.Errorf("refined search evaluated %d of %d lattice points — no saving", a.Evaluated, a.Lattice)
	}
	if a.Rounds < 1 {
		t.Errorf("refinement spent %d rounds, want >= 1", a.Rounds)
	}
	if a.Passes > a.Families*a.Benches {
		t.Errorf("refinement cost extra passes: %d > %d families x %d benches",
			a.Passes, a.Families, a.Benches)
	}
	if len(res.Frontier) == 0 {
		t.Error("empty Pareto frontier")
	}
}

// TestDesignspaceDeterministicAcrossWorkers: the assembled search —
// grid rows, frontier, accounting — must be byte-identical for any
// worker count, including workers > families (the family units plus
// the nested GSPN stage all racing).
func TestDesignspaceDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) []byte {
		o := dsQuick()
		o.Workers = workers
		eng := &sweep.Engine{Workers: workers}
		v, err := eng.RunJob(context.Background(), DesignspaceJob(o, nil))
		if err != nil {
			t.Fatal(err)
		}
		res := v.(*DesignspaceResult)
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
	if reduction := a.Evaluated / a.Families; reduction < 50 {
		t.Errorf("pass reduction = %dx (evaluated %d / families %d), want >= 50x",
			reduction, a.Evaluated, a.Families)
	}
	if a.GSPNEvals >= a.Evaluated*a.Benches {
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

// TestWithOrganisationMatchesWithGeometry pins the designspace device
// derivation to the PR 4 path at the base associativity.
func TestWithOrganisationMatchesWithGeometry(t *testing.T) {
	base := core.Proposed()
	a := base.WithOrganisation(32, 256, 8, base.DCacheWays)
	b := base.WithGeometry(32, 256, 8)
	if a != b {
		t.Errorf("WithOrganisation(base ways) != WithGeometry:\n a %+v\n b %+v", a, b)
	}
}
