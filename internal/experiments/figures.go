package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/memsys"
	"repro/internal/paperref"
	"repro/internal/report"
	"repro/internal/stackdist"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------
// Figures 11 & 12: CPI sensitivity to cache/memory latency.
// ---------------------------------------------------------------------

// LatencyPoint is one (latency, CPI) sample for one application.
type LatencyPoint struct {
	Bench     string
	SLCCycles float64 // conventional system (Figure 11) only
	MemCycles float64
	CPI       float64
}

// LatencyResult is a Figure 11 or Figure 12 data set.
type LatencyResult struct {
	Conventional bool
	Points       []LatencyPoint
}

// fig1112Benches are the paper's representative high/low-CPI pair.
var fig1112Benches = []string{"141.apsi", "126.gcc"}

// Fig11Job enumerates Figure 11, the conventional reference CPU's CPI
// over second-level-cache and memory latency (141.apsi and 126.gcc, as
// in the paper), as one unit per benchmark; each unit runs that
// benchmark's full latency grid through the GSPN.
func Fig11Job(o Options, ms *MeasurementSet) sweep.Job {
	k := newKeyer("fig11", o,
		fmt.Sprintf("budget=%d", o.Budget), fmt.Sprintf("gspn=%d", o.GSPNInstr))
	units := make([]sweep.Unit, len(fig1112Benches))
	for i, name := range fig1112Benches {
		units[i] = cached(k, "fig11/"+name, o.Seed, latencyCodec, func() ([]LatencyPoint, error) { return fig11Bench(o, ms, name) })
	}
	return job("fig11", units, func(parts [][]LatencyPoint) (interface{}, error) {
		return &LatencyResult{Conventional: true, Points: concat(parts)}, nil
	})
}

// fig11Bench runs one benchmark's SLC × memory latency grid.
func fig11Bench(o Options, ms *MeasurementSet, name string) ([]LatencyPoint, error) {
	slcLats := []float64{2, 4, 6, 10, 14, 20}
	memLats := []float64{6, 12, 20, 30, 40, 60}
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	m, err := ms.Get(w)
	if err != nil {
		return nil, err
	}
	rates := m.Rates(false, false)
	var points []LatencyPoint
	for _, slc := range slcLats {
		for _, mem := range memLats {
			cfg := cpumodel.ConfigFor(core.Reference())
			cfg.L2Cycles = slc
			cfg.MemCycles = mem
			cfg.PrechargeCycles = mem / 2
			r, err := cpumodel.Evaluate(cfg, rates, o.GSPNInstr, o.Seed)
			if err != nil {
				return nil, err
			}
			points = append(points, LatencyPoint{
				Bench: name, SLCCycles: slc, MemCycles: mem, CPI: r.TotalCPI,
			})
		}
	}
	return points, nil
}

// Fig12Job enumerates Figure 12, the integrated CPU's CPI over memory
// latency, as one unit per benchmark.
func Fig12Job(o Options, ms *MeasurementSet) sweep.Job {
	k := newKeyer("fig12", o,
		fmt.Sprintf("budget=%d", o.Budget), fmt.Sprintf("gspn=%d", o.GSPNInstr))
	units := make([]sweep.Unit, len(fig1112Benches))
	for i, name := range fig1112Benches {
		units[i] = cached(k, "fig12/"+name, o.Seed, latencyCodec, func() ([]LatencyPoint, error) { return fig12Bench(o, ms, name) })
	}
	return job("fig12", units, func(parts [][]LatencyPoint) (interface{}, error) {
		return &LatencyResult{Points: concat(parts)}, nil
	})
}

// fig12Bench runs one benchmark's memory-latency sweep.
func fig12Bench(o Options, ms *MeasurementSet, name string) ([]LatencyPoint, error) {
	memLats := []float64{2, 4, 6, 8, 10, 14, 20}
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	m, err := ms.Get(w)
	if err != nil {
		return nil, err
	}
	rates := m.Rates(true, true)
	var points []LatencyPoint
	for _, mem := range memLats {
		cfg := cpumodel.ConfigFor(o.Device())
		cfg.MemCycles = mem
		cfg.PrechargeCycles = mem / 2
		r, err := cpumodel.Evaluate(cfg, rates, o.GSPNInstr, o.Seed)
		if err != nil {
			return nil, err
		}
		points = append(points, LatencyPoint{
			Bench: name, MemCycles: mem, CPI: r.TotalCPI,
		})
	}
	return points, nil
}

// Table renders a latency sweep.
func (r *LatencyResult) Table() *report.Table {
	if r.Conventional {
		t := report.NewTable("Figure 11: conventional CPU CPI vs SLC & memory latency",
			"benchmark", "SLC (cy)", "memory (cy)", "CPI")
		for _, p := range r.Points {
			t.Row(p.Bench, p.SLCCycles, p.MemCycles, fmt.Sprintf("%.3f", p.CPI))
		}
		t.Note("paper: memory latency alone can cost up to 2x over the raw CPI in the operating region")
		return t
	}
	t := report.NewTable("Figure 12: integrated CPU CPI vs memory latency",
		"benchmark", "memory (cy)", "CPI")
	for _, p := range r.Points {
		t.Row(p.Bench, p.MemCycles, fmt.Sprintf("%.3f", p.CPI))
	}
	t.Note("paper: at 30 ns (6 cycles) the CPI impact is 10-25 percent above the raw figure")
	return t
}

// ---------------------------------------------------------------------
// Section 5.6: bank-count sensitivity.
// ---------------------------------------------------------------------

// BankRow is one (banks, benchmark) sample.
type BankRow struct {
	Bench       string
	Integrated  bool
	Banks       int
	MemCPI      float64
	MemCPICI    float64 // 95% half-width over the seed ensemble
	Utilization float64
}

// BankResult is the Section 5.6 study.
type BankResult struct{ Rows []BankRow }

// bankSeeds is the size of each bank-study ensemble: seeds o.Seed to
// o.Seed+bankSeeds-1.
const bankSeeds = 5

// BanksJob enumerates the bank study — 4/8/16 banks for the integrated
// system and 2-8 for the conventional reference, reporting CPI and bank
// utilisation — as one unit per (benchmark, system, bank count)
// ensemble: the 5-seed Monte-Carlo evaluations are the expensive part
// and they are all independent.
func BanksJob(o Options, ms *MeasurementSet) sweep.Job {
	params := []string{fmt.Sprintf("budget=%d", o.Budget), fmt.Sprintf("gspn=%d", o.GSPNInstr)}
	if o.Seed != 1 {
		// Earlier builds ran seeds 1-5 whatever the seed, and stored the
		// rows under it; name the range so those entries miss.
		params = append(params, fmt.Sprintf("seeds=%d+%d", o.Seed, bankSeeds))
	}
	k := newKeyer("banks", o, params...)
	var units []sweep.Unit
	for _, name := range []string{"126.gcc", "102.swim"} {
		for _, b := range []int{4, 8, 16} {
			units = append(units, cached(k, fmt.Sprintf("banks/%s/integrated/%d", name, b), o.Seed, bankCodec,
				func() (BankRow, error) { return bankRow(o, ms, name, true, b) }))
		}
		for _, b := range []int{2, 4, 8} {
			units = append(units, cached(k, fmt.Sprintf("banks/%s/conventional/%d", name, b), o.Seed, bankCodec,
				func() (BankRow, error) { return bankRow(o, ms, name, false, b) }))
		}
	}
	return job("banks", units, func(rows []BankRow) (interface{}, error) { return &BankResult{Rows: rows}, nil })
}

// bankRow runs one ensemble of bankSeeds seeds at the given bank count.
func bankRow(o Options, ms *MeasurementSet, name string, integrated bool, banks int) (BankRow, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return BankRow{}, err
	}
	m, err := ms.Get(w)
	if err != nil {
		return BankRow{}, err
	}
	var cfg cpumodel.SystemConfig
	var rates cpumodel.AppRates
	if integrated {
		cfg = cpumodel.ConfigFor(o.Device())
		rates = m.Rates(true, true)
	} else {
		cfg = cpumodel.ConfigFor(core.Reference())
		rates = m.Rates(false, false)
	}
	cfg.Banks = banks
	seeds := make([]int64, bankSeeds)
	for i := range seeds {
		seeds[i] = o.Seed + int64(i)
	}
	r, err := cpumodel.Evaluate(cfg, rates, o.GSPNInstr, seeds...)
	if err != nil {
		return BankRow{}, err
	}
	return BankRow{
		Bench: name, Integrated: integrated, Banks: banks,
		MemCPI: r.MemCPI, MemCPICI: r.MemCPICI95, Utilization: r.BankUtilization,
	}, nil
}

// Table renders the bank study.
func (r *BankResult) Table() *report.Table {
	t := report.NewTable("Section 5.6: memory bank sensitivity (5-seed ensembles)",
		"benchmark", "system", "banks", "mem CPI (±95%)", "bank utilisation %")
	for _, row := range r.Rows {
		sys := "conventional"
		if row.Integrated {
			sys = "integrated"
		}
		t.Row(row.Bench, sys, row.Banks,
			fmt.Sprintf("%.3f ± %.3f", row.MemCPI, row.MemCPICI),
			fmt.Sprintf("%.2f", 100*row.Utilization))
	}
	t.Note("paper: performance differences across bank counts are below simulation noise;")
	t.Note("gcc keeps 16 banks ~1.2 percent busy, rising to ~9.6 percent with 2 banks")
	return t
}

// ---------------------------------------------------------------------
// Table 1 and Figure 2: the SS-5 versus SS-10/61 motivation study.
// ---------------------------------------------------------------------

// Table1Row is one machine's measured-vs-modelled comparison.
type Table1Row struct {
	Machine        string
	SpecInt92      float64 // published
	SpecFp92       float64 // published
	PaperSynopsys  float64 // minutes, published
	ModelNsPerInst float64 // our hierarchy model on the Synopsys stand-in
	ModelRelative  float64 // run time relative to the fastest machine
}

// Table1Result is the Table 1 reproduction.
type Table1Result struct{ Rows []Table1Row }

// Table1Job enumerates Table 1 — the Synopsys stand-in workload through
// the SS-5 and SS-10/61 hierarchy models, against the published run
// times — as one unit per machine model; the relative column needs both
// estimates, so it is computed at assembly.
func Table1Job(o Options, _ *MeasurementSet) sweep.Job {
	k := newKeyer("table1", o, fmt.Sprintf("budget=%d", o.Budget))
	builders := []func() *memsys.Hierarchy{memsys.SS5, memsys.SS10}
	labels := []string{"ss5", "ss10"}
	units := make([]sweep.Unit, len(builders))
	for i, build := range builders {
		units[i] = cached(k, "table1/"+labels[i], 0, estimateCodec, func() (memsys.RunEstimate, error) {
			return table1Estimate(o, build())
		})
	}
	return job("table1", units, func(ests []memsys.RunEstimate) (interface{}, error) {
		best := ests[0].NsPerInstr
		for _, e := range ests {
			if e.NsPerInstr < best {
				best = e.NsPerInstr
			}
		}
		res := &Table1Result{}
		for i, pub := range paperref.Table1 {
			res.Rows = append(res.Rows, Table1Row{
				Machine:        pub.Machine,
				SpecInt92:      pub.SpecInt92,
				SpecFp92:       pub.SpecFp92,
				PaperSynopsys:  pub.SynopsysMins,
				ModelNsPerInst: ests[i].NsPerInstr,
				ModelRelative:  ests[i].NsPerInstr / best,
			})
		}
		return res, nil
	})
}

// table1Estimate runs the Synopsys stand-in on one hierarchy model.
func table1Estimate(o Options, h *memsys.Hierarchy) (memsys.RunEstimate, error) {
	w, err := workload.ByName("synopsys")
	if err != nil {
		return memsys.RunEstimate{}, err
	}
	h.Instrument(o.Obs)
	est := &memsys.Estimator{H: h}
	if err := o.stream(w, est); err != nil {
		return memsys.RunEstimate{}, err
	}
	return est.Estimate(), nil
}

// Table renders the Table 1 reproduction.
func (r *Table1Result) Table() *report.Table {
	t := report.NewTable("Table 1: SS-5 vs SS-10/61 (published SPEC'92; modelled Synopsys run time)",
		"machine", "SpecInt92*", "SpecFp92*", "Synopsys mins*", "model ns/instr", "model relative")
	for _, row := range r.Rows {
		t.Row(row.Machine, row.SpecInt92, row.SpecFp92, row.PaperSynopsys,
			fmt.Sprintf("%.1f", row.ModelNsPerInst),
			fmt.Sprintf("%.2f", row.ModelRelative))
	}
	t.Note("* published values from the paper; the model column is this reproduction's")
	t.Note("hierarchy simulation of the >50 MB Synopsys stand-in (paper ratio: 44/32 = 1.38)")
	return t
}

// ---------------------------------------------------------------------
// Figure 2: latency vs array size and stride.
// ---------------------------------------------------------------------

// Fig2Result holds the latency surface for both machines.
type Fig2Result struct {
	Machines []string
	Sizes    []uint64
	Strides  []uint64
	// AvgNs[machine][size][stride]
	AvgNs map[string]map[uint64]map[uint64]float64
}

// fig2Surface is one machine's slice of the Figure 2 surface.
type fig2Surface struct {
	name  string
	avgNs map[uint64]map[uint64]float64
}

var (
	fig2Sizes   = []uint64{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
	fig2Strides = []uint64{16, 128, 512, 4096}
)

// Fig2Job enumerates Figure 2, the stride/size latency surface, as one
// unit per machine model: the SS-5, the SS-10/61, and the integrated
// device. The integrated device is not part of the paper's measured
// Figure 2, but plotting it on the same axes is the whole argument: a
// flat ~30 ns line where both workstations climb.
func Fig2Job(o Options, _ *MeasurementSet) sweep.Job {
	integrated := func() *memsys.Hierarchy { return memsys.IntegratedFrom(o.Device()) }
	builders := []func() *memsys.Hierarchy{memsys.SS5, memsys.SS10, integrated}
	labels := []string{"ss5", "ss10", "integrated"}
	units := make([]sweep.Unit, len(builders))
	for i, build := range builders {
		units[i] = uncached("fig2/"+labels[i], func() (fig2Surface, error) {
			h := build()
			h.Instrument(o.Obs)
			s := fig2Surface{name: h.Name, avgNs: map[uint64]map[uint64]float64{}}
			for _, sz := range fig2Sizes {
				s.avgNs[sz] = map[uint64]float64{}
			}
			for _, w := range h.WalkSurface(fig2Sizes, fig2Strides) {
				s.avgNs[w.ArrayBytes][w.Stride] = w.AvgNs
			}
			return s, nil
		})
	}
	return job("fig2", units, func(surfaces []fig2Surface) (interface{}, error) {
		res := &Fig2Result{
			Sizes:   fig2Sizes,
			Strides: fig2Strides,
			AvgNs:   map[string]map[uint64]map[uint64]float64{},
		}
		for _, s := range surfaces {
			res.Machines = append(res.Machines, s.name)
			res.AvgNs[s.name] = s.avgNs
		}
		return res, nil
	})
}

// Table renders the latency surface.
func (r *Fig2Result) Table() *report.Table {
	t := report.NewTable("Figure 2: average load latency (ns) vs array size and stride",
		"machine", "array", "stride 16", "stride 128", "stride 512", "stride 4096")
	for _, m := range r.Machines {
		for _, sz := range r.Sizes {
			row := []interface{}{m, sizeLabel(sz)}
			for _, st := range r.Strides {
				v, ok := r.AvgNs[m][sz][st]
				if !ok {
					row = append(row, "-")
					continue
				}
				row = append(row, fmt.Sprintf("%.0f", v))
			}
			t.Row(row...)
		}
	}
	t.Note("SS-10 wins inside its 1 MB L2 and at small linear strides (prefetch unit);")
	t.Note("SS-5's integrated memory controller wins beyond the caches — the paper's Figure 2 crossover;")
	t.Note("the Integrated row (not in the paper's figure) is the proposal: flat ~30 ns everywhere")
	return t
}

func sizeLabel(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	default:
		return fmt.Sprintf("%dKB", b>>10)
	}
}

// Plot renders the latency sweep as an ASCII line plot (one series per
// benchmark; Figure 11 plots against memory latency at the paper's
// 6-cycle SLC, Figure 12 against memory latency).
func (r *LatencyResult) Plot() *report.Series {
	title := "Figure 12: integrated CPI vs memory latency"
	if r.Conventional {
		title = "Figure 11: conventional CPI vs memory latency (SLC = 6 cycles)"
	}
	s := report.NewSeries(title, "memory cycles", "CPI")
	for _, p := range r.Points {
		if r.Conventional && p.SLCCycles != 6 {
			continue
		}
		s.Add(p.Bench, p.MemCycles, p.CPI)
	}
	return s
}

// ---------------------------------------------------------------------
// Mattson miss-ratio curves: every cache size from one profiled pass.
// ---------------------------------------------------------------------

// MattsonRow is one workload's fully-associative LRU miss-ratio curve
// plus its total line footprint, all measured in a single pass by the
// stack-distance profiler (internal/stackdist).
type MattsonRow struct {
	Bench     string
	Footprint int             // distinct 32 B lines touched
	MissPct   map[int]float64 // capacity KB -> miss % over all refs
}

// MattsonResult is the miss-ratio-curve data set.
type MattsonResult struct{ Rows []MattsonRow }

// mattsonSizesKB are the capacities of the miss-ratio curve. All of
// them come from the same histogram — adding a size is free.
var mattsonSizesKB = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// MattsonJob enumerates the miss-ratio-curve study as one unit per
// workload: one execution, one stack-distance profile, eleven sizes.
func MattsonJob(o Options, _ *MeasurementSet) sweep.Job {
	k := newKeyer("mattson", o, fmt.Sprintf("budget=%d", o.Budget))
	ws := workload.All()
	units := make([]sweep.Unit, len(ws))
	for i, w := range ws {
		units[i] = cached(k, "mattson/"+w.Name, 0, mattsonCodec, func() (MattsonRow, error) { return mattsonRow(o, w) })
	}
	return job("mattson", units, func(rows []MattsonRow) (interface{}, error) { return &MattsonResult{Rows: rows}, nil })
}

// mattsonRow profiles one workload's reference stream.
func mattsonRow(o Options, w workload.Workload) (MattsonRow, error) {
	p := stackdist.NewProfiler(32)
	if err := o.stream(w, p); err != nil {
		return MattsonRow{}, err
	}
	row := MattsonRow{Bench: w.Name, Footprint: p.Footprint(), MissPct: map[int]float64{}}
	for _, kb := range mattsonSizesKB {
		row.MissPct[kb] = p.MissCounterAll(uint64(kb) << 10 / 32).Percent()
	}
	return row, nil
}

// Table renders the miss-ratio curves.
func (r *MattsonResult) Table() *report.Table {
	cols := []string{"benchmark", "lines touched"}
	for _, kb := range mattsonSizesKB {
		cols = append(cols, sizeLabel(uint64(kb)<<10))
	}
	t := report.NewTable("Mattson miss-ratio curves: fully-assoc LRU miss % by capacity (32 B lines, one pass)", cols...)
	for _, row := range r.Rows {
		cells := []interface{}{row.Bench, row.Footprint}
		for _, kb := range mattsonSizesKB {
			cells = append(cells, pct(row.MissPct[kb]))
		}
		t.Row(cells...)
	}
	t.Note("single-pass exact LRU stack-distance profile (Mattson et al., 1970): the inclusion")
	t.Note("property makes every capacity's miss ratio a suffix sum of one distance histogram")
	return t
}
