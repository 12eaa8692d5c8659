// Package experiments implements every experiment of the reproduction:
// one job builder per table or figure of the paper's evaluation (plus
// the ablations and extensions), each a list of independent sweep units
// and an assembly step that returns structured results able to render
// themselves. One registry names them all; JobFor looks a name up in
// it. The CLI (cmd/iramsim), the daemon (cmd/iramsimd), the Go
// benchmarks (bench_test.go), and the shape tests all drive this
// package, so an experiment is defined in exactly one place.
//
// See DESIGN.md for the experiment index mapping table/figure numbers
// to experiment names.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/obs"
	"repro/internal/paperref"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options controls experiment fidelity.
type Options struct {
	// Budget is the per-workload instruction budget for trace-driven
	// cache measurement (0 = each workload's default, ~2M).
	Budget int64
	// GSPNInstr is the instruction count per GSPN Monte-Carlo run.
	GSPNInstr int64
	// Seed drives all Monte-Carlo randomness.
	Seed int64
	// Procs are the processor counts for the SPLASH figures.
	Procs []int
	// MPQuick selects the reduced SPLASH data set.
	MPQuick bool
	// Machine optionally overrides the integrated device under test
	// (the iramsim -machine flag); nil means the paper's core.Proposed().
	Machine *core.Device
	// DSBanks / DSColumns / DSWays / DSVictims override the designspace
	// search axes (nil = built-in defaults; see DesignspaceJob).
	DSBanks, DSColumns, DSWays, DSVictims []int
	// DSCoarse is the designspace coarse-grid stride: round 0 evaluates
	// every DSCoarse-th lattice index per axis (plus the endpoints).
	// <= 1 evaluates the whole lattice.
	DSCoarse int
	// DSRefine bounds the adaptive-refinement rounds that expand the
	// lattice neighbours of the screening frontier (0 = no refinement).
	DSRefine int
	// Workers sizes the nested sweeps some experiments fan out from
	// their assembly step (the designspace GSPN stage); <= 0 means
	// serial. The CLI sets it from -j.
	Workers int
	// TraceSource, when non-nil, supplies every workload's reference
	// stream instead of live VM execution — the trace record/replay
	// pipeline behind the iramsim -record/-trace-dir flags.
	// Replayed streams are reference-for-reference identical to live
	// generation, so every experiment's output is unchanged.
	TraceSource workload.Source
	// Obs, when non-nil, receives per-workload cache measurements, the
	// coherence machines' protocol statistics, and mpsim coordinator
	// accounting (the iramsim -metrics flag). Nil costs one pointer
	// check at each publication site and changes no experiment output.
	Obs *obs.Registry
	// ResultCache, when non-nil, is consulted by nested sweeps some
	// experiments fan out from their assembly step (the designspace
	// GSPN stage). The CLI sets it alongside the top-level engine's
	// cache from -result-cache; cached and uncached runs produce
	// byte-identical output.
	ResultCache sweep.ResultCache
	// Ctx, when non-nil, cancels the nested sweeps some experiments fan
	// out from their assembly step: the runner sets it to the run's
	// context so an abandoned request stops the designspace GSPN stage
	// too, not just the outer unit queue. Nil means never canceled.
	Ctx context.Context
}

// ctx returns the cancellation context nested sweeps run under.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Device returns the integrated device the experiments run against.
func (o Options) Device() core.Device {
	if o.Machine != nil {
		return *o.Machine
	}
	return core.Proposed()
}

// source returns the workload reference-stream source: the configured
// trace store pipeline, or live VM execution.
func (o Options) source() workload.Source {
	if o.TraceSource != nil {
		return o.TraceSource
	}
	return workload.Live{}
}

// stream delivers w's reference stream for the options' budget into
// sink, via the trace store when one is configured. It is the single
// entry point for every experiment that consumes a raw stream outside
// a MeasurementSet (the ablations, mattson, and Table 1).
func (o Options) stream(w workload.Workload, sink trace.Sink) error {
	_, err := o.source().Stream(w, o.Budget, sink)
	return err
}

// Default returns full-fidelity options (paper-scale runs).
func Default() Options {
	return Options{
		GSPNInstr: 100_000,
		Seed:      1,
		Procs:     []int{1, 2, 4, 8, 16},
	}
}

// Quick returns reduced-fidelity options for tests and benchmarks.
func Quick() Options {
	return Options{
		Budget:    300_000,
		GSPNInstr: 20_000,
		Seed:      1,
		Procs:     []int{1, 4},
		MPQuick:   true,
	}
}

// MeasurementSet caches one cache-measurement run per workload so the
// Figure 7/8 and Table 3/4 experiments share a single simulation pass.
// It is concurrency-safe with single-flight semantics: when several
// sweep units request the same workload at once, exactly one goroutine
// simulates it and the others block until that result is ready, so a
// workload is never simulated twice.
type MeasurementSet struct {
	opts Options
	mu   sync.Mutex
	m    map[string]*msEntry
}

// msEntry is one workload's single-flight slot.
type msEntry struct {
	once sync.Once
	m    *workload.Measurement
	err  error
}

// NewMeasurementSet creates an empty cache keyed by the options.
func NewMeasurementSet(o Options) *MeasurementSet {
	return &MeasurementSet{opts: o, m: make(map[string]*msEntry)}
}

// Get measures the workload (once, even under concurrent callers).
func (s *MeasurementSet) Get(w workload.Workload) (*workload.Measurement, error) {
	s.mu.Lock()
	e, ok := s.m[w.Name]
	if !ok {
		e = &msEntry{}
		s.m[w.Name] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		cs := workload.NewCacheSetFor(s.opts.Device(), core.Reference())
		instr, err := s.opts.source().Stream(w, s.opts.Budget, cs)
		if err != nil {
			e.err = err
			return
		}
		e.m = &workload.Measurement{Workload: w, Caches: cs, Instr: instr}
		// Single-flight makes this the one place a workload's
		// measurement materialises, so each workload publishes its
		// cache-level metrics exactly once per sweep.
		publishCacheMetrics(s.opts.Obs, w.Name, e.m)
	})
	return e.m, e.err
}

// publishCacheMetrics records one workload's proposed-organisation
// cache measurement into reg's "cache" family (miss/reference counts
// for the I-cache, D-cache, and victim-augmented D-cache). A nil
// registry is a no-op.
func publishCacheMetrics(reg *obs.Registry, name string, m *workload.Measurement) {
	if reg == nil {
		return
	}
	reg.Counter("cache", name+"/instructions").Add(m.Instr)
	i := m.Caches.PropIStats().Ifetch
	reg.Counter("cache", name+"/icache_misses").Add(i.Events)
	reg.Counter("cache", name+"/icache_refs").Add(i.Total)
	d := m.Caches.PropDStats().Data()
	reg.Counter("cache", name+"/dcache_misses").Add(d.Events)
	reg.Counter("cache", name+"/dcache_refs").Add(d.Total)
	v := m.Caches.PropDVictimStats().Data()
	reg.Counter("cache", name+"/dcache_victim_misses").Add(v.Events)
}

// ---------------------------------------------------------------------
// Figure 7: instruction cache miss rates.
// ---------------------------------------------------------------------

// Fig7Row is one benchmark's I-cache miss rates (percent).
type Fig7Row struct {
	Bench    string
	Proposed float64         // 8 KB DM, 512 B lines
	Conv     map[int]float64 // size KB -> conventional DM 32 B lines
}

// Fig7Result is the Figure 7 data set.
type Fig7Result struct {
	Rows []Fig7Row
}

// Fig7Job enumerates Figure 7 as one unit per workload.
func Fig7Job(o Options, ms *MeasurementSet) sweep.Job {
	k := newKeyer("fig7", o, fmt.Sprintf("budget=%d", o.Budget))
	ws := workload.All()
	units := make([]sweep.Unit, len(ws))
	for i, w := range ws {
		units[i] = cached(k, "fig7/"+w.Name, 0, fig7Codec, func() (Fig7Row, error) { return fig7Row(ms, w) })
	}
	return job("fig7", units, func(rows []Fig7Row) (interface{}, error) { return &Fig7Result{Rows: rows}, nil })
}

// fig7Row measures one workload's I-cache miss rates.
func fig7Row(ms *MeasurementSet, w workload.Workload) (Fig7Row, error) {
	m, err := ms.Get(w)
	if err != nil {
		return Fig7Row{}, err
	}
	row := Fig7Row{
		Bench:    w.Name,
		Proposed: m.Caches.PropIStats().Ifetch.Percent(),
		Conv:     map[int]float64{},
	}
	for _, kb := range workload.ConvISizesKB {
		row.Conv[kb] = m.Caches.ConvIStats(kb).Ifetch.Percent()
	}
	return row, nil
}

// Table renders the Figure 7 data.
func (r *Fig7Result) Table() *report.Table {
	t := report.NewTable("Figure 7: Instruction cache miss rates (%)",
		"benchmark", "proposed 8KB/512B", "conv 8KB", "conv 16KB", "conv 32KB", "conv 64KB")
	for _, row := range r.Rows {
		t.Row(row.Bench, pct(row.Proposed), pct(row.Conv[8]), pct(row.Conv[16]),
			pct(row.Conv[32]), pct(row.Conv[64]))
	}
	t.Note("proposed = 16 column buffers (512 B lines); conventional = direct-mapped, 32 B lines")
	return t
}

func pct(v float64) string { return fmt.Sprintf("%.3f", v) }

// ---------------------------------------------------------------------
// Figure 8: data cache miss rates.
// ---------------------------------------------------------------------

// Fig8Row is one benchmark's D-cache miss rates (percent, loads and
// stores reported separately as in the stacked bars of the figure).
type Fig8Row struct {
	Bench               string
	PropLoad, PropStore float64         // 16 KB 2-way 512 B, no victim
	VicLoad, VicStore   float64         // with victim cache
	ConvDM              map[int]float64 // total miss %, DM 32 B
	Conv2W              map[int]float64 // total miss %, 2-way 32 B
}

// Fig8Result is the Figure 8 data set.
type Fig8Result struct {
	Rows []Fig8Row
}

// Fig8Job enumerates Figure 8 as one unit per workload.
func Fig8Job(o Options, ms *MeasurementSet) sweep.Job {
	k := newKeyer("fig8", o, fmt.Sprintf("budget=%d", o.Budget))
	ws := workload.All()
	units := make([]sweep.Unit, len(ws))
	for i, w := range ws {
		units[i] = cached(k, "fig8/"+w.Name, 0, fig8Codec, func() (Fig8Row, error) { return fig8Row(ms, w) })
	}
	return job("fig8", units, func(rows []Fig8Row) (interface{}, error) { return &Fig8Result{Rows: rows}, nil })
}

// fig8Row measures one workload's D-cache miss rates.
func fig8Row(ms *MeasurementSet, w workload.Workload) (Fig8Row, error) {
	m, err := ms.Get(w)
	if err != nil {
		return Fig8Row{}, err
	}
	cs := m.Caches
	propD := cs.PropDStats()
	vicD := cs.PropDVictimStats()
	row := Fig8Row{
		Bench:     w.Name,
		PropLoad:  propD.Load.Percent(),
		PropStore: propD.Store.Percent(),
		VicLoad:   vicD.Load.Percent(),
		VicStore:  vicD.Store.Percent(),
		ConvDM:    map[int]float64{},
		Conv2W:    map[int]float64{},
	}
	for _, kb := range workload.ConvDSizesKB {
		row.ConvDM[kb] = cs.ConvDMStats(kb).Data().Percent()
		row.Conv2W[kb] = cs.Conv2WStats(kb).Data().Percent()
	}
	return row, nil
}

// Table renders the Figure 8 data.
func (r *Fig8Result) Table() *report.Table {
	t := report.NewTable("Figure 8: Data cache miss rates (%, loads+stores)",
		"benchmark", "proposed", "prop+victim", "DM 8KB", "DM 16KB", "2W 16KB",
		"DM 64KB", "2W 256KB")
	for _, row := range r.Rows {
		t.Row(row.Bench,
			pct(row.PropLoad+row.PropStore),
			pct(row.VicLoad+row.VicStore),
			pct(row.ConvDM[8]), pct(row.ConvDM[16]), pct(row.Conv2W[16]),
			pct(row.ConvDM[64]), pct(row.Conv2W[256]))
	}
	t.Note("proposed = 16 KB 2-way column-buffer cache (512 B lines); victim = 16×32 B fully associative")
	return t
}

// ---------------------------------------------------------------------
// Tables 3 & 4: SPEC'95 CPI estimates.
// ---------------------------------------------------------------------

// CPIRow is one benchmark's CPI decomposition.
type CPIRow struct {
	Bench         string
	BaseCPI       float64 // functional-unit component (model input)
	MemCPI        float64 // measured by the GSPN
	TotalCPI      float64
	SpecRatio     float64 // SpecCal / TotalCPI
	PaperMemCPI   float64 // paper's memory component
	PaperTotalCPI float64
	PaperRatio    float64
	Alpha21164    float64 // Table 4 only
	BankUtilz     float64
}

// CPIResult is a Table 3 or Table 4 data set.
type CPIResult struct {
	Victim bool
	Rows   []CPIRow
}

// Table3Job enumerates Table 3 (no victim cache) as one unit per SPEC
// workload.
func Table3Job(o Options, ms *MeasurementSet) sweep.Job { return cpiJob("table3", o, ms, false) }

// Table4Job enumerates Table 4 (with victim cache) as one unit per SPEC
// workload.
func Table4Job(o Options, ms *MeasurementSet) sweep.Job { return cpiJob("table4", o, ms, true) }

// cpiJob enumerates one Spec'95 CPI table.
func cpiJob(name string, o Options, ms *MeasurementSet, victim bool) sweep.Job {
	k := newKeyer(name, o,
		fmt.Sprintf("budget=%d", o.Budget), fmt.Sprintf("gspn=%d", o.GSPNInstr))
	ws := workload.Spec()
	units := make([]sweep.Unit, len(ws))
	for i, w := range ws {
		units[i] = cached(k, name+"/"+w.Name, o.Seed, cpiCodec, func() (CPIRow, error) { return cpiRow(o, ms, w, victim) })
	}
	return job(name, units, func(rows []CPIRow) (interface{}, error) {
		return &CPIResult{Victim: victim, Rows: rows}, nil
	})
}

// cpiRow evaluates one workload's CPI decomposition through the GSPN.
func cpiRow(o Options, ms *MeasurementSet, w workload.Workload, victim bool) (CPIRow, error) {
	m, err := ms.Get(w)
	if err != nil {
		return CPIRow{}, err
	}
	rates := m.Rates(true, victim)
	r, err := cpumodel.Evaluate(cpumodel.ConfigFor(o.Device()), rates, o.GSPNInstr, o.Seed)
	if err != nil {
		return CPIRow{}, err
	}
	ref := paperref.Tables34[w.Name]
	row := CPIRow{
		Bench:     w.Name,
		BaseCPI:   rates.BaseCPI,
		MemCPI:    r.MemCPI,
		TotalCPI:  r.TotalCPI,
		BankUtilz: r.BankUtilization,
	}
	if w.SpecCal > 0 {
		row.SpecRatio = w.SpecCal / r.TotalCPI
	}
	if victim {
		row.PaperMemCPI = ref.TotalVictim - ref.BaseCPI
		row.PaperTotalCPI = ref.TotalVictim
		row.PaperRatio = ref.SpecRatioVictim
		row.Alpha21164 = ref.Alpha21164
	} else {
		row.PaperMemCPI = ref.MemNoVictim
		row.PaperTotalCPI = ref.BaseCPI + ref.MemNoVictim
		row.PaperRatio = ref.SpecRatioNoVictim
	}
	return row, nil
}

// GeoMeans returns the SPECint95/SPECfp95-style geometric means of the
// measured and paper Spec-ratios.
func (r *CPIResult) GeoMeans() (intMeasured, intPaper, fpMeasured, fpPaper float64) {
	var im, ip, fm, fp []float64
	for _, row := range r.Rows {
		ref, ok := paperref.Tables34[row.Bench]
		if !ok {
			continue
		}
		if ref.Float {
			fm = append(fm, row.SpecRatio)
			fp = append(fp, row.PaperRatio)
		} else {
			im = append(im, row.SpecRatio)
			ip = append(ip, row.PaperRatio)
		}
	}
	return stats.GeoMean(im), stats.GeoMean(ip), stats.GeoMean(fm), stats.GeoMean(fp)
}

// Table renders the CPI estimates.
func (r *CPIResult) Table() *report.Table {
	name := "Table 3: Spec'95 estimates, no victim cache"
	cols := []string{"benchmark", "cpu CPI", "mem CPI", "total CPI",
		"Spec-ratio", "paper mem", "paper total", "paper ratio"}
	if r.Victim {
		name = "Table 4: Spec'95 estimates, with victim cache"
		cols = append(cols, "Alpha 21164")
	}
	t := report.NewTable(name, cols...)
	for _, row := range r.Rows {
		cells := []interface{}{row.Bench,
			fmt.Sprintf("%.2f", row.BaseCPI),
			fmt.Sprintf("%.2f", row.MemCPI),
			fmt.Sprintf("%.2f", row.TotalCPI),
			fmt.Sprintf("%.1f", row.SpecRatio),
			fmt.Sprintf("%.2f", row.PaperMemCPI),
			fmt.Sprintf("%.2f", row.PaperTotalCPI),
			fmt.Sprintf("%.1f", row.PaperRatio),
		}
		if r.Victim {
			cells = append(cells, fmt.Sprintf("%.1f", row.Alpha21164))
		}
		t.Row(cells...)
	}
	im, ip, fm, fp := r.GeoMeans()
	t.Note("geometric means — SPECint95: measured %.1f vs paper %.1f; SPECfp95: measured %.1f vs paper %.1f",
		im, ip, fm, fp)
	t.Note("cpu CPI is the paper-published functional-unit component (DESIGN.md substitution 2);")
	t.Note("mem CPI is measured by this reproduction's GSPN from its own cache simulations")
	return t
}
