package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/mpsim"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// The ablation experiments probe the design choices DESIGN.md calls
// out: the 512 B line size, the 16-entry victim cache, the 7-way INC,
// the 32 B coherence unit, and the scoreboarding assumption. Each is
// grounded in a specific claim of the paper (cited per function).

// ablationBenches is the representative workload subset used by the
// cache-geometry ablations: one long-line winner, one conflict victim,
// one code-heavy integer benchmark, one random-access benchmark.
var ablationBenches = []string{"104.hydro2d", "101.tomcatv", "126.gcc", "129.compress"}

// pivot groups per-benchmark rows for an ablation table: the
// benchmarks in order of first appearance, and each benchmark's values
// by column. cell splits one row into its benchmark, column and value.
func pivot[R any, K comparable, V any](rows []R, cell func(R) (string, K, V)) ([]string, map[string]map[K]V) {
	var benches []string
	by := map[string]map[K]V{}
	for _, row := range rows {
		b, k, v := cell(row)
		if by[b] == nil {
			by[b] = map[K]V{}
			benches = append(benches, b)
		}
		by[b][k] = v
	}
	return benches, by
}

// LineSizeRow is one (benchmark, line size) data-cache measurement.
type LineSizeRow struct {
	Bench     string
	LineBytes int
	MissPct   float64 // 16 KB 2-way cache with that line size
}

// LineSizeResult is the line-size ablation.
type LineSizeResult struct{ Rows []LineSizeRow }

// AblateLineSizeJob sweeps the D-cache line size at fixed 16 KB 2-way
// capacity, one unit per benchmark; each unit is one trace pass feeding
// every line size. Paper grounding: Section 5.3 — long lines prefetch
// for high-locality codes but multiply conflicts when only 16 sets
// remain (tomcatv); and Section 5.6 — "increasing the line size will
// degrade performance due to higher resultant cache conflicts".
func AblateLineSizeJob(o Options, _ *MeasurementSet) sweep.Job {
	units := make([]sweep.Unit, len(ablationBenches))
	for i, name := range ablationBenches {
		units[i] = uncached("ablate-linesize/"+name, func() ([]LineSizeRow, error) { return ablateLineSizeBench(o, name) })
	}
	return job("ablate-linesize", units, func(parts [][]LineSizeRow) (interface{}, error) {
		return &LineSizeResult{Rows: concat(parts)}, nil
	})
}

// ablateLineSizeBench measures one benchmark at every line size in one
// trace pass. A D-cache of the device's capacity and associativity at
// line size L has DCacheBytes/(ways·L) sets of ways lines.
func ablateLineSizeBench(o Options, name string) ([]LineSizeRow, error) {
	lineSizes := []int{32, 64, 128, 256, 512, 1024}
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	// The capacity and associativity under ablation come from the device
	// under test; only the line size varies.
	dev := o.Device()
	caches := make(cache.Replay, len(lineSizes))
	for i, ls := range lineSizes {
		sets := dev.DCacheBytes / (dev.DCacheWays * ls)
		caches[i] = cache.NewSetAssoc(fmt.Sprintf("%d-way %dB", dev.DCacheWays, ls),
			uint64(sets*dev.DCacheWays*ls), uint64(ls), dev.DCacheWays)
	}
	if err := o.stream(w, caches); err != nil {
		return nil, err
	}
	rows := make([]LineSizeRow, len(lineSizes))
	for i, ls := range lineSizes {
		rows[i] = LineSizeRow{Bench: name, LineBytes: ls, MissPct: caches[i].Stats().Data().Percent()}
	}
	return rows, nil
}

// Table renders the line-size ablation.
func (r *LineSizeResult) Table() *report.Table {
	t := report.NewTable("Ablation: D-cache line size (16 KB, 2-way), miss rate %",
		"benchmark", "32B", "64B", "128B", "256B", "512B", "1024B")
	benches, byBench := pivot(r.Rows, func(row LineSizeRow) (string, int, float64) {
		return row.Bench, row.LineBytes, row.MissPct
	})
	for _, b := range benches {
		m := byBench[b]
		t.Row(b, pct(m[32]), pct(m[64]), pct(m[128]), pct(m[256]), pct(m[512]), pct(m[1024]))
	}
	t.Note("hydro2d-class codes improve monotonically with line size; tomcatv-class")
	t.Note("codes blow up once the set count collapses — the tension the victim cache resolves")
	return t
}

// VictimSizeRow is one (benchmark, entries) measurement.
type VictimSizeRow struct {
	Bench   string
	Entries int
	MissPct float64
}

// VictimSizeResult is the victim-size ablation.
type VictimSizeResult struct{ Rows []VictimSizeRow }

// AblateVictimSizeJob sweeps the victim-cache entry count around the
// paper's choice of 16 (one column's worth), one unit per benchmark.
// Paper grounding: Section 5.4 sizes the victim cache to exactly one
// 512 B column buffer.
func AblateVictimSizeJob(o Options, _ *MeasurementSet) sweep.Job {
	benches := []string{"101.tomcatv", "102.swim", "099.go"}
	units := make([]sweep.Unit, len(benches))
	for i, name := range benches {
		units[i] = uncached("ablate-victim/"+name, func() ([]VictimSizeRow, error) { return ablateVictimBench(o, name) })
	}
	return job("ablate-victim", units, func(parts [][]VictimSizeRow) (interface{}, error) {
		return &VictimSizeResult{Rows: concat(parts)}, nil
	})
}

// ablateVictimBench measures one benchmark at every victim size. This
// ablation stays on the per-config replay path deliberately: victim
// cache contents depend on main-cache eviction order and sub-block
// recency, which stack-distance profiling cannot express (see
// internal/stackdist's package doc).
func ablateVictimBench(o Options, name string) ([]VictimSizeRow, error) {
	entries := []int{0, 4, 8, 16, 32, 64}
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	dev := o.Device()
	// Every size keeps the device's victim line (the paper's 32 B on a
	// device without a victim cache).
	vline := uint64(dev.VictimLineBytes)
	if vline == 0 {
		vline = cache.VictimLineSize
	}
	plain, _ := dev.DCache()
	caches := cache.Replay{plain}
	for _, e := range entries[1:] {
		main, _ := dev.DCache()
		caches = append(caches, cache.NewWithVictim(main, cache.NewVictim(e, vline)))
	}
	if err := o.stream(w, caches); err != nil {
		return nil, err
	}
	rows := make([]VictimSizeRow, len(entries))
	for i, e := range entries {
		rows[i] = VictimSizeRow{Bench: name, Entries: e, MissPct: caches[i].Stats().Data().Percent()}
	}
	return rows, nil
}

// Table renders the victim-size ablation.
func (r *VictimSizeResult) Table() *report.Table {
	t := report.NewTable("Ablation: victim cache entries (paper: 16×32 B), miss rate %",
		"benchmark", "none", "4", "8", "16", "32", "64")
	benches, byBench := pivot(r.Rows, func(row VictimSizeRow) (string, int, float64) {
		return row.Bench, row.Entries, row.MissPct
	})
	for _, b := range benches {
		m := byBench[b]
		t.Row(b, pct(m[0]), pct(m[4]), pct(m[8]), pct(m[16]), pct(m[32]), pct(m[64]))
	}
	t.Note("16 entries (one column) captures nearly all of the conflict absorption;")
	t.Note("doubling it buys little — the paper's sizing is on the knee of the curve")
	return t
}

// UnitRow is one (benchmark, unit) multiprocessor measurement.
type UnitRow struct {
	Bench     string
	UnitBytes uint64
	Cycles    uint64
}

// UnitResult is the coherence-unit ablation.
type UnitResult struct {
	Procs int
	Rows  []UnitRow
}

// ablateUnitProcs is the processor count of the coherence-unit study.
const ablateUnitProcs = 4

// AblateCoherenceUnitJob runs SPLASH benchmarks with 32, 128, and
// 512 B coherence units on the integrated+victim machine, one unit per
// SPLASH benchmark plus one for the false-sharing microbenchmark. Paper
// grounding: Section 6.2 — "it is important not to use the long cache
// lines as coherence units, because the false-sharing costs would
// outweigh the prefetching benefits for most applications".
func AblateCoherenceUnitJob(o Options, _ *MeasurementSet) sweep.Job {
	benches := []string{"MP3D", "WATER", "OCEAN"}
	var units []sweep.Unit
	for _, name := range benches {
		units = append(units, uncached("ablate-unit/"+name, func() ([]UnitRow, error) { return ablateUnitBench(o, name) }))
	}
	units = append(units, uncached("ablate-unit/falseshare", func() ([]UnitRow, error) { return ablateUnitMicro(o) }))
	return job("ablate-unit", units, func(parts [][]UnitRow) (interface{}, error) {
		return &UnitResult{Procs: ablateUnitProcs, Rows: concat(parts)}, nil
	})
}

// ablateUnitBench runs one SPLASH benchmark at every coherence unit.
func ablateUnitBench(o Options, name string) ([]UnitRow, error) {
	var rows []UnitRow
	for _, u := range []uint64{32, 128, 512} {
		r, err := o.runSplash(name, ablateUnitProcs, unitMachine(o, u))
		if err != nil {
			return nil, err
		}
		rows = append(rows, UnitRow{Bench: name, UnitBytes: u, Cycles: r.Cycles})
	}
	return rows, nil
}

// unitMachine is the coherence-unit study's machine: the device under
// test, integrated+victim, with a coherence unit of unit bytes.
func unitMachine(o Options, unit uint64) *coherence.Machine {
	return coherence.NewConfiguredMachineDevices(coherence.IntegratedVictim, ablateUnitProcs,
		unit, o.Device(), core.Reference())
}

// ablateUnitMicro is a false-sharing microbenchmark: each processor
// repeatedly updates its own 32 B counter, with all counters packed
// into one 512 B region. With 32 B units every processor owns its
// counter; with 512 B units the writes ping-pong ownership of the
// whole unit. Like runSplash, it publishes each run's machine and
// coordinator statistics to o.Obs.
func ablateUnitMicro(o Options) ([]UnitRow, error) {
	var rows []UnitRow
	for _, u := range []uint64{32, 128, 512} {
		m := unitMachine(o, u)
		// Each counter's address is fixed, so the body runs ahead.
		r := mpsim.RunAhead(ablateUnitProcs, m, m.Lat.SyncCosts(), func(p *mpsim.Proc) {
			addr := uint64(0x1000 + p.ID*coherence.BlockSize)
			for i := 0; i < 400; i++ {
				p.Read(addr)
				p.Compute(2)
				p.Write(addr)
			}
		})
		m.Publish(o.Obs)
		r.Coord.Publish(o.Obs)
		rows = append(rows, UnitRow{Bench: "falseshare (micro)", UnitBytes: u, Cycles: r.Cycles})
	}
	return rows, nil
}

// Table renders the coherence-unit ablation.
func (r *UnitResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Ablation: coherence unit size (integrated+victim, %d procs), cycles", r.Procs),
		"benchmark", "32B unit", "128B unit", "512B unit", "512B/32B")
	benches, byBench := pivot(r.Rows, func(row UnitRow) (string, uint64, uint64) {
		return row.Bench, row.UnitBytes, row.Cycles
	})
	for _, b := range benches {
		m := byBench[b]
		ratio := float64(m[512]) / float64(m[32])
		t.Row(b, m[32], m[128], m[512], fmt.Sprintf("%.2fx", ratio))
	}
	t.Note("coarse producer-consumer sharing (OCEAN rows) can benefit from bulk transfer,")
	t.Note("but interleaved writers (the false-sharing microbenchmark) ping-pong whole units —")
	t.Note("the paper's reason for keeping coherence at 32 B despite 512 B cache lines")
	return t
}

// ScoreboardRow is one (benchmark, rate) CPI measurement.
type ScoreboardRow struct {
	Bench  string
	Rate   float64 // 0 = no scoreboarding
	MemCPI float64
}

// ScoreboardResult is the scoreboarding ablation.
type ScoreboardResult struct{ Rows []ScoreboardRow }

// AblateScoreboardJob sweeps the T23 stall rate of the Figure 10 GSPN,
// one unit per (benchmark, T23 rate) evaluation; the units share one
// workload measurement through the single-flight MeasurementSet. Paper
// grounding: Section 5.5 — "to model a system without scoreboarding,
// this rate for T23 is set to infinity. However, we assumed the
// presence of scoreboarding logic for the integrated system, therefore
// the rate of T23 was set [to] 1".
func AblateScoreboardJob(o Options, ms *MeasurementSet) sweep.Job {
	rates := []float64{0, 2, 1, 0.5, 0.25} // 0 = stall immediately
	var units []sweep.Unit
	for _, name := range []string{"126.gcc", "101.tomcatv"} {
		for _, rate := range rates {
			units = append(units, uncached(fmt.Sprintf("ablate-scoreboard/%s/rate=%g", name, rate),
				func() (ScoreboardRow, error) { return ablateScoreboardPoint(o, ms, name, rate) }))
		}
	}
	return job("ablate-scoreboard", units, func(rows []ScoreboardRow) (interface{}, error) {
		return &ScoreboardResult{Rows: rows}, nil
	})
}

// ablateScoreboardPoint evaluates one benchmark at one T23 rate.
func ablateScoreboardPoint(o Options, ms *MeasurementSet, name string, rate float64) (ScoreboardRow, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return ScoreboardRow{}, err
	}
	m, err := ms.Get(w)
	if err != nil {
		return ScoreboardRow{}, err
	}
	cfg := cpumodel.ConfigFor(o.Device())
	cfg.ScoreboardRate = rate
	r, err := cpumodel.Evaluate(cfg, m.Rates(true, true), o.GSPNInstr, o.Seed)
	if err != nil {
		return ScoreboardRow{}, err
	}
	return ScoreboardRow{Bench: name, Rate: rate, MemCPI: r.MemCPI}, nil
}

// Table renders the scoreboarding ablation.
func (r *ScoreboardResult) Table() *report.Table {
	t := report.NewTable("Ablation: scoreboard stall rate (Figure 10 transition T23)",
		"benchmark", "T23 rate", "mem CPI")
	for _, row := range r.Rows {
		label := fmt.Sprintf("%.2f", row.Rate)
		if row.Rate == 0 {
			label = "none (stall at once)"
		}
		t.Row(row.Bench, label, fmt.Sprintf("%.4f", row.MemCPI))
	}
	t.Note("lower rates let more instructions issue under an outstanding load;")
	t.Note("the paper's rate of 1 hides about one instruction per miss")
	return t
}

// INCRow is one (ways, benchmark) measurement of INC effectiveness.
type INCRow struct {
	Bench       string
	Ways        int
	RemoteLoads int64
	Cycles      uint64
}

// INCResult is the INC-associativity ablation.
type INCResult struct{ Rows []INCRow }

// AblateINCAssociativityJob compares the paper's 7-way INC against
// direct-mapped and lower-associativity organisations, one unit per
// (associativity, benchmark) multiprocessor run. Paper grounding:
// Section 6.2 — the 512 B columns "enable access to seven 32-Byte INC
// blocks each — providing 7 way associativity for cached remote memory
// reducing conflict misses". The INC is deliberately under-sized here
// (a 16 KB slice instead of 1 MB) so that conflicts — not capacity
// slack — are what the associativity fights; the paper's own INC is
// sized above the working sets for the same reason in reverse
// (Section 6.1).
func AblateINCAssociativityJob(o Options, _ *MeasurementSet) sweep.Job {
	// Undersizing tracks the data set: small enough that the remote
	// working set does not rattle around in capacity slack, large
	// enough that conflicts (not pure capacity) decide the outcome.
	smallINC := 256 << 10
	if o.MPQuick {
		smallINC = 16 << 10
	}
	var units []sweep.Unit
	for _, ways := range []int{1, 2, 7} {
		for _, name := range []string{"WATER", "LU"} {
			units = append(units, uncached(fmt.Sprintf("ablate-inc/%s/ways=%d", name, ways), func() (INCRow, error) {
				dev := o.Device()
				dev.INCWays, dev.INCBytes = ways, smallINC
				m := machine(dev, coherence.IntegratedVictim, 4)
				r, err := o.runSplash(name, 4, m)
				if err != nil {
					return INCRow{}, err
				}
				return INCRow{
					Bench: name, Ways: ways,
					RemoteLoads: m.RemoteLoads, Cycles: r.Cycles,
				}, nil
			}))
		}
	}
	return job("ablate-inc", units, func(rows []INCRow) (interface{}, error) { return &INCResult{Rows: rows}, nil })
}

// Table renders the INC ablation.
func (r *INCResult) Table() *report.Table {
	t := report.NewTable("Ablation: Inter-Node Cache associativity (paper: 7-way)",
		"benchmark", "ways", "remote loads", "cycles")
	for _, row := range r.Rows {
		t.Row(row.Bench, row.Ways, row.RemoteLoads, row.Cycles)
	}
	t.Note("lower associativity turns INC conflicts into 80-cycle remote re-fetches")
	return t
}

// EngineRow is one (benchmark, engines-per-node) measurement.
type EngineRow struct {
	Bench       string
	Engines     int
	Cycles      uint64
	QueueCycles uint64
}

// EngineResult is the protocol-engine ablation.
type EngineResult struct {
	Procs int
	Rows  []EngineRow
}

// AblateEnginesJob varies the number of protocol engines per node, one
// unit per (benchmark, engine count) multiprocessor run. Paper
// grounding: Section 4.2 budgets 60K gates for *two* coherence and
// communications engines; this ablation shows what one engine would
// queue and what a fourth would buy, using the occupancy model of
// internal/coherence/engines.go.
func AblateEnginesJob(o Options, _ *MeasurementSet) sweep.Job {
	procs := 8
	if o.MPQuick {
		procs = 4
	}
	var units []sweep.Unit
	for _, name := range []string{"MP3D", "WATER"} {
		for _, engines := range []int{1, 2, 4} {
			units = append(units, uncached(fmt.Sprintf("ablate-engines/%s/engines=%d", name, engines), func() (EngineRow, error) {
				m := machine(o.Device(), coherence.IntegratedVictim, procs)
				m.EnableEngines(engines)
				r, err := o.runSplash(name, procs, m)
				if err != nil {
					return EngineRow{}, err
				}
				q, _ := m.EngineStats()
				return EngineRow{
					Bench: name, Engines: engines, Cycles: r.Cycles, QueueCycles: q,
				}, nil
			}))
		}
	}
	return job("ablate-engines", units, func(rows []EngineRow) (interface{}, error) {
		return &EngineResult{Procs: procs, Rows: rows}, nil
	})
}

// Table renders the engine ablation.
func (r *EngineResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Ablation: protocol engines per node (paper: 2), %d procs", r.Procs),
		"benchmark", "engines", "cycles", "engine queue cycles")
	for _, row := range r.Rows {
		t.Row(row.Bench, row.Engines, row.Cycles, row.QueueCycles)
	}
	t.Note("each coherence transaction occupies a home-node engine for ~16 cycles;")
	t.Note("one engine queues under MP3D-style invalidation storms, two barely do (Section 4.2)")
	return t
}

// JouppiRow compares Jouppi's two structures on one benchmark.
type JouppiRow struct {
	Bench     string
	PlainPct  float64 // column-buffer cache alone
	VictimPct float64 // + 16×32 B victim cache (the paper's choice)
	StreamPct float64 // + 4×4 stream buffers (the alternative)
}

// JouppiResult is the victim-vs-stream-buffer ablation.
type JouppiResult struct{ Rows []JouppiRow }

// AblateJouppiJob compares the paper's victim cache against Jouppi's
// stream buffers (both come from the paper's reference [18]), one unit
// per benchmark; each unit is one trace pass feeding all three
// structures. The 512 B column fills already deliver the sequential
// prefetch a stream buffer provides, so the victim cache — which
// recovers *evicted* blocks — is the structure that pays off; this
// experiment quantifies that design rationale.
func AblateJouppiJob(o Options, _ *MeasurementSet) sweep.Job {
	benches := []string{"101.tomcatv", "102.swim", "104.hydro2d", "099.go"}
	units := make([]sweep.Unit, len(benches))
	for i, name := range benches {
		units[i] = uncached("ablate-jouppi/"+name, func() (JouppiRow, error) { return ablateJouppiBench(o, name) })
	}
	return job("ablate-jouppi", units, func(rows []JouppiRow) (interface{}, error) { return &JouppiResult{Rows: rows}, nil })
}

// ablateJouppiBench measures one benchmark with all three structures.
func ablateJouppiBench(o Options, name string) (JouppiRow, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return JouppiRow{}, err
	}
	dev := o.Device()
	plain, _ := dev.DCache()
	// Without a victim cache the "+ victim" column is the plain cache.
	dc, vc := dev.DCache()
	var vic cache.Cache = dc
	if vc != nil {
		vic = cache.NewWithVictim(dc, vc)
	}
	sc, _ := dev.DCache()
	caches := cache.Replay{plain, vic, cache.NewWithStream(sc, cache.NewStreamBuffer(4))}
	if err := o.stream(w, caches); err != nil {
		return JouppiRow{}, err
	}
	return JouppiRow{
		Bench:     name,
		PlainPct:  caches[0].Stats().Data().Percent(),
		VictimPct: caches[1].Stats().Data().Percent(),
		StreamPct: caches[2].Stats().Data().Percent(),
	}, nil
}

// Table renders the Jouppi-structure comparison.
func (r *JouppiResult) Table() *report.Table {
	t := report.NewTable("Ablation: victim cache vs stream buffers (Jouppi [18]), miss rate %",
		"benchmark", "column buffers", "+ victim (paper)", "+ stream buffers")
	for _, row := range r.Rows {
		t.Row(row.Bench, pct(row.PlainPct), pct(row.VictimPct), pct(row.StreamPct))
	}
	t.Note("the 512 B column fill already is a prefetch; the conflict misses the paper")
	t.Note("fights are re-references to evicted blocks, which only the victim cache holds")
	return t
}
