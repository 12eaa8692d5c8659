// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index). Each benchmark
// runs the corresponding experiment at reduced fidelity so that
// `go test -bench=. -benchmem` completes in minutes; use cmd/iramsim
// without -quick for full-fidelity runs.
//
// Custom metrics surface each experiment's headline number so the
// bench output itself documents the reproduction:
//
//	BenchmarkTable1     ss5_speedup      (paper: 1.38x)
//	BenchmarkTable4     tomcatv_cpi      (paper: 1.23)
//	BenchmarkFig13..17  victim_vs_ref    (<= ~1 means integrated wins)
package repro_test

import (
	"context"
	"testing"

	"repro/internal/coherence"
	"repro/internal/experiments"
	"repro/internal/resultstore"
	"repro/internal/sweep"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

func quickOpts() experiments.Options {
	o := experiments.Quick()
	o.Budget = 200_000
	o.GSPNInstr = 10_000
	o.Procs = []int{1, 4}
	return o
}

// run builds the named experiment from the registry and runs it on a
// one-worker engine.
func run[T any](b *testing.B, name string, o experiments.Options, ms *experiments.MeasurementSet) T {
	b.Helper()
	j, err := experiments.JobFor(name, o, ms)
	if err != nil {
		b.Fatal(err)
	}
	var v interface{}
	if err := (&sweep.Engine{Workers: 1}).Run(context.Background(), []sweep.Job{j}, func(r sweep.JobResult) error {
		v = r.Value
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	return v.(T)
}

// BenchmarkTable1 regenerates Table 1 (SS-5 vs SS-10/61 Synopsys).
func BenchmarkTable1(b *testing.B) {
	o := quickOpts()
	var speedup float64
	for i := 0; i < b.N; i++ {
		r := run[*experiments.Table1Result](b, "table1", o, nil)
		speedup = r.Rows[1].ModelNsPerInst / r.Rows[0].ModelNsPerInst
	}
	b.ReportMetric(speedup, "ss5_speedup")
}

// BenchmarkFig2 regenerates Figure 2 (latency vs size and stride).
func BenchmarkFig2(b *testing.B) {
	o := quickOpts()
	var beyond float64
	for i := 0; i < b.N; i++ {
		r := run[*experiments.Fig2Result](b, "fig2", o, nil)
		beyond = r.AvgNs["SS-10/61"][16<<20][512] / r.AvgNs["SS-5"][16<<20][512]
	}
	b.ReportMetric(beyond, "ss10_vs_ss5_at_16MB")
}

// BenchmarkFig7 regenerates Figure 7 (I-cache miss rates).
func BenchmarkFig7(b *testing.B) {
	o := quickOpts()
	var fppppRatio float64
	for i := 0; i < b.N; i++ {
		ms := experiments.NewMeasurementSet(o)
		r := run[*experiments.Fig7Result](b, "fig7", o, ms)
		for _, row := range r.Rows {
			if row.Bench == "145.fpppp" && row.Proposed > 0 {
				fppppRatio = row.Conv[8] / row.Proposed
			}
		}
	}
	b.ReportMetric(fppppRatio, "fpppp_advantage_x")
}

// BenchmarkFig8 regenerates Figure 8 (D-cache miss rates).
func BenchmarkFig8(b *testing.B) {
	o := quickOpts()
	var victimGain float64
	for i := 0; i < b.N; i++ {
		ms := experiments.NewMeasurementSet(o)
		r := run[*experiments.Fig8Result](b, "fig8", o, ms)
		for _, row := range r.Rows {
			if row.Bench == "101.tomcatv" {
				victimGain = (row.PropLoad + row.PropStore) / (row.VicLoad + row.VicStore)
			}
		}
	}
	b.ReportMetric(victimGain, "tomcatv_victim_gain_x")
}

// BenchmarkFig7Warm is BenchmarkFig7 against a pre-populated result
// cache: every unit decodes its assembled row instead of simulating, so
// this measures the warm-rerun floor (store read + versioned gob
// decode). The gap to BenchmarkFig7 is what a rerun saves. Each pass
// opens a fresh Store over the warm directory, as a new process does:
// one Store kept across passes would answer from the values it already
// decoded, which is what internal/runner's BenchmarkServeWarm times.
func BenchmarkFig7Warm(b *testing.B) {
	dir := b.TempDir()
	o := quickOpts()
	run := func() {
		store, err := resultstore.NewStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		eng := &sweep.Engine{Workers: 4, Cache: store}
		job := experiments.Fig7Job(o, experiments.NewMeasurementSet(o))
		if err := eng.Run(context.Background(), []sweep.Job{job}, func(sweep.JobResult) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	run() // untimed cold pass populates the store
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// tracedOpts returns quickOpts with the reference streams served from a
// pre-populated trace cache, so the benchmark times replay (decode +
// cache models), not trace generation (VM execution + cache models).
func tracedOpts(b *testing.B) experiments.Options {
	b.Helper()
	store, err := tracestore.NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	o := quickOpts()
	o.TraceSource = workload.Traced{Store: store, Seed: o.Seed}
	return o
}

// BenchmarkFig7Replay is BenchmarkFig7 with recorded traces: the gap to
// BenchmarkFig7 is the cost of re-executing the workload generators.
func BenchmarkFig7Replay(b *testing.B) {
	o := tracedOpts(b)
	run[*experiments.Fig7Result](b, "fig7", o, experiments.NewMeasurementSet(o)) // untimed recording pass populates the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := experiments.NewMeasurementSet(o)
		run[*experiments.Fig7Result](b, "fig7", o, ms)
	}
}

// BenchmarkFig7ReplayCold is BenchmarkFig7Replay as every new process
// runs it: each iteration opens a fresh tracestore.Store on the
// recorded directory, so it pays the whole-file check before each
// entry's first replay (trace.Check: header, end-of-trace record,
// CRC-32C, no decode) that a reused Store's memo lets
// BenchmarkFig7Replay skip. The gap between the two is that check.
func BenchmarkFig7ReplayCold(b *testing.B) {
	o := tracedOpts(b)
	run[*experiments.Fig7Result](b, "fig7", o, experiments.NewMeasurementSet(o)) // untimed recording pass populates the cache
	dir := o.TraceSource.(workload.Traced).Store.Dir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, err := tracestore.NewStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		o.TraceSource = workload.Traced{Store: store, Seed: o.Seed}
		run[*experiments.Fig7Result](b, "fig7", o, experiments.NewMeasurementSet(o))
	}
}

// BenchmarkFig8Replay is BenchmarkFig8 with recorded traces.
func BenchmarkFig8Replay(b *testing.B) {
	o := tracedOpts(b)
	run[*experiments.Fig8Result](b, "fig8", o, experiments.NewMeasurementSet(o)) // untimed recording pass populates the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := experiments.NewMeasurementSet(o)
		run[*experiments.Fig8Result](b, "fig8", o, ms)
	}
}

// BenchmarkDesignspace times the design-space search on a 64-point
// lattice, replay-fed: every point is answered by families x benches
// shared trace passes plus the capped GSPN stage, so this measures the
// whole pass-sharing fast path end to end.
func BenchmarkDesignspace(b *testing.B) {
	o := tracedOpts(b)
	o.Budget = 100_000
	o.GSPNInstr = 2_000
	o.DSBanks = []int{4, 8, 12, 16, 24, 32, 48, 64}
	o.DSColumns = []int{256, 512}
	o.DSWays = []int{1, 2}
	o.DSVictims = []int{0, 16}
	run[*experiments.DesignspaceResult](b, "designspace", o, nil) // untimed recording pass populates the trace cache
	b.ResetTimer()
	var pointsPerPass float64
	for i := 0; i < b.N; i++ {
		r := run[*experiments.DesignspaceResult](b, "designspace", o, nil)
		a := r.Accounting
		pointsPerPass = float64(a.Lattice*a.Benches) / float64(a.Passes)
	}
	b.ReportMetric(pointsPerPass, "points_per_pass")
}

// BenchmarkFig11 regenerates Figure 11 (conventional CPI sensitivity).
func BenchmarkFig11(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		ms := experiments.NewMeasurementSet(o)
		run[*experiments.LatencyResult](b, "fig11", o, ms)
	}
}

// BenchmarkFig12 regenerates Figure 12 (integrated CPI sensitivity).
func BenchmarkFig12(b *testing.B) {
	o := quickOpts()
	var cpi30ns float64
	for i := 0; i < b.N; i++ {
		ms := experiments.NewMeasurementSet(o)
		r := run[*experiments.LatencyResult](b, "fig12", o, ms)
		for _, p := range r.Points {
			if p.Bench == "126.gcc" && p.MemCycles == 6 {
				cpi30ns = p.CPI
				break
			}
		}
	}
	b.ReportMetric(cpi30ns, "gcc_cpi_at_30ns")
}

// BenchmarkTable3 regenerates Table 3 (Spec'95 CPI, no victim cache).
func BenchmarkTable3(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		ms := experiments.NewMeasurementSet(o)
		run[*experiments.CPIResult](b, "table3", o, ms)
	}
}

// BenchmarkTable4 regenerates Table 4 (Spec'95 CPI, with victim cache).
func BenchmarkTable4(b *testing.B) {
	o := quickOpts()
	var tomcatv float64
	for i := 0; i < b.N; i++ {
		ms := experiments.NewMeasurementSet(o)
		r := run[*experiments.CPIResult](b, "table4", o, ms)
		for _, row := range r.Rows {
			if row.Bench == "101.tomcatv" {
				tomcatv = row.TotalCPI
			}
		}
	}
	b.ReportMetric(tomcatv, "tomcatv_cpi")
}

// BenchmarkBankSensitivity regenerates the Section 5.6 study.
func BenchmarkBankSensitivity(b *testing.B) {
	o := quickOpts()
	var util16 float64
	for i := 0; i < b.N; i++ {
		ms := experiments.NewMeasurementSet(o)
		r := run[*experiments.BankResult](b, "banks", o, ms)
		for _, row := range r.Rows {
			if row.Integrated && row.Banks == 16 && row.Bench == "126.gcc" {
				util16 = 100 * row.Utilization
			}
		}
	}
	b.ReportMetric(util16, "gcc_bank_util_pct")
}

// splashBench runs one of Figures 13-17 and reports the victim-config
// execution time relative to the reference CC-NUMA at the highest
// processor count.
func splashBench(b *testing.B, name string) {
	o := quickOpts()
	var rel float64
	for i := 0; i < b.N; i++ {
		r := run[*experiments.SplashResult](b, name, o, nil)
		p := o.Procs[len(o.Procs)-1]
		ref, _ := r.Cycles(coherence.ReferenceCCNUMA, p)
		vic, _ := r.Cycles(coherence.IntegratedVictim, p)
		if ref > 0 {
			rel = float64(vic) / float64(ref)
		}
	}
	b.ReportMetric(rel, "victim_vs_ref")
}

// BenchmarkFig13LU regenerates Figure 13 (LU).
func BenchmarkFig13LU(b *testing.B) { splashBench(b, "fig13") }

// BenchmarkFig14MP3D regenerates Figure 14 (MP3D).
func BenchmarkFig14MP3D(b *testing.B) { splashBench(b, "fig14") }

// BenchmarkFig15Ocean regenerates Figure 15 (OCEAN).
func BenchmarkFig15Ocean(b *testing.B) { splashBench(b, "fig15") }

// BenchmarkFig16Water regenerates Figure 16 (WATER).
func BenchmarkFig16Water(b *testing.B) { splashBench(b, "fig16") }

// BenchmarkFig17Pthor regenerates Figure 17 (PTHOR).
func BenchmarkFig17Pthor(b *testing.B) { splashBench(b, "fig17") }

// BenchmarkAblateLineSize sweeps the D-cache line size (Section 5.3/5.6
// design tension).
func BenchmarkAblateLineSize(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		run[*experiments.LineSizeResult](b, "ablate-linesize", o, nil)
	}
}

// BenchmarkAblateVictimSize sweeps the victim-cache capacity around
// the paper's 16-entry choice.
func BenchmarkAblateVictimSize(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		run[*experiments.VictimSizeResult](b, "ablate-victim", o, nil)
	}
}

// BenchmarkAblateCoherenceUnit quantifies the paper's false-sharing
// warning about 512 B coherence units.
func BenchmarkAblateCoherenceUnit(b *testing.B) {
	o := quickOpts()
	var blowup float64
	for i := 0; i < b.N; i++ {
		r := run[*experiments.UnitResult](b, "ablate-unit", o, nil)
		var small, big uint64
		for _, row := range r.Rows {
			if row.Bench == "falseshare (micro)" {
				if row.UnitBytes == 32 {
					small = row.Cycles
				}
				if row.UnitBytes == 512 {
					big = row.Cycles
				}
			}
		}
		if small > 0 {
			blowup = float64(big) / float64(small)
		}
	}
	b.ReportMetric(blowup, "falseshare_blowup_x")
}

// BenchmarkAblateINC compares INC associativities (Section 6.2).
func BenchmarkAblateINC(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		run[*experiments.INCResult](b, "ablate-inc", o, nil)
	}
}

// BenchmarkAblateScoreboard sweeps the Figure 10 T23 stall rate.
func BenchmarkAblateScoreboard(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		ms := experiments.NewMeasurementSet(o)
		run[*experiments.ScoreboardResult](b, "ablate-scoreboard", o, ms)
	}
}

// BenchmarkAblateEngines varies the protocol-engine count (Section 4.2
// budgets two engines).
func BenchmarkAblateEngines(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		run[*experiments.EngineResult](b, "ablate-engines", o, nil)
	}
}
