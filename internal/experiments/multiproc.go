package experiments

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/costmodel"
	"repro/internal/interconnect"
	"repro/internal/report"
	"repro/internal/splash"
	"repro/internal/sweep"
)

// ---------------------------------------------------------------------
// Figures 13–17: SPLASH execution times.
// ---------------------------------------------------------------------

// SplashPoint is one (config, processors) execution time.
type SplashPoint struct {
	Config coherence.Config
	Procs  int
	Cycles uint64
}

// SplashResult is one figure's data set.
type SplashResult struct {
	Bench  string
	Points []SplashPoint
}

// SplashJob returns the builder of one SPLASH figure (Figures 13–17):
// benchmark bench over every processor count and the three system
// configurations, as the job called name. Each (processor count,
// configuration) simulation is one unit — the multiprocessor runs are
// the dominant cost of `iramsim all` and they are all independent.
func SplashJob(name, bench string) func(Options, *MeasurementSet) sweep.Job {
	return func(o Options, _ *MeasurementSet) sweep.Job {
		sz := o.splashSize()
		configs := []coherence.Config{
			coherence.ReferenceCCNUMA,
			coherence.IntegratedPlain,
			coherence.IntegratedVictim,
		}
		k := newKeyer(name, o, fmt.Sprintf("mpquick=%v", o.MPQuick))
		var units []sweep.Unit
		for _, np := range o.Procs {
			for _, cfg := range configs {
				uname := fmt.Sprintf("%s/%s/p=%d/%s", name, bench, np, cfg)
				units = append(units, cached(k, uname, 0, splashCodec, func() (SplashPoint, error) {
					b, err := splash.ByName(bench)
					if err != nil {
						return SplashPoint{}, err
					}
					m := machine(o.Device(), cfg, np)
					r := b.RunMachine(np, m, sz)
					if o.Obs != nil {
						m.Publish(o.Obs)
						r.Coord.Publish(o.Obs)
					}
					return SplashPoint{Config: cfg, Procs: np, Cycles: r.Cycles}, nil
				}))
			}
		}
		return job(name, units, func(points []SplashPoint) (interface{}, error) {
			return &SplashResult{Bench: bench, Points: points}, nil
		})
	}
}

// Cycles returns the execution time for a configuration/processor pair.
func (r *SplashResult) Cycles(cfg coherence.Config, procs int) (uint64, bool) {
	for _, p := range r.Points {
		if p.Config == cfg && p.Procs == procs {
			return p.Cycles, true
		}
	}
	return 0, false
}

// Table renders the figure as execution-time rows plus bars.
func (r *SplashResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("SPLASH %s: execution time (cycles) vs processors", r.Bench),
		"procs", "reference CC-NUMA", "integrated (no victim)", "integrated + victim")
	procs := []int{}
	seen := map[int]bool{}
	for _, p := range r.Points {
		if !seen[p.Procs] {
			seen[p.Procs] = true
			procs = append(procs, p.Procs)
		}
	}
	for _, np := range procs {
		ref, _ := r.Cycles(coherence.ReferenceCCNUMA, np)
		plain, _ := r.Cycles(coherence.IntegratedPlain, np)
		vic, _ := r.Cycles(coherence.IntegratedVictim, np)
		t.Row(np, ref, plain, vic)
	}
	t.Note("reference uses an infinite second-level cache (upper bound); Table 6 latencies")
	return t
}

// Bars renders a per-processor-count bar chart of the three configs.
func (r *SplashResult) Bars(procs int) *report.Bars {
	b := report.NewBars(fmt.Sprintf("%s at %d processors (cycles, shorter is better)", r.Bench, procs))
	for _, cfg := range []coherence.Config{
		coherence.ReferenceCCNUMA, coherence.IntegratedPlain, coherence.IntegratedVictim,
	} {
		if c, ok := r.Cycles(cfg, procs); ok {
			b.Add(cfg.String(), float64(c), "cy")
		}
	}
	return b
}

// ---------------------------------------------------------------------
// Section 3: cost model.
// ---------------------------------------------------------------------

// Cost reproduces the Section 3 arithmetic.
func Cost() *report.Table {
	in := costmodel.Default()
	r := costmodel.Evaluate(in)
	t := report.NewTable("Section 3: processor/memory integration cost model",
		"quantity", "value")
	t.Row("256 Mbit DRAM at $25/MB", fmt.Sprintf("$%.0f", r.PlainDRAMDollars))
	t.Row("integrated device (10% extra area)", fmt.Sprintf("$%.0f", r.IntegratedDollars))
	t.Row("effective processor cost", fmt.Sprintf("$%.0f", r.ProcessorPremium))
	t.Row("cost growth per area growth (CDRAM precedent)", fmt.Sprintf("%.2fx", r.CostPerAreaFactor))
	t.Row("processor area budget", fmt.Sprintf("%.0f mm2", r.ProcessorAreaMM2))
	t.Row("R4300i-class core fits budget", fmt.Sprintf("%v", r.CoreFitsBudget))
	t.Row("standard ECC overhead", fmt.Sprintf("%.1f%%", r.ECCOverheadPercent))
	t.Note("paper rounds the same extrapolation up to ~$1000 integrated / $200 premium;")
	t.Note("the straight CDRAM scaling shown here gives the lower bound of that estimate")
	return t
}

// ---------------------------------------------------------------------
// Extension: Simple-COMA versus CC-NUMA (Section 4.2).
// ---------------------------------------------------------------------

// SCOMARow is one benchmark's four-way machine comparison.
type SCOMARow struct {
	Bench  string
	Cycles map[coherence.Config]uint64
}

// SCOMAResult compares the protocol engines' two personalities.
type SCOMAResult struct {
	Procs int
	Rows  []SCOMARow
}

// scomaConfigs are the machine personalities compared by the S-COMA
// extension, in column order.
var scomaConfigs = []coherence.Config{
	coherence.ReferenceCCNUMA, coherence.IntegratedVictim, coherence.SimpleCOMA,
}

// SCOMAJob runs the SPLASH suite on the Simple-COMA machine alongside
// the reference and integrated+victim configurations, one unit per
// (benchmark, configuration) multiprocessor run. The paper implements
// both protocols in the engines' microcode but evaluates only CC-NUMA;
// this is the reproduction's look at the road not taken: S-COMA turns
// remote re-accesses into local column-buffer hits at the price of page
// allocation traps.
func SCOMAJob(o Options, _ *MeasurementSet) sweep.Job {
	const procs = 4
	sz := o.splashSize()
	k := newKeyer("scoma", o, fmt.Sprintf("mpquick=%v", o.MPQuick))
	benches := splash.All()
	var units []sweep.Unit
	for _, b := range benches {
		for _, cfg := range scomaConfigs {
			units = append(units, cached(k, fmt.Sprintf("scoma/%s/%s", b.Name, cfg), 0, cyclesCodec, func() (uint64, error) {
				m := machine(o.Device(), cfg, procs)
				r := b.RunMachine(procs, m, sz)
				if o.Obs != nil {
					m.Publish(o.Obs)
					r.Coord.Publish(o.Obs)
				}
				return r.Cycles, nil
			}))
		}
	}
	return job("scoma", units, func(cycles []uint64) (interface{}, error) {
		res := &SCOMAResult{Procs: procs}
		for bi, b := range benches {
			row := SCOMARow{Bench: b.Name, Cycles: map[coherence.Config]uint64{}}
			for ci, cfg := range scomaConfigs {
				row.Cycles[cfg] = cycles[bi*len(scomaConfigs)+ci]
			}
			res.Rows = append(res.Rows, row)
		}
		return res, nil
	})
}

// Table renders the S-COMA comparison.
func (r *SCOMAResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Extension: Simple-COMA vs CC-NUMA (%d procs), cycles", r.Procs),
		"benchmark", "reference CC-NUMA", "integrated + victim", "integrated S-COMA")
	for _, row := range r.Rows {
		t.Row(row.Bench,
			row.Cycles[coherence.ReferenceCCNUMA],
			row.Cycles[coherence.IntegratedVictim],
			row.Cycles[coherence.SimpleCOMA])
	}
	t.Note("S-COMA (Section 4.2's second protocol personality) backs remote data with")
	t.Note("local attraction-memory pages: re-accesses become column-buffer hits")
	return t
}

// ---------------------------------------------------------------------
// Extension: fabric scaling (Section 8's Lego-block vision).
// ---------------------------------------------------------------------

// Fabric evaluates the S-Connect fabric's scaling: bisection bandwidth
// growing with the machine, and remote latency against the paper's
// sub-200 ns budget.
func Fabric() (*report.Table, error) {
	rows, err := interconnect.ScalingStudy(interconnect.Torus2D,
		[]int{4, 16, 64, 256}, interconnect.Default())
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extension: S-Connect fabric scaling (2-D torus, 4 × 2.5 Gbit/s links)",
		"nodes", "mean hops", "diameter", "bisection GB/s", "remote read ns", "< 200ns")
	for _, r := range rows {
		t.Row(r.Nodes, fmt.Sprintf("%.2f", r.MeanHops), r.Diameter,
			fmt.Sprintf("%.2f", r.BisectionGBs),
			fmt.Sprintf("%.0f", r.RemoteReadNs), r.Within200ns)
	}
	t.Note("Section 8: bi-sectional bandwidth increases as components are added;")
	t.Note("Section 4.2: remote memory latencies below 200 ns at board scale")
	return t, nil
}

// Plot renders the figure as an ASCII line plot (execution time vs
// processor count, one series per machine configuration).
func (r *SplashResult) Plot() *report.Series {
	s := report.NewSeries(
		fmt.Sprintf("Figure: SPLASH %s execution time", r.Bench),
		"processors", "cycles (lower is better)")
	for _, p := range r.Points {
		s.Add(p.Config.String(), float64(p.Procs), float64(p.Cycles))
	}
	return s
}
