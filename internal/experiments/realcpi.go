package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------
// Real-program CPI: the GroupReal kernels through both system models.
// ---------------------------------------------------------------------

// RealCPIRow is one real-program kernel's CPI on the integrated device
// (with victim cache, as in Table 4) and the conventional reference
// system. Unlike the SPEC stand-ins there is no paper column: these
// kernels execute real algorithms end to end and self-verify, so the
// row is a genuine measurement, not a calibration.
type RealCPIRow struct {
	Bench        string
	BaseCPI      float64 // explicit per-kernel functional-unit CPI
	IntMemCPI    float64 // integrated system, victim cache on
	IntTotalCPI  float64
	RefMemCPI    float64 // conventional reference system
	RefTotalCPI  float64
	Speedup      float64 // RefTotalCPI / IntTotalCPI
	IMissPct     float64 // proposed I-cache miss %
	DMissPct     float64 // proposed D-cache (with victim) miss %
	LoadFraction float64
}

// RealCPIResult is the real-program CPI data set.
type RealCPIResult struct{ Rows []RealCPIRow }

// RealCPIJob enumerates the real-program study, every GroupReal kernel
// on both systems, as one unit per kernel.
func RealCPIJob(o Options, ms *MeasurementSet) sweep.Job {
	k := newKeyer("realcpi", o,
		fmt.Sprintf("budget=%d", o.Budget), fmt.Sprintf("gspn=%d", o.GSPNInstr))
	ws := workload.Real()
	units := make([]sweep.Unit, len(ws))
	for i, w := range ws {
		units[i] = cached(k, "realcpi/"+w.Name, o.Seed, realcpiCodec, func() (RealCPIRow, error) { return realCPIRow(o, ms, w) })
	}
	return job("realcpi", units, func(rows []RealCPIRow) (interface{}, error) { return &RealCPIResult{Rows: rows}, nil })
}

// realCPIRow evaluates one kernel through the GSPN on both systems.
func realCPIRow(o Options, ms *MeasurementSet, w workload.Workload) (RealCPIRow, error) {
	m, err := ms.Get(w)
	if err != nil {
		return RealCPIRow{}, err
	}
	intRates := m.Rates(true, true)
	intRes, err := cpumodel.Evaluate(cpumodel.ConfigFor(o.Device()), intRates, o.GSPNInstr, o.Seed)
	if err != nil {
		return RealCPIRow{}, err
	}
	refRates := m.Rates(false, false)
	refRes, err := cpumodel.Evaluate(cpumodel.ConfigFor(core.Reference()), refRates, o.GSPNInstr, o.Seed)
	if err != nil {
		return RealCPIRow{}, err
	}
	counts := m.Caches.RefCounts()
	return RealCPIRow{
		Bench:        w.Name,
		BaseCPI:      intRates.BaseCPI,
		IntMemCPI:    intRes.MemCPI,
		IntTotalCPI:  intRes.TotalCPI,
		RefMemCPI:    refRes.MemCPI,
		RefTotalCPI:  refRes.TotalCPI,
		Speedup:      refRes.TotalCPI / intRes.TotalCPI,
		IMissPct:     m.Caches.PropIStats().Ifetch.Percent(),
		DMissPct:     m.Caches.PropDVictimStats().Data().Percent(),
		LoadFraction: counts.LoadFrac(),
	}, nil
}

// Table renders the real-program CPI comparison.
func (r *RealCPIResult) Table() *report.Table {
	t := report.NewTable("Real-program kernels: integrated vs conventional CPI (self-verifying workloads)",
		"kernel", "cpu CPI", "int mem CPI", "int total", "ref mem CPI", "ref total",
		"speedup", "I-miss %", "D-miss %", "load frac")
	for _, row := range r.Rows {
		t.Row(row.Bench,
			fmt.Sprintf("%.2f", row.BaseCPI),
			fmt.Sprintf("%.2f", row.IntMemCPI),
			fmt.Sprintf("%.2f", row.IntTotalCPI),
			fmt.Sprintf("%.2f", row.RefMemCPI),
			fmt.Sprintf("%.2f", row.RefTotalCPI),
			fmt.Sprintf("%.2f", row.Speedup),
			pct(row.IMissPct), pct(row.DMissPct),
			fmt.Sprintf("%.3f", row.LoadFraction))
	}
	t.Note("gemm/bfs/hashjoin are complete programs assembled from source and executed to a")
	t.Note("self-checked result; cpu CPI is an explicit per-kernel estimate (no paper SpecCal exists)")
	return t
}
