package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/report"
	"repro/internal/selftest"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// The text experiments render repository metadata and fixed tables
// rather than simulation results: the datasheet, the workload table,
// the GSPN shape lines, the built-in self test, the cost model and the
// fabric study. Each is a single-unit job whose value is the rendered
// bytes, which frontends write out verbatim in table and JSON mode
// alike.

// text wraps a renderer as a single-unit job whose value is the bytes
// it writes.
func text(name string, render func(w *bytes.Buffer) error) sweep.Job {
	return sweep.Single(name, func() (interface{}, error) {
		var buf bytes.Buffer
		if err := render(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// specJob renders the datasheet of the device under test.
func specJob(o Options, _ *MeasurementSet) sweep.Job {
	return text("spec", func(w *bytes.Buffer) error {
		for _, line := range o.Device().Datasheet() {
			fmt.Fprintln(w, line)
		}
		fmt.Fprintln(w)
		return nil
	})
}

// workloadsJob renders the benchmark stand-ins (the paper's Table 2).
func workloadsJob(_ Options, _ *MeasurementSet) sweep.Job {
	return text("workloads", func(w *bytes.Buffer) error {
		t := report.NewTable("Table 2: benchmark stand-ins",
			"benchmark", "fp", "base CPI", "budget", "description")
		for _, name := range workload.Names() {
			wl, err := workload.ByName(name)
			if err != nil {
				return err
			}
			desc := wl.Description
			if len(desc) > 72 {
				desc = desc[:69] + "..."
			}
			t.Row(wl.Name, wl.Float, wl.BaseCPI, wl.Budget, desc)
		}
		t.Render(w)
		return nil
	})
}

// fig910Job renders the shape of the Figure 9/10 GSPN for the device
// under test and the reference system.
func fig910Job(o Options, _ *MeasurementSet) sweep.Job {
	return text("fig910", func(w *bytes.Buffer) error {
		for _, cfg := range []cpumodel.SystemConfig{cpumodel.ConfigFor(o.Device()), cpumodel.ConfigFor(core.Reference())} {
			m, err := cpumodel.Build(cfg, cpumodel.AppRates{
				Name: "shape", BaseCPI: 1, LoadFrac: 0.25, StoreFrac: 0.1,
				IHit: 0.95, LoadHit: 0.95, StoreHit: 0.95,
				IL2Hit: 0.9, LoadL2Hit: 0.9, StoreL2Hit: 0.9,
			})
			if err != nil {
				return err
			}
			sh := m.Shape()
			fmt.Fprintf(w,
				"Figure 9/10 net (%s): %d places, %d immediate + %d deterministic + %d exponential transitions, %d banks, L2=%v"+"\n",
				cfg.Name, sh.Places, sh.Immediate, sh.Deterministic, sh.Exponential, sh.Banks, sh.HasL2)
		}
		fmt.Fprintln(w)
		return nil
	})
}

// costJob renders the Section 3 cost model.
func costJob(_ Options, _ *MeasurementSet) sweep.Job {
	return text("cost", func(w *bytes.Buffer) error {
		Cost().Render(w)
		return nil
	})
}

// fabricJob renders the S-Connect fabric scaling study of the device
// under test.
func fabricJob(o Options, _ *MeasurementSet) sweep.Job {
	return text("fabric", func(w *bytes.Buffer) error {
		t, err := Fabric(o.Device())
		if err != nil {
			return err
		}
		t.Render(w)
		return nil
	})
}

// selftestJob runs the built-in self test and renders its verdict.
func selftestJob(_ Options, _ *MeasurementSet) sweep.Job {
	return text("selftest", func(w *bytes.Buffer) error {
		r, err := selftest.Run(selftest.Config{WindowBytes: 256 << 10})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "built-in self test: passed=%v phase=%s instructions=%d window=%dKB fills=%d\n\n",
			r.Passed, r.Phase, r.Instructions, r.MemoryBytes>>10, r.CacheFills)
		return nil
	})
}
