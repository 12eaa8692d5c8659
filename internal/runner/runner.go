// Package runner is the run-orchestration layer between the experiment
// registry and the user-facing frontends. A Request names experiments
// plus the full fidelity surface (budget, seed, machine description,
// design-space axes, quick mode) as plain serializable data; Run owns
// everything a frontend would otherwise reimplement — building
// experiments.Options, wiring the trace and result caches, constructing
// the sweep engine, rendering each assembled result, and reporting
// structured progress. cmd/iramsim is a thin flag-parsing client of
// this package, and cmd/iramsimd serves the same Requests over HTTP:
// one run path, two transports, byte-identical output.
package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/resultstore"
	"repro/internal/selftest"
	"repro/internal/sweep"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// Request specifies one run: which experiments, at what fidelity,
// against which machine. It is plain data with JSON tags — the daemon
// decodes a POST body straight into it — and deliberately carries no
// local paths or callbacks; those are the caller's Config.
type Request struct {
	// Experiments are the experiment names, in output order. The single
	// name "all" expands to the full `iramsim all` sequence.
	Experiments []string `json:"experiments"`
	// Quick selects reduced-fidelity (CI-sized) runs.
	Quick bool `json:"quick,omitempty"`
	// Budget overrides the per-workload instruction budget (0 = default).
	Budget int64 `json:"budget,omitempty"`
	// Seed drives all Monte-Carlo randomness (0 = the default seed 1).
	Seed int64 `json:"seed,omitempty"`
	// Procs overrides the processor counts for fig13..fig17.
	Procs []int `json:"procs,omitempty"`
	// Machine is an optional JSON machine description overriding the
	// paper's integrated device, validated by core.FromJSON exactly as
	// the -machine flag is.
	Machine json.RawMessage `json:"machine,omitempty"`
	// DSBanks..DSVictims override the designspace search axes.
	DSBanks   []int `json:"ds_banks,omitempty"`
	DSColumns []int `json:"ds_columns,omitempty"`
	DSWays    []int `json:"ds_ways,omitempty"`
	DSVictims []int `json:"ds_victims,omitempty"`
	// DSCoarse / DSRefine control the designspace coarse-grid stride
	// and adaptive-refinement rounds.
	DSCoarse int `json:"ds_coarse,omitempty"`
	DSRefine int `json:"ds_refine,omitempty"`
}

// Config carries the cross-cutting wiring a caller sets up once per
// run: output streams, caches, observability, and progress callbacks.
// The zero value runs serially with no caches and discards all output.
type Config struct {
	// Workers sizes the sweep worker pool (<=0 means serial). A
	// resource decision, so it lives here and not on the Request.
	Workers int
	// JSON renders experiment results as JSON instead of tables.
	JSON bool
	// Out receives the deterministic rendered experiment output; nil
	// discards it (callers may consume OnResult instead).
	Out io.Writer
	// Progress receives human-readable per-unit progress lines; nil is
	// silent. Timing-dependent, so never mix it into Out.
	Progress io.Writer
	// Obs, when non-nil, receives every metric family the run touches.
	Obs *obs.Registry
	// Trace, when non-nil, records sweep unit events.
	Trace *obs.Tracer
	// TraceDir, when non-empty, replays recorded workload streams from
	// this cache directory, recording on miss. RecordTraces forces
	// re-recording (and disables the result cache: a record run's
	// purpose is to execute every workload).
	TraceDir     string
	RecordTraces bool
	// ResultCache, when non-nil, memoizes assembled unit results. When
	// nil and ResultCacheDir is non-empty, Run opens a store there —
	// the daemon passes a shared *resultstore.Store so concurrent runs
	// single-flight their overlapping units in-process.
	ResultCache    sweep.ResultCache
	ResultCacheDir string
	// FrontierPath, when non-empty, exports any result carrying a
	// Pareto frontier (the designspace search) to this file after
	// rendering (.csv = CSV, anything else JSON).
	FrontierPath string
	// OnUnit, when non-nil, receives one structured event per sweep
	// unit as it completes — the daemon streams these to HTTP clients.
	OnUnit func(sweep.UnitEvent)
	// OnResult, when non-nil, receives each experiment's assembled
	// result after it is rendered.
	OnResult func(Result)
}

// Result is one experiment's assembled outcome.
type Result struct {
	// Name is the experiment name.
	Name string
	// Value is the experiment's structured result.
	Value interface{}
	// Units is the number of sweep units the experiment decomposed into.
	Units int
	// Elapsed is the summed unit wall time (not wall-clock).
	Elapsed time.Duration
}

// cliNames are the text-only outputs registered here rather than in the
// experiments package (they render repository metadata, not paper
// figures): the datasheet, the workload table, the GSPN shape lines,
// and the built-in self test.
var cliNames = []string{"spec", "workloads", "fig910", "selftest"}

// ExpandNames resolves the "all" shorthand to the full experiment
// sequence and otherwise returns the names unchanged.
func ExpandNames(names []string) []string {
	if len(names) == 1 && names[0] == "all" {
		all := append([]string{"spec"}, experiments.SweepNames()...)
		return append(all, "selftest")
	}
	return names
}

// Known reports whether name is a runnable experiment.
func Known(name string) bool {
	switch name {
	case "all", "designspace": // designspace is runnable but not part of "all"
		return true
	}
	for _, n := range cliNames {
		if n == name {
			return true
		}
	}
	for _, n := range experiments.SweepNames() {
		if n == name {
			return true
		}
	}
	return false
}

// Validate rejects malformed requests before any work is scheduled:
// unknown experiment names, then everything Options rejects — an
// unparsable or invalid machine description (the core.FromJSON
// validation errors, verbatim) and non-positive processor counts. The
// daemon surfaces these as 400s.
func (r Request) Validate() error {
	if len(r.Experiments) == 0 {
		return fmt.Errorf("runner: no experiments requested")
	}
	for _, name := range r.Experiments {
		if !Known(name) {
			return fmt.Errorf("runner: unknown experiment %q", name)
		}
	}
	_, err := r.Options()
	return err
}

// Options resolves the request into experiment options (without the
// caller wiring, which Run adds from its Config).
func (r Request) Options() (experiments.Options, error) {
	opts := experiments.Default()
	if r.Quick {
		opts = experiments.Quick()
	}
	if r.Budget > 0 {
		opts.Budget = r.Budget
	}
	if r.Seed != 0 {
		opts.Seed = r.Seed
	}
	if len(r.Procs) > 0 {
		for _, p := range r.Procs {
			if p < 1 {
				return experiments.Options{}, fmt.Errorf("runner: bad processor count %d", p)
			}
		}
		opts.Procs = append([]int(nil), r.Procs...)
	}
	if len(r.Machine) > 0 {
		dev, err := core.FromJSON(r.Machine)
		if err != nil {
			return experiments.Options{}, err
		}
		opts.Machine = &dev
	}
	opts.DSBanks = append([]int(nil), r.DSBanks...)
	opts.DSColumns = append([]int(nil), r.DSColumns...)
	opts.DSWays = append([]int(nil), r.DSWays...)
	opts.DSVictims = append([]int(nil), r.DSVictims...)
	opts.DSCoarse = r.DSCoarse
	opts.DSRefine = r.DSRefine
	return opts, nil
}

// OpenTraceSource wires a workload trace cache directory into a
// workload.Source (replay, record-on-miss; force re-records). Exposed
// for the CLI's record-all mode, which streams workloads outside a run.
func OpenTraceSource(dir string, seed int64, force bool) (workload.Source, error) {
	store, err := tracestore.NewStore(dir)
	if err != nil {
		return nil, err
	}
	return workload.Traced{Store: store, Seed: seed, Force: force}, nil
}

// Run executes the request end to end: resolve options, wire caches,
// fan the experiments across the worker pool, render each result to
// cfg.Out in request order, and report structured progress through the
// Config callbacks. Canceling ctx abandons the run's queued units and
// returns ctx.Err(). Output is byte-identical for any worker count and
// whether or not the caches are warm.
func Run(ctx context.Context, req Request, cfg Config) error {
	opts, err := req.Options()
	if err != nil {
		return err
	}
	if cfg.TraceDir != "" {
		src, err := OpenTraceSource(cfg.TraceDir, opts.Seed, cfg.RecordTraces)
		if err != nil {
			return err
		}
		opts.TraceSource = src
	}
	// The result cache is never consulted by a trace-record run: its
	// purpose is to execute every workload so the traces get written.
	if cfg.ResultCache == nil && cfg.ResultCacheDir != "" && !cfg.RecordTraces {
		store, err := resultstore.NewStore(cfg.ResultCacheDir)
		if err != nil {
			return err
		}
		cfg.ResultCache = store
	}
	if cfg.RecordTraces {
		cfg.ResultCache = nil
	}
	opts.Workers = cfg.Workers
	opts.Obs = cfg.Obs
	opts.ResultCache = cfg.ResultCache
	opts.Ctx = ctx
	ms := experiments.NewMeasurementSet(opts)
	return RunJobs(ctx, ExpandNames(req.Experiments), opts, ms, cfg)
}

// RunJobs is the options-level entry point under Run: it fans the named
// experiments' units over the worker pool against pre-built options and
// a caller-owned MeasurementSet, rendering each assembled result in
// name order as its sweep frontier completes. The CLI's determinism and
// golden tests drive this directly so the byte-identity contract is
// pinned at the same layer both frontends share.
func RunJobs(ctx context.Context, names []string, opts experiments.Options,
	ms *experiments.MeasurementSet, cfg Config) error {
	jobs := make([]sweep.Job, 0, len(names))
	for _, name := range names {
		j, err := jobFor(name, opts, ms)
		if err != nil {
			return err
		}
		jobs = append(jobs, j)
	}
	eng := &sweep.Engine{
		Workers:  cfg.Workers,
		Progress: cfg.Progress,
		Obs:      cfg.Obs,
		Trace:    cfg.Trace,
		Cache:    cfg.ResultCache,
		OnUnit:   cfg.OnUnit,
	}
	return eng.RunContext(ctx, jobs, func(r sweep.JobResult) error {
		if cfg.Out != nil {
			if err := render(cfg.Out, r.Name, r.Value, cfg.JSON, cfg.FrontierPath); err != nil {
				return err
			}
		}
		if cfg.OnResult != nil {
			cfg.OnResult(Result{Name: r.Name, Value: r.Value, Units: r.Units, Elapsed: r.Elapsed})
		}
		return nil
	})
}

// jobFor maps an experiment name to a sweep job. The text-only outputs
// (spec, workloads, fig910, selftest) live here as single-unit jobs
// that render into a buffer; everything else comes from the
// experiments registry.
func jobFor(name string, opts experiments.Options, ms *experiments.MeasurementSet) (sweep.Job, error) {
	switch name {
	case "spec":
		return sweep.Single(name, 0, func() (interface{}, error) {
			var buf bytes.Buffer
			for _, line := range opts.Device().Datasheet() {
				fmt.Fprintln(&buf, line)
			}
			fmt.Fprintln(&buf)
			return buf.Bytes(), nil
		}), nil
	case "workloads":
		return sweep.Single(name, 0, func() (interface{}, error) {
			var buf bytes.Buffer
			t := report.NewTable("Table 2: benchmark stand-ins",
				"benchmark", "fp", "base CPI", "budget", "description")
			for _, name := range workload.Names() {
				w, err := workload.ByName(name)
				if err != nil {
					return nil, err
				}
				desc := w.Description
				if len(desc) > 72 {
					desc = desc[:69] + "..."
				}
				t.Row(w.Name, w.Float, w.BaseCPI, w.Budget, desc)
			}
			t.Render(&buf)
			return buf.Bytes(), nil
		}), nil
	case "fig910":
		return sweep.Single(name, 0, func() (interface{}, error) {
			var buf bytes.Buffer
			for _, cfg := range []cpumodel.SystemConfig{cpumodel.ConfigFor(opts.Device()), cpumodel.Reference()} {
				m, err := cpumodel.Build(cfg, cpumodel.AppRates{
					Name: "shape", BaseCPI: 1, LoadFrac: 0.25, StoreFrac: 0.1,
					IHit: 0.95, LoadHit: 0.95, StoreHit: 0.95,
					IL2Hit: 0.9, LoadL2Hit: 0.9, StoreL2Hit: 0.9,
				})
				if err != nil {
					return nil, err
				}
				sh := m.Shape()
				fmt.Fprintf(&buf,
					"Figure 9/10 net (%s): %d places, %d immediate + %d deterministic + %d exponential transitions, %d banks, L2=%v"+"\n",
					cfg.Name, sh.Places, sh.Immediate, sh.Deterministic, sh.Exponential, sh.Banks, sh.HasL2)
			}
			fmt.Fprintln(&buf)
			return buf.Bytes(), nil
		}), nil
	case "selftest":
		return sweep.Single(name, 0, func() (interface{}, error) {
			var buf bytes.Buffer
			r, err := selftest.Run(selftest.Config{WindowBytes: 256 << 10})
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&buf, "built-in self test: passed=%v phase=%s instructions=%d window=%dKB fills=%d\n\n",
				r.Passed, r.Phase, r.Instructions, r.MemoryBytes>>10, r.CacheFills)
			return buf.Bytes(), nil
		}), nil
	}
	j, err := experiments.JobFor(name, opts, ms)
	if err != nil {
		return sweep.Job{}, fmt.Errorf("unknown experiment %q", name)
	}
	return j, nil
}

// render writes one experiment's assembled result to out in the same
// format the serial CLI has always produced.
func render(out io.Writer, name string, v interface{}, jsonMode bool, frontierPath string) error {
	switch name {
	case "cost", "fabric":
		// rendered as plain tables even in JSON mode, as before
		v.(*report.Table).Render(out)
		return nil
	}
	if b, ok := v.([]byte); ok {
		_, err := out.Write(b)
		return err
	}
	if err := exportFrontier(v, frontierPath); err != nil {
		return err
	}
	if !jsonMode {
		if mt, ok := v.(multiTabler); ok {
			for _, tab := range mt.Tables() {
				tab.Render(out)
			}
			return nil
		}
	}
	t, ok := v.(tabler)
	if !ok {
		return fmt.Errorf("experiment %q returned unrenderable %T", name, v)
	}
	if err := emit(out, name, t, jsonMode); err != nil {
		return err
	}
	if !jsonMode {
		if p, ok := v.(plotter); ok {
			p.Plot().Render(out)
		}
	}
	return nil
}

// tabler is any experiment result that can render itself.
type tabler interface{ Table() *report.Table }

// multiTabler marks results that render as several tables (the
// designspace search: point grid + Pareto frontier). It takes
// precedence over tabler outside JSON mode.
type multiTabler interface{ Tables() []*report.Table }

// plotter marks results that also render an ASCII plot (fig11, fig12,
// fig13..fig17).
type plotter interface{ Plot() *report.Series }

// emit writes a result as a table or, in JSON mode, as indented JSON
// tagged with the experiment name.
func emit(out io.Writer, name string, v tabler, jsonMode bool) error {
	if !jsonMode {
		v.Table().Render(out)
		return nil
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]interface{}{"experiment": name, "result": v})
}

// frontierWriter is implemented by results with an exportable Pareto
// frontier (the designspace search).
type frontierWriter interface {
	WriteFrontierJSON(io.Writer) error
	WriteFrontierCSV(io.Writer) error
}

// exportFrontier writes one result's Pareto frontier to path; the
// format follows the file extension (.csv = CSV, anything else JSON).
func exportFrontier(v interface{}, path string) error {
	fw, ok := v.(frontierWriter)
	if !ok || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("ds-frontier: %w", err)
	}
	if strings.HasSuffix(path, ".csv") {
		err = fw.WriteFrontierCSV(f)
	} else {
		err = fw.WriteFrontierJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("ds-frontier: %w", err)
	}
	return nil
}
