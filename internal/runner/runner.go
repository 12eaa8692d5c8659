// Package runner is the run-orchestration layer between the experiment
// registry and the user-facing frontends. A Request names experiments
// plus the full fidelity surface (budget, seed, machine description,
// design-space axes, quick mode) as plain serializable data; Run owns
// everything a frontend would otherwise reimplement — building
// experiments.Options, wiring in the trace and result stores its
// caller opened, constructing the sweep engine, rendering each
// assembled result, and reporting structured progress. cmd/iramsim is
// a thin flag-parsing client of this package, and cmd/iramsimd serves
// the same Requests over HTTP: one run path, two transports,
// byte-identical output.
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
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
}

// MaxAxisValues caps one design-space axis (Request.DSBanks..DSVictims
// and the iramsim -ds-* flags). The search lattice is the
// cross-product of four axes, so an unbounded axis is an unbounded
// allocation.
const MaxAxisValues = 4096

// MaxLatticePoints caps the design-space lattice: the product of the
// four axis lengths, an axis left empty counted at its default length.
// The search screens every lattice point, and its screening frontier
// costs time quadratic in the point count.
const MaxLatticePoints = 65536

// Config carries the cross-cutting wiring a caller sets up once per
// run: the output stream, caches, observability, and progress callbacks.
// The caches are stores the caller opened and owns. The zero value runs
// serially with no caches and discards all output.
type Config struct {
	// Workers sizes the sweep worker pool (<=0 means serial). A
	// resource decision, so it lives here and not on the Request.
	Workers int
	// JSON renders experiment results as JSON instead of tables.
	JSON bool
	// Out receives the deterministic rendered experiment output; nil
	// discards it (callers may consume OnResult instead).
	Out io.Writer
	// Obs, when non-nil, receives every metric family the run touches.
	Obs *obs.Registry
	// TraceSource, when non-nil, delivers every workload's reference
	// stream (OpenTraceSource wires a recorded-trace cache); nil runs
	// the VM live.
	TraceSource workload.Source
	// ResultCache, when non-nil, memoizes assembled unit results. The
	// daemon shares one *resultstore.Store across its runs so
	// concurrent runs single-flight their overlapping units in-process.
	ResultCache sweep.ResultCache
	// FrontierPath, when non-empty, exports any result carrying a
	// Pareto frontier (the designspace search) to this file after
	// rendering (.csv = CSV, anything else JSON).
	FrontierPath string
	// OnUnit, when non-nil, receives one structured event per sweep
	// unit as it completes — the CLI renders its progress lines and
	// -trace log from these, and the daemon streams them to HTTP
	// clients. Timing-dependent, so never mix them into Out.
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

// ExpandNames resolves the "all" shorthand to the full experiment
// sequence and otherwise returns the names unchanged.
func ExpandNames(names []string) []string {
	if len(names) == 1 && names[0] == "all" {
		return experiments.SweepNames()
	}
	return names
}

// Validate rejects malformed requests before any work is scheduled:
// unknown experiment names and "all" beside other names, then
// everything Options rejects — an unparsable or invalid machine
// description (the core.FromJSON validation errors, verbatim),
// processor counts outside 1..coherence.MaxNodes or repeated (so a
// list holds at most MaxNodes counts), design-space axes longer than
// MaxAxisValues or with a repeated value, and a design-space lattice
// of more than MaxLatticePoints. The daemon surfaces these as 400s.
func (r Request) Validate() error {
	if len(r.Experiments) == 0 {
		return fmt.Errorf("runner: no experiments requested")
	}
	for _, name := range ExpandNames(r.Experiments) {
		switch {
		case name == "all":
			return fmt.Errorf(`runner: "all" must be the only experiment named`)
		case !experiments.Known(name):
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
		var seen [coherence.MaxNodes + 1]bool
		for _, p := range r.Procs {
			if p < 1 || p > coherence.MaxNodes {
				return experiments.Options{}, fmt.Errorf("runner: processor count %d outside 1..%d", p, coherence.MaxNodes)
			}
			if seen[p] {
				return experiments.Options{}, fmt.Errorf("runner: processor count %d repeated", p)
			}
			seen[p] = true
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
	for _, axis := range []struct {
		field string
		vals  []int
	}{{"ds_banks", r.DSBanks}, {"ds_columns", r.DSColumns}, {"ds_ways", r.DSWays}, {"ds_victims", r.DSVictims}} {
		if len(axis.vals) > MaxAxisValues {
			return experiments.Options{}, fmt.Errorf("runner: %s has %d values, more than %d",
				axis.field, len(axis.vals), MaxAxisValues)
		}
		// A repeated value would build every lattice point on it twice.
		seen := make(map[int]bool, len(axis.vals))
		for _, v := range axis.vals {
			if seen[v] {
				return experiments.Options{}, fmt.Errorf("runner: %s value %d repeated", axis.field, v)
			}
			seen[v] = true
		}
	}
	opts.DSBanks = append([]int(nil), r.DSBanks...)
	opts.DSColumns = append([]int(nil), r.DSColumns...)
	opts.DSWays = append([]int(nil), r.DSWays...)
	opts.DSVictims = append([]int(nil), r.DSVictims...)
	banks, columns, ways, victims := experiments.DesignspaceAxes(opts)
	if n := uint64(len(banks)) * uint64(len(columns)) * uint64(len(ways)) * uint64(len(victims)); n > MaxLatticePoints {
		return experiments.Options{}, fmt.Errorf("runner: design-space lattice has %d points, more than %d",
			n, MaxLatticePoints)
	}
	return opts, nil
}

// OpenTraceSource wires a workload trace cache directory into a
// workload.Source (replay, record-on-miss; force re-records) for
// Config.TraceSource.
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
	opts.TraceSource = cfg.TraceSource
	opts.Obs = cfg.Obs
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
		j, err := experiments.JobFor(name, opts, ms)
		if err != nil {
			return err
		}
		jobs = append(jobs, j)
	}
	eng := &sweep.Engine{
		Workers: cfg.Workers,
		Obs:     cfg.Obs,
		Cache:   cfg.ResultCache,
		OnUnit:  cfg.OnUnit,
	}
	return eng.Run(ctx, jobs, func(r sweep.JobResult) error {
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

// render writes one experiment's assembled result to out in the same
// format the serial CLI has always produced.
func render(out io.Writer, name string, v interface{}, jsonMode bool, frontierPath string) error {
	// Text experiments render themselves; their bytes are the output
	// in table and JSON mode alike.
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
