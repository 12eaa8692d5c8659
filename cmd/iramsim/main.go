// Command iramsim regenerates the tables and figures of Saulsbury,
// Pong & Nowatzyk, "Missing the Memory Wall" (ISCA 1996) from this
// repository's simulators.
//
// Usage:
//
//	iramsim [flags] <experiment> [...]
//
// Run with no arguments for the list of experiments; "all" runs the
// full sequence.
//
// Flags:
//
//	-quick        reduced fidelity (CI-sized runs)
//	-budget N     per-workload instruction budget
//	-seed N       Monte-Carlo seed
//	-procs list   processor counts for fig13..fig17 (e.g. 1,2,4,8,16)
//	-machine f    JSON machine description overriding core.Proposed()
//	-j N          worker goroutines for the experiment sweep
//	-trace-dir d  workload trace cache: replay recorded streams, record on miss
//	-record d     re-record workload traces into d; with no experiments,
//	              pre-populate every workload's stream and exit
//	-result-cache d   assembled-result cache dir (default .result-cache)
//	-no-result-cache  disable the result cache entirely
//	-result-cache-max-bytes N  prune the result cache to N bytes after the
//	              run (oldest entries first); with no experiments, prune
//	              and exit (`make cache-gc`)
//	-cpuprofile f write a CPU profile to f
//	-memprofile f write a heap profile to f on exit
//	-metrics f    write simulator metrics (JSON) to f after the run
//	-trace f      write one line per sweep unit (worker, outcome, timing) to f
//	-debug-addr a serve expvar/pprof/metrics on host:port while running
//
// All orchestration — experiment dispatch, engine construction,
// rendering — lives in internal/runner; this command parses flags,
// opens the caches they name, calls runner.Run, and renders the run's
// unit events as progress lines and the -trace log. cmd/iramsimd
// serves the same runs over HTTP.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/workload"
)

// cliConfig gathers the parsed command-line flags.
type cliConfig struct {
	quick         bool
	json          bool
	budget, seed  int64
	procs         string
	machine       string
	workers       int
	record        string
	traceDir      string
	resultCache   string
	noResultCache bool
	cacheMaxBytes int64
	dsBanks       string
	dsColumns     string
	dsWays        string
	dsVictims     string
	dsCoarse      int
	dsRefine      int
	dsFrontier    string
	cpuprofile    string
	memprofile    string
	metrics       string
	traceOut      string
	debugAddr     string
}

func main() {
	var c cliConfig
	flag.BoolVar(&c.quick, "quick", false, "reduced-fidelity runs")
	flag.BoolVar(&c.json, "json", false, "emit experiment results as JSON instead of tables")
	flag.Int64Var(&c.budget, "budget", 0, "per-workload instruction budget (0 = default)")
	flag.Int64Var(&c.seed, "seed", 1, "Monte-Carlo seed")
	flag.StringVar(&c.procs, "procs", "", "comma-separated processor counts for fig13..fig17")
	flag.StringVar(&c.machine, "machine", "", "JSON machine description file (overrides the paper's integrated device)")
	flag.IntVar(&c.workers, "j", runtime.NumCPU(), "worker goroutines for the experiment sweep")
	flag.StringVar(&c.traceDir, "trace-dir", "", "workload trace cache dir: replay recorded reference streams, record on miss")
	flag.StringVar(&c.record, "record", "", "re-record workload traces into this cache dir; with no experiments, pre-populate every workload and exit")
	flag.StringVar(&c.resultCache, "result-cache", ".result-cache", "assembled-result cache dir (content-addressed; warm reruns decode instead of simulating)")
	flag.BoolVar(&c.noResultCache, "no-result-cache", false, "disable the result cache (every unit recomputes)")
	flag.Int64Var(&c.cacheMaxBytes, "result-cache-max-bytes", 0, "prune the result cache to this many bytes after the run, oldest entries first (0 = never; with no experiments, prune and exit)")
	flag.StringVar(&c.dsBanks, "ds-banks", "", "designspace banks axis: comma list and/or lo..hi:step / lo..hi:*k ranges (e.g. 8..128:8)")
	flag.StringVar(&c.dsColumns, "ds-columns", "", "designspace column-size axis (bytes), same range syntax")
	flag.StringVar(&c.dsWays, "ds-ways", "", "designspace D-cache associativity axis, same range syntax")
	flag.StringVar(&c.dsVictims, "ds-victims", "", "designspace victim-entry axis (0 = no victim cache), same range syntax")
	flag.IntVar(&c.dsCoarse, "ds-coarse", 0, "designspace coarse-grid stride: evaluate every k-th lattice index per axis first (<=1 = exhaustive)")
	flag.IntVar(&c.dsRefine, "ds-refine", 0, "designspace adaptive-refinement rounds around the screening frontier")
	flag.StringVar(&c.dsFrontier, "ds-frontier", "", "write the designspace Pareto frontier to this file (.json or .csv)")
	flag.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&c.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	flag.StringVar(&c.metrics, "metrics", "", "write simulator metrics as JSON to this file after the run")
	flag.StringVar(&c.traceOut, "trace", "", "write one line per sweep unit (worker, outcome, start and duration) to this file")
	flag.StringVar(&c.debugAddr, "debug-addr", "", "serve expvar, pprof, and live metrics on this host:port")
	flag.Parse()

	// `iramsim -record <dir>` with no experiments is record-all mode,
	// and `-result-cache-max-bytes` with no experiments is cache-gc
	// mode (which needs the result cache); anything else without
	// experiments is a usage error. Neither mode runs a sweep unit, so
	// neither has a -trace log, metrics, a frontier or JSON results to
	// write, nor a run to serve on a debug address.
	if flag.NArg() == 0 {
		if c.record == "" && (c.cacheMaxBytes == 0 || c.noResultCache) {
			usage()
			os.Exit(2)
		}
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"trace", c.traceOut != ""},
			{"metrics", c.metrics != ""},
			{"ds-frontier", c.dsFrontier != ""},
			{"debug-addr", c.debugAddr != ""},
			{"json", c.json},
		} {
			if f.set {
				fmt.Fprintf(os.Stderr, "iramsim: -%s needs experiments; record-all and cache-gc modes run none\n", f.name)
				os.Exit(2)
			}
		}
	}

	// mainErr carries the defers (profile flushes) that os.Exit would
	// skip; fatal runs only after they complete.
	if err := mainErr(c); err != nil {
		fatal(err)
	}
}

// request maps the fidelity flags onto the runner's request surface.
func request(c cliConfig) (runner.Request, error) {
	req := runner.Request{
		Experiments: flag.Args(),
		Quick:       c.quick,
		Budget:      c.budget,
		Seed:        c.seed,
		DSCoarse:    c.dsCoarse,
		DSRefine:    c.dsRefine,
	}
	if c.procs != "" {
		for _, s := range strings.Split(c.procs, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				return runner.Request{}, fmt.Errorf("bad -procs value %q", s)
			}
			req.Procs = append(req.Procs, n)
		}
	}
	if c.machine != "" {
		data, err := os.ReadFile(c.machine)
		if err != nil {
			return runner.Request{}, fmt.Errorf("core: machine config: %w", err)
		}
		req.Machine = data
	}
	for _, ax := range []struct {
		name string
		val  string
		dst  *[]int
	}{
		{"ds-banks", c.dsBanks, &req.DSBanks},
		{"ds-columns", c.dsColumns, &req.DSColumns},
		{"ds-ways", c.dsWays, &req.DSWays},
		{"ds-victims", c.dsVictims, &req.DSVictims},
	} {
		if ax.val == "" {
			continue
		}
		vals, err := parseAxis(ax.name, ax.val)
		if err != nil {
			return runner.Request{}, err
		}
		*ax.dst = vals
	}
	return req, nil
}

func mainErr(c cliConfig) (err error) {
	if c.cpuprofile != "" {
		f, ferr := os.Create(c.cpuprofile)
		if ferr != nil {
			return fmt.Errorf("cpuprofile: %w", ferr)
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", perr)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("cpuprofile: %w", cerr))
			}
		}()
	}
	if c.memprofile != "" {
		defer func() {
			if merr := writeHeapProfile(c.memprofile); merr != nil {
				err = errors.Join(err, merr)
			}
		}()
	}

	req, err := request(c)
	if err != nil {
		return err
	}
	// Options resolves the seed the trace store keys its entries by.
	opts, err := req.Options()
	if err != nil {
		return err
	}
	traceDir, err := resolveTraceDir(c)
	if err != nil {
		return err
	}
	if traceDir != "" {
		if opts.TraceSource, err = runner.OpenTraceSource(traceDir, opts.Seed, c.record != ""); err != nil {
			return err
		}
	}
	if flag.NArg() == 0 && c.record != "" {
		return recordAll(opts, os.Stderr)
	}
	var store *resultstore.Store
	if !c.noResultCache {
		if store, err = resultstore.NewStore(c.resultCache); err != nil {
			return err
		}
	}
	if flag.NArg() == 0 {
		return cacheGC(store, c.cacheMaxBytes, os.Stderr)
	}

	cfg := runner.Config{
		Workers:      c.workers,
		JSON:         c.json,
		Out:          os.Stdout,
		TraceSource:  opts.TraceSource,
		FrontierPath: c.dsFrontier,
	}
	// A record run never consults the result cache: its purpose is to
	// execute every workload so the traces get written.
	if store != nil && c.record == "" {
		cfg.ResultCache = store
	}

	// Observability is opt-in: with no flag set, the registry stays nil
	// and every hook in the simulators is a single pointer check.
	if c.metrics != "" || c.debugAddr != "" {
		cfg.Obs = obs.NewRegistry()
	}
	if c.debugAddr != "" {
		srv, err := cfg.Obs.ServeDebug(c.debugAddr)
		if err != nil {
			return fmt.Errorf("debug-addr: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "iramsim: debug server listening on http://%s/debug/\n", srv.Addr)
	}
	var trace io.Writer
	closeTrace := func() error { return nil }
	if c.traceOut != "" {
		if trace, closeTrace, err = createTrace(c.traceOut); err != nil {
			return err
		}
	}
	prog := newProgress(os.Stderr, trace, c.workers)
	cfg.OnUnit = prog.unit

	runErr := runner.Run(context.Background(), req, cfg)
	if runErr == nil {
		prog.summary()
	}

	// Dump metrics and close the trace even after a failed run: both
	// hold every unit that finished before the first error, and a
	// partial dump is exactly what debugging a failed sweep needs.
	keep := func(err error) {
		switch {
		case err == nil:
		case runErr == nil:
			runErr = err
		default:
			fmt.Fprintln(os.Stderr, "iramsim:", err)
		}
	}
	if c.metrics != "" {
		keep(writeMetrics(c.metrics, cfg.Obs))
	}
	keep(closeTrace())
	if runErr == nil && c.cacheMaxBytes > 0 && store != nil {
		runErr = cacheGC(store, c.cacheMaxBytes, os.Stderr)
	}
	return runErr
}

// resolveTraceDir folds the two cache-directory spellings into one.
// -trace-dir replays cached streams (recording on miss); -record always
// re-records. Replayed and live streams are reference-for-reference
// identical, so experiment output does not depend on the mode. Naming
// two different directories is an error rather than a silent
// precedence rule.
func resolveTraceDir(c cliConfig) (string, error) {
	if c.record == "" {
		return c.traceDir, nil
	}
	if c.traceDir != "" && c.traceDir != c.record {
		return "", fmt.Errorf("conflicting trace cache dirs %q and %q (-record/-trace-dir)", c.traceDir, c.record)
	}
	return c.record, nil
}

// recordAll pre-populates the trace cache with every workload's
// reference stream (record-all mode: `iramsim -record <dir>` with no
// experiment arguments). -quick and -budget select the recorded budget.
func recordAll(opts experiments.Options, progress io.Writer) error {
	for _, w := range workload.All() {
		var counts trace.Counts
		if _, err := opts.TraceSource.Stream(w, opts.Budget, &counts); err != nil {
			return err
		}
		fmt.Fprintf(progress, "iramsim: recorded %-12s %10d refs (%d instructions)\n",
			w.Name, counts.Total(), counts.Ifetches)
	}
	return nil
}

// cacheGC prunes the result cache to maxBytes, evicting oldest-mtime
// entries first (`make cache-gc`, and the post-run prune that keeps a
// long-running cache from filling the disk).
func cacheGC(store *resultstore.Store, maxBytes int64, progress io.Writer) error {
	removed, freed, err := store.Prune(maxBytes)
	if err != nil {
		return err
	}
	fmt.Fprintf(progress, "iramsim: result-cache gc: pruned %d entries (%d bytes) from %s\n",
		removed, freed, store.Dir())
	return nil
}

// writeHeapProfile writes a heap profile, taken after a GC, to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	werr := pprof.WriteHeapProfile(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("memprofile: %w", werr)
	}
	return nil
}

// writeMetrics dumps the registry as indented JSON to path.
func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	werr := reg.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("metrics: %w", werr)
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: iramsim [flags] <experiment> [...]")
	fmt.Fprintln(os.Stderr, "experiments:", strings.Join(experiments.Names(), " "), "all")
	fmt.Fprintln(os.Stderr, "machine descriptions: -machine examples/machine-32bank.json (see examples/)")
	fmt.Fprintln(os.Stderr, "trace cache: -trace-dir/-record <dir> (record-all: iramsim -record <dir>)")
	fmt.Fprintln(os.Stderr, "design-space search: iramsim designspace -ds-banks 8..128:8 -ds-columns 256..4096:*2 \\")
	fmt.Fprintln(os.Stderr, "  -ds-ways 1,2,4 -ds-victims 0,16 -ds-coarse 4 -ds-refine 2 -ds-frontier pareto.json")
	fmt.Fprintln(os.Stderr, "  (points group into column-size families; each family costs ONE trace pass per bench)")
	fmt.Fprintln(os.Stderr, "result cache: on by default under .result-cache; -no-result-cache disables,")
	fmt.Fprintln(os.Stderr, "  -result-cache-max-bytes prunes (cache-gc: iramsim -result-cache-max-bytes N)")
	fmt.Fprintln(os.Stderr, "service: see cmd/iramsimd for the HTTP daemon serving these runs")
	flag.PrintDefaults()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iramsim:", err)
	os.Exit(1)
}
