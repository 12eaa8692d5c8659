// Command iramperf is the repository benchmark. It builds cmd/iramsim
// and cmd/iramsimd from source, runs one workload against them, checks
// every operation's output, and prints the end-to-end metrics; a traced
// run measures the layers instead, from outside, by timing calls into
// the public layer functions.
//
//	iramperf run -workload W [-seed S] [-seconds N] [-trace 0|1] [-out F]
//	iramperf trace -workload W [-seed S] [-seconds N] [-spans F] [-out F]
//	iramperf compare [-bench BENCHMARK.json] A.jsonl B.jsonl
//
// Run it from the repository root. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}; the
// human-readable report goes to standard error. -out appends the full
// record (sample counts, layer self times, details) as a JSON line, the
// input compare reads. bench/README.md describes the workloads.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/runner"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:], false)
	case "trace":
		err = cmdRun(os.Args[2:], true)
	case "compare":
		err = cmdCompare(os.Args[2:], os.Stdout)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "iramperf:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: iramperf run|trace -workload W [-seed S] [-seconds N] [-out F]")
	fmt.Fprintln(os.Stderr, "       iramperf compare [-bench BENCHMARK.json] A.jsonl B.jsonl")
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	fmt.Fprintln(os.Stderr, "workloads:", strings.Join(names, " "))
	os.Exit(2)
}

// metric is one measured value with its unit and the number of samples
// behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// e2eMetrics are the end-to-end metrics an untraced run reports and
// layerMetrics the per-layer metrics a traced run reports, in report
// order; BENCHMARK.json lists the same names (TestMetricListsMatchBenchmark).
var (
	e2eMetrics   = []string{"setup_s", "wall_s", "cpu_s", "max_rss_mb"}
	layerMetrics = []string{
		"vm.minstr_per_s", "trace.decode_mrefs_per_s", "tracestore.verify_s", "tracestore.bytes_read",
		"workload.cacheset_mrefs_per_s", "workload.familyset_mrefs_per_s",
		"cpumodel.evaluate_ms", "cpumodel.kinstr_per_s", "mpsim.kgrants_per_s",
		"resultstore.get_us", "resultstore.put_us", "resultstore.self_s", "runner.warm_run_ms",
		"sweep.unit_s_sum", "sweep.unit_s_max", "sweep.busy_frac", "sweep.assemble_s", "sweep.queue_depth_max",
		"harness.attributed_frac", "harness.trace_overhead_frac", "harness.build_s",
	}
)

const (
	// setupReps is how many times a run prepares its workload; setup_s
	// is the median.
	setupReps = 3
	// runTimeout bounds a whole run, set-up and reference check included.
	runTimeout = 170 * time.Second
)

// runConfig is one benchmark run's inputs.
type runConfig struct {
	spec    spec
	seed    int64
	seconds float64
	maxOps  int    // stop after this many timed operations (0: time only)
	golden  []byte // testdata/full_results.txt, read for golden workloads
}

func (c runConfig) deadline() time.Time {
	return time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
}

// more reports whether the timed loop should start another operation:
// always a first one, then until the deadline or maxOps.
func (c runConfig) more(done int, deadline time.Time) bool {
	return done == 0 || time.Now().Before(deadline) && (c.maxOps == 0 || done < c.maxOps)
}

// outcome is one run's result.
type outcome struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Details   map[string]float64 `json:"details,omitempty"`
	Note      string             `json:"note,omitempty"` // the first failure
}

func newOutcome(c runConfig, traced bool) *outcome {
	return &outcome{Workload: c.spec.name, Seed: c.seed, Traced: traced,
		Metrics: map[string]metric{}, Details: map[string]float64{}}
}

func (o *outcome) put(name, unit string, v float64, n int) {
	o.Metrics[name] = metric{Value: finite(v), Unit: unit, N: n}
}

// fail counts one failed operation and keeps the first reason.
func (o *outcome) fail(err error) {
	o.Failed++
	if o.Note == "" {
		o.Note = err.Error()
	}
}

// judge checks the bytes every operation of the run agreed on. They
// must equal a reference run made in this process with no result cache
// and a live VM, and for golden workloads at seed 1 they must be a
// byte-exact substring of the repository's full-fidelity transcript.
// Wrong agreed bytes fail every operation.
func (o *outcome) judge(s spec, seed int64, want, ref, golden []byte) {
	var msg string
	switch {
	case !bytes.Equal(want, ref):
		msg = "output differs from the in-process reference run"
	case s.golden && seed == 1 && !bytes.Contains(golden, want):
		msg = "output is not a substring of testdata/full_results.txt"
	default:
		return
	}
	o.Failed = o.Attempted
	o.Note = msg
}

// checkReference computes the reference output and judges want by it.
func (o *outcome) checkReference(ctx context.Context, c runConfig, want []byte) error {
	req := c.spec.req
	req.Seed = c.seed
	var ref bytes.Buffer
	if err := runner.Run(ctx, req, runner.Config{Workers: workers, Out: &ref}); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	o.judge(c.spec, c.seed, want, ref.Bytes(), c.golden)
	return nil
}

// tail records the highest percentile with ten samples beyond it.
func (o *outcome) tail(prefix string, xs []float64) {
	if p, v, ok := tail(xs); ok {
		o.Details[prefix+".tail_pct"] = p
		o.Details[prefix+".tail_s"] = finite(v)
	}
}

func cmdRun(args []string, traced bool) error {
	fs := flag.NewFlagSet("iramperf", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs (0 means 1, as in iramsim)")
	seconds := fs.Float64("seconds", 8, "how long the timed part runs")
	traceFlag := fs.Int("trace", -1, "1 runs the traced variant, 0 the untraced one (default: by subcommand)")
	outPath := fs.String("out", "", "append the full result record to this file as a JSON line")
	spansPath := fs.String("spans", "", "traced runs: span file (default .bench_build/spans-<workload>-s<seed>.jsonl)")
	root := fs.String("root", ".", "repository root")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := specByName(*name)
	if err != nil {
		return err
	}
	if *traceFlag >= 0 {
		traced = *traceFlag == 1
	}
	if *seed == 0 {
		*seed = 1
	}
	c := runConfig{spec: s, seed: *seed, seconds: *seconds}
	if s.golden && c.seed == 1 {
		if c.golden, err = os.ReadFile(filepath.Join(*root, "testdata", "full_results.txt")); err != nil {
			return err
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	e, err := newEnv(ctx, *root)
	if err != nil {
		return err
	}
	defer e.close()
	var o *outcome
	if traced {
		if *spansPath == "" {
			*spansPath = filepath.Join(*root, ".bench_build", fmt.Sprintf("spans-%s-s%d.jsonl", s.name, c.seed))
		}
		o, err = measureTraced(ctx, e, c, *spansPath)
	} else {
		o, err = measure(ctx, e, c)
	}
	if err != nil {
		return err
	}
	o.Correct = o.Failed == 0
	report(os.Stderr, o)
	if *outPath != "" {
		if err := appendRecord(*outPath, o); err != nil {
			return err
		}
	}
	names := e2eMetrics
	if traced {
		names = layerMetrics
	}
	if err := printResult(os.Stdout, o, names); err != nil {
		return err
	}
	if !o.Correct {
		return fmt.Errorf("%d of %d operations failed: %s", o.Failed, o.Attempted, o.Note)
	}
	return nil
}

// printResult writes the one-line result object: the listed metrics
// with value and unit.
func printResult(w io.Writer, o *outcome, names []string) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, n := range names {
		m, ok := o.Metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		ms[n] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func appendRecord(path string, o *outcome) error {
	b, err := json.Marshal(o)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the run for a human: every metric with its unit and
// sample count, then the details.
func report(w io.Writer, o *outcome) {
	kind := "run"
	if o.Traced {
		kind = "trace"
	}
	fmt.Fprintf(w, "%s %s seed=%d: %d/%d operations correct\n", kind, o.Workload, o.Seed, o.Attempted-o.Failed, o.Attempted)
	if o.Note != "" {
		fmt.Fprintf(w, "  first failure: %s\n", o.Note)
	}
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %-9s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	names = names[:0]
	for n := range o.Details {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g\n", n, o.Details[n])
	}
}
