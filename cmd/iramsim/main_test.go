package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/sweep"
)

// runJobs renders names through runner.RunJobs, the layer main's
// runner.Run call shares with the daemon, against opts (its registry
// included) and a fresh MeasurementSet, and returns the deterministic
// output.
func runJobs(t *testing.T, names []string, opts experiments.Options, cfg runner.Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	cfg.Out = &buf
	cfg.Obs = opts.Obs
	if err := runner.RunJobs(context.Background(), names, opts, experiments.NewMeasurementSet(opts), cfg); err != nil {
		t.Fatalf("%v: %v", names, err)
	}
	return buf.Bytes()
}

// cheap experiments exercised through the dispatcher (the heavyweight
// ones are covered by internal/experiments' own tests).
func TestRunDispatcher(t *testing.T) {
	opts := experiments.Quick()
	opts.Budget = 50_000
	opts.GSPNInstr = 2_000
	opts.Procs = []int{1, 2}
	runJobs(t, []string{"cost", "spec", "fabric", "selftest", "table1", "fig13", "fig910", "workloads"}, opts, runner.Config{})
	err := runner.RunJobs(context.Background(), []string{"no-such-experiment"}, opts, nil, runner.Config{})
	if err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestNoExperimentModesRejectRunFlags: record-all (-record d) and
// cache-gc (-result-cache-max-bytes N) run no experiment, so -trace,
// -metrics, -ds-frontier, -debug-addr and -json have nothing to act on;
// each is a usage error (exit status 2, naming the flag) raised before
// either mode creates its cache. The
// test runs main in a child copy of the test binary, which takes its
// iramsim arguments from IRAMSIM_MAIN_ARGS, one per line.
func TestNoExperimentModesRejectRunFlags(t *testing.T) {
	if args, ok := os.LookupEnv("IRAMSIM_MAIN_ARGS"); ok {
		os.Args = append([]string{"iramsim"}, strings.Split(args, "\n")...)
		flag.CommandLine = flag.NewFlagSet("iramsim", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	for _, mode := range []struct {
		name string
		args func(cache string) []string
	}{
		{"record-all", func(cache string) []string { return []string{"-quick", "-record", cache} }},
		{"cache-gc", func(cache string) []string { return []string{"-result-cache", cache, "-result-cache-max-bytes", "1"} }},
	} {
		for _, name := range []string{"trace", "metrics", "ds-frontier", "debug-addr", "json"} {
			t.Run(mode.name+"/"+name, func(t *testing.T) {
				dir := t.TempDir()
				cache, out := filepath.Join(dir, "cache"), filepath.Join(dir, "out")
				args := append(mode.args(cache), "-"+name)
				switch name {
				case "json": // a boolean flag: no value
				case "debug-addr":
					args = append(args, "127.0.0.1:0")
				default:
					args = append(args, out)
				}
				cmd := exec.Command(os.Args[0], "-test.run=^TestNoExperimentModesRejectRunFlags$")
				cmd.Env = append(os.Environ(), "IRAMSIM_MAIN_ARGS="+strings.Join(args, "\n"))
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				err := cmd.Run()
				var exit *exec.ExitError
				if !errors.As(err, &exit) || exit.ExitCode() != 2 {
					t.Fatalf("iramsim %v: %v, want exit status 2 (stderr %q)", args, err, stderr.String())
				}
				if !strings.Contains(stderr.String(), "-"+name+" ") {
					t.Errorf("stderr %q does not name -%s", stderr.String(), name)
				}
				for _, path := range []string{out, cache} {
					if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
						t.Errorf("%s exists after the usage error (stat: %v)", path, err)
					}
				}
			})
		}
	}
}

// quickOpts is the CI-sized configuration the determinism tests sweep.
func quickOpts() experiments.Options {
	opts := experiments.Quick()
	opts.Budget = 50_000
	opts.GSPNInstr = 2_000
	opts.Procs = []int{1, 2}
	return opts
}

// sweepOutput runs a representative experiment mix through the worker
// pool and returns the deterministic stream, as tables or as JSON, over
// the result cache in cache (nil for none). A fresh MeasurementSet per
// call makes every run recompute from its seeds.
func sweepOutput(t *testing.T, workers int, cache sweep.ResultCache, jsonMode bool) []byte {
	t.Helper()
	names := []string{"spec", "cost", "table1", "fig7", "fig8", "table3", "realcpi", "fig13", "ablate-scoreboard", "designspace", "fabric"}
	return runJobs(t, names, quickOpts(), runner.Config{Workers: workers, ResultCache: cache, JSON: jsonMode})
}

// TestSweepDeterminism: the sweep's experiment output is byte-identical
// across worker counts (serial vs parallel) and across repeated
// parallel runs of the same configuration (seed stability), in both
// table and JSON modes.
func TestSweepDeterminism(t *testing.T) {
	serial := sweepOutput(t, 1, nil, false)
	if len(serial) == 0 {
		t.Fatal("serial sweep produced no output")
	}
	parallel := sweepOutput(t, 8, nil, false)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("-j 1 and -j 8 output differ:\n--- j1 ---\n%s\n--- j8 ---\n%s", serial, parallel)
	}
	again := sweepOutput(t, 8, nil, false)
	if !bytes.Equal(parallel, again) {
		t.Errorf("two -j 8 runs of the same configuration differ")
	}

	j1 := sweepOutput(t, 1, nil, true)
	j8 := sweepOutput(t, 8, nil, true)
	if !bytes.Equal(j1, j8) {
		t.Errorf("JSON output differs between -j 1 and -j 8")
	}
}

// TestSweepDeterminismWithCache extends the determinism guarantee to
// the result cache: against a shared store, the cold populating run and
// warm reruns at several worker counts must all reproduce the uncached
// stream byte-for-byte, in table and JSON modes.
func TestSweepDeterminismWithCache(t *testing.T) {
	baseline := sweepOutput(t, 4, nil, false)

	store, err := resultstore.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if cold := sweepOutput(t, 1, store, false); !bytes.Equal(baseline, cold) {
		t.Errorf("cold cached run differs from uncached baseline:\n--- plain ---\n%s\n--- cold ---\n%s", baseline, cold)
	}
	for _, w := range []int{2, 8} {
		if warm := sweepOutput(t, w, store, false); !bytes.Equal(baseline, warm) {
			t.Errorf("warm cached run (-j %d) differs from uncached baseline:\n%s", w, firstDiff(baseline, warm))
		}
	}

	j1 := sweepOutput(t, 1, nil, true)
	if warm := sweepOutput(t, 8, store, true); !bytes.Equal(j1, warm) {
		t.Errorf("JSON output differs between uncached and warm cached runs")
	}
}

// TestMetricsFlag drives the -metrics/-trace path end to end: a quick
// fig7+fig13 run with a live registry and a -trace log must (a) leave
// the experiment output byte-identical to an uninstrumented run, (b)
// dump JSON that encoding/json parses (no NaN/Inf leaks), (c) populate
// the sweep, cache, mpsim, and coherence metric families, and (d) log
// one unit_done line per completed unit.
func TestMetricsFlag(t *testing.T) {
	names := []string{"fig7", "fig13"}

	plain := runJobs(t, names, quickOpts(), runner.Config{Workers: 2})

	dir := t.TempDir()
	tpath := filepath.Join(dir, "trace.log")
	trace, closeTrace, err := createTrace(tpath)
	if err != nil {
		t.Fatal(err)
	}
	prog := newProgress(io.Discard, trace, 2)
	opts := quickOpts()
	opts.Obs = obs.NewRegistry()
	if got := runJobs(t, names, opts, runner.Config{Workers: 2, OnUnit: prog.unit}); !bytes.Equal(plain, got) {
		t.Error("instrumentation changed the experiment output")
	}
	if err := closeTrace(); err != nil {
		t.Fatalf("closing the trace: %v", err)
	}

	mpath := filepath.Join(dir, "metrics.json")
	if err := writeMetrics(mpath, opts.Obs); err != nil {
		t.Fatalf("writeMetrics: %v", err)
	}
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var dump map[string]map[string]interface{}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("metrics dump is not valid JSON: %v\n%s", err, raw)
	}
	for _, fam := range []string{"sweep", "cache", "mpsim", "coherence"} {
		if len(dump[fam]) == 0 {
			t.Errorf("metrics dump missing family %q; have %v", fam, dump)
		}
	}
	completed, ok := dump["sweep"]["units_completed"].(float64)
	if !ok || completed <= 0 {
		t.Errorf("sweep/units_completed = %v, want > 0", dump["sweep"]["units_completed"])
	}
	if v, ok := dump["mpsim"]["grants"].(float64); !ok || v < 0 {
		t.Errorf("mpsim/grants = %v, want >= 0", dump["mpsim"]["grants"])
	}

	tr, err := os.ReadFile(tpath)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(tr), " unit_done "); got != int(completed) {
		t.Errorf("trace has %d unit_done lines, want one per completed unit (%v):\n%s", got, completed, tr)
	}

	// The multiprocessor ablations publish the same families as the
	// SPLASH figures.
	ablations := quickOpts()
	ablations.Obs = obs.NewRegistry()
	runJobs(t, []string{"ablate-engines", "ablate-inc", "ablate-unit"}, ablations, runner.Config{Workers: 2})
	var buf bytes.Buffer
	if err := ablations.Obs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dump = nil
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("ablation metrics dump is not valid JSON: %v", err)
	}
	for _, fam := range []string{"coherence", "mpsim"} {
		if len(dump[fam]) == 0 {
			t.Errorf("ablation metrics dump missing family %q; have %v", fam, dump)
		}
	}
}

func TestRunDispatcherJSON(t *testing.T) {
	opts := experiments.Quick()
	opts.Budget = 50_000
	opts.GSPNInstr = 2_000
	opts.Procs = []int{1}
	out := runJobs(t, []string{"table1", "fig13"}, opts, runner.Config{JSON: true})
	if !bytes.Contains(out, []byte(`"experiment": "fig13"`)) {
		t.Errorf("JSON mode did not render fig13 as JSON:\n%s", out)
	}
}

// TestWriteHeapProfileErrors checks that a heap profile that cannot be
// written fails the run instead of passing silently.
func TestWriteHeapProfileErrors(t *testing.T) {
	dir := t.TempDir()
	if err := writeHeapProfile(filepath.Join(dir, "heap.pprof")); err != nil {
		t.Fatalf("writable path: %v", err)
	}
	if err := writeHeapProfile(filepath.Join(dir, "missing", "heap.pprof")); err == nil {
		t.Error("profile into a missing directory reported no error")
	}
}
