package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/runner"
)

// spec is one benchmark workload: the request every operation issues
// and how an operation reaches the simulator. BENCHMARK.json and
// bench/README.md say why each workload was chosen.
type spec struct {
	name string
	req  runner.Request
	// replay makes every operation read the traces recorded during
	// set-up (iramsim -trace-dir).
	replay bool
	// serve makes an operation one HTTP request to a warm iramsimd
	// instead of one iramsim process.
	serve bool
	// golden marks outputs that are a byte-exact substring of the
	// repository's full-fidelity transcript at seed 1.
	golden bool
}

var specs = []spec{
	{name: "cachefigs-live", golden: true,
		req: runner.Request{Experiments: []string{"fig7", "fig8"}}},
	{name: "cachefigs-replay", golden: true, replay: true,
		req: runner.Request{Experiments: []string{"fig7", "fig8"}}},
	{name: "cpi-gspn",
		req: runner.Request{Experiments: []string{"fig11", "fig12", "table3", "table4"}, Quick: true}},
	{name: "splash-mp",
		req: runner.Request{Experiments: []string{"fig14", "fig15"}, Quick: true, Procs: []int{1, 2, 4, 8, 16}}},
	{name: "designspace-128", replay: true,
		req: runner.Request{Experiments: []string{"designspace"}, Quick: true,
			DSBanks: []int{8, 16, 24, 32, 40, 48, 56, 64}, DSColumns: []int{256, 512, 1024, 2048},
			DSWays: []int{1, 2}, DSVictims: []int{0, 16}}},
	{name: "serve-warm", serve: true,
		req: runner.Request{Experiments: []string{"fig7", "fig8", "fig11", "fig12", "table3", "table4", "banks"}, Quick: true}},
}

func specByName(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// workers is the sweep worker count of every operation: one per core
// of the 2-core machine the baseline was measured on.
const workers = 2

// cliArgs renders a request as iramsim flags followed by the experiment
// names (Go's flag package stops at the first non-flag argument).
func cliArgs(req runner.Request) []string {
	var args []string
	if req.Quick {
		args = append(args, "-quick")
	}
	if req.Budget > 0 {
		args = append(args, "-budget", strconv.FormatInt(req.Budget, 10))
	}
	args = append(args, "-seed", strconv.FormatInt(req.Seed, 10))
	for _, ax := range []struct {
		flag string
		vals []int
	}{
		{"-procs", req.Procs}, {"-ds-banks", req.DSBanks}, {"-ds-columns", req.DSColumns},
		{"-ds-ways", req.DSWays}, {"-ds-victims", req.DSVictims},
	} {
		if len(ax.vals) == 0 {
			continue
		}
		s := make([]string, len(ax.vals))
		for i, v := range ax.vals {
			s[i] = strconv.Itoa(v)
		}
		args = append(args, ax.flag, strings.Join(s, ","))
	}
	return append(args, req.Experiments...)
}

// env is where one benchmark run works: the repository it builds from
// and a scratch directory it removes when done.
type env struct {
	root     string // repository root: go.mod, cmd/, testdata/
	work     string // scratch directory for caches, traces and binaries
	iramsim  string
	iramsimd string
	buildS   float64
	dirs     int
}

// newEnv builds cmd/iramsim and cmd/iramsimd from root into a fresh
// scratch directory under root/.bench_build.
func newEnv(ctx context.Context, root string) (*env, error) {
	// Absolute, because a command's relative path resolves against its
	// working directory, which is root.
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{root: root, work: work,
		iramsim: filepath.Join(work, "iramsim"), iramsimd: filepath.Join(work, "iramsimd")}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", work+string(filepath.Separator), "./cmd/iramsim", "./cmd/iramsimd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		e.close()
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	e.buildS = time.Since(start).Seconds()
	return e, nil
}

func (e *env) close() { os.RemoveAll(e.work) }

// freshDir returns a new empty directory under the scratch directory.
func (e *env) freshDir(prefix string) (string, error) {
	e.dirs++
	d := filepath.Join(e.work, fmt.Sprintf("%s%d", prefix, e.dirs))
	return d, os.MkdirAll(d, 0o755)
}

// opResult is one finished operation.
type opResult struct {
	wall, cpu float64 // seconds; cpu is the child's user+system time
	rssKB     int64   // the child's peak resident set
	out       []byte
	err       error
}

// opTimeout bounds one operation, so a hung simulator fails the run
// instead of holding it past its time limit.
const opTimeout = 100 * time.Second

// runCLI runs one iramsim operation for s at the given seed with the
// result cache in cacheDir and, for replay workloads, the trace
// directory traceDir. An empty cacheDir means a fresh, empty cache,
// removed afterwards: the write path a user's first run takes.
func (e *env) runCLI(ctx context.Context, s spec, seed int64, traceDir, cacheDir string) opResult {
	if cacheDir == "" {
		rc, err := e.freshDir("rc")
		if err != nil {
			return opResult{err: err}
		}
		defer os.RemoveAll(rc)
		cacheDir = rc
	}
	args := []string{"-j", strconv.Itoa(workers), "-result-cache", cacheDir}
	if s.replay {
		args = append(args, "-trace-dir", traceDir)
	}
	req := s.req
	req.Seed = seed
	args = append(args, cliArgs(req)...)

	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, e.iramsim, args...)
	cmd.Dir = e.root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return opResult{err: err}
	}
	var r opResult
	stop, polled := make(chan struct{}), make(chan int64)
	go func() { polled <- pollPeakRSS(cmd.Process.Pid, stop) }()
	err := cmd.Wait()
	r.wall = time.Since(start).Seconds()
	close(stop)
	r.rssKB = <-polled
	r.out = stdout.Bytes()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	if err != nil {
		r.err = fmt.Errorf("iramsim %s: %v: %s", strings.Join(args, " "), err, lastLine(stderr.Bytes()))
	}
	return r
}

// rssPoll is how often a running operation's peak RSS is read. The
// peak only grows, so the last read before exit misses at most what the
// process added in its final poll interval.
const rssPoll = 5 * time.Millisecond

// pollPeakRSS reads pid's peak resident set until stop is closed and
// returns the last value read.
func pollPeakRSS(pid int, stop <-chan struct{}) int64 {
	var peak int64
	t := time.NewTicker(rssPoll)
	defer t.Stop()
	for {
		if hwm, _, err := procMem(pid); err == nil {
			peak = max(peak, hwm)
		}
		select {
		case <-stop:
			return peak
		case <-t.C:
		}
	}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// lastLine returns the last non-empty line of b, which is where a
// failing command puts its error.
func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}
