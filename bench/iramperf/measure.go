package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"repro/internal/experiments"
)

const (
	// clients is the closed-loop connection count driving the daemon.
	clients = 2
	// rssRequests is the request count after which the daemon's peak
	// RSS is read.
	rssRequests = 1500
	// maxRequests caps one run's requests, which caps the memory the
	// daemon retains for them (about 70 KB per finished run).
	maxRequests = 4000
)

// measure is the untraced run: set up, time operations for the run's
// duration, check their output, and report the end-to-end metrics.
func measure(ctx context.Context, e *env, c runConfig) (*outcome, error) {
	o := newOutcome(c, false)
	cal := newCalibrator()
	var err error
	if c.spec.serve {
		err = measureServe(ctx, e, c, cal, o)
	} else {
		err = measureCLI(ctx, e, c, cal, o)
	}
	if err != nil {
		return nil, err
	}
	o.Details["calib.kernel_s"] = median(cal.samples)
	return o, nil
}

// timings collects one quantity per operation, as measured and scaled
// to the reference host speed (calib.go).
type timings struct{ measured, scaled latencies }

func (t *timings) add(v, scale float64) {
	t.measured.add(v)
	t.scaled.add(v * scale)
}

func (t *timings) fail() {
	t.measured.fail()
	t.scaled.fail()
}

// putTime reports the median of a timing at the reference host speed
// and keeps the measured median in the details.
func (o *outcome) putTime(name string, t timings) {
	o.Details["measured."+name] = finite(median(t.measured))
	o.put(name, "s", median(t.scaled), len(t.scaled))
}

// setupCLI prepares a CLI workload setupReps times and keeps the last
// preparation. For a replay workload that is recording every trace
// into a fresh directory by running one operation against it; for a
// live one it is one warm-up operation. It returns the set-up times,
// the output the set-up operations agreed on and the trace directory.
func setupCLI(ctx context.Context, e *env, c runConfig, cal *calibrator) (setup timings, want []byte, traceDir string, err error) {
	cal.sample()
	for i := 0; i < setupReps; i++ {
		if traceDir != "" {
			os.RemoveAll(traceDir)
		}
		start := time.Now()
		if c.spec.replay {
			if traceDir, err = e.freshDir("traces"); err != nil {
				return setup, nil, "", err
			}
		}
		r := e.runCLI(ctx, c.spec, c.seed, traceDir, "")
		d := time.Since(start).Seconds()
		cal.sample()
		setup.add(d, cal.scale())
		if r.err != nil {
			return setup, nil, "", fmt.Errorf("set-up: %w", r.err)
		}
		if want != nil && !bytes.Equal(r.out, want) {
			return setup, nil, "", errors.New("set-up: two set-up operations printed different output")
		}
		want = r.out
	}
	return setup, want, traceDir, nil
}

func measureCLI(ctx context.Context, e *env, c runConfig, cal *calibrator, o *outcome) error {
	setup, want, traceDir, err := setupCLI(ctx, e, c, cal)
	if err != nil {
		return err
	}
	var wall, cpu timings
	var rss []float64
	for deadline := c.deadline(); c.more(o.Attempted, deadline); {
		r := e.runCLI(ctx, c.spec, c.seed, traceDir, "")
		cal.sample()
		o.Attempted++
		if r.err == nil && !bytes.Equal(r.out, want) {
			r.err = errors.New("output differs from the set-up operations'")
		}
		if r.err != nil {
			o.fail(r.err)
			wall.fail()
			cpu.fail()
			continue
		}
		wall.add(r.wall, cal.scale())
		cpu.add(r.cpu, cal.scale())
		rss = append(rss, float64(r.rssKB)/1024)
	}
	if err := o.checkReference(ctx, c, want); err != nil {
		return err
	}
	o.putTime("setup_s", setup)
	o.putTime("wall_s", wall)
	o.putTime("cpu_s", cpu)
	// A Go process's peak RSS depends on where its garbage collections
	// fall, so it varies from one operation to the next by up to 40%;
	// the mean over operations repeats better than the median.
	o.put("max_rss_mb", "MB", sum(rss)/float64(len(rss)), len(rss))
	o.tail("wall", wall.measured)
	return nil
}

// setupServe fills a fresh result cache with one cold iramsim run of
// the request and starts a daemon over it, setupReps times, keeping the
// last daemon running. It returns the daemon, the set-up times and the
// cold run's output, which every warm response must reproduce.
func setupServe(ctx context.Context, e *env, c runConfig, cal *calibrator) (*daemon, timings, []byte, error) {
	var (
		d     *daemon
		setup timings
		want  []byte
	)
	cal.sample()
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, setup, nil, fmt.Errorf("stop iramsimd: %w", err)
			}
		}
		rc, err := e.freshDir("daemon-rc")
		if err != nil {
			return nil, setup, nil, err
		}
		start := time.Now()
		r := e.runCLI(ctx, c.spec, c.seed, "", rc)
		if r.err != nil {
			return nil, setup, nil, fmt.Errorf("set-up: %w", r.err)
		}
		if d, err = e.startDaemon(rc); err != nil {
			return nil, setup, nil, err
		}
		t := time.Since(start).Seconds()
		cal.sample()
		setup.add(t, cal.scale())
		if want != nil && !bytes.Equal(r.out, want) {
			d.stop()
			return nil, setup, nil, errors.New("set-up: two cold runs printed different output")
		}
		want = r.out
	}
	return d, setup, want, nil
}

func requestBody(c runConfig) ([]byte, error) {
	req := c.spec.req
	req.Seed = c.seed
	return json.Marshal(req)
}

// sliceSeconds is how long the clients run between calibration samples;
// they pause while the kernel runs.
const sliceSeconds = 1

func measureServe(ctx context.Context, e *env, c runConfig, cal *calibrator, o *outcome) error {
	d, setup, want, err := setupServe(ctx, e, c, cal)
	if err != nil {
		return err
	}
	defer d.stop()
	body, err := requestBody(c)
	if err != nil {
		return err
	}
	pid := d.cmd.Process.Pid
	_, rss0, err := procMem(pid)
	if err != nil {
		return err
	}
	// The daemon keeps every finished run, so its memory grows with the
	// requests served. Peak RSS is read after a fixed request count, not
	// at the deadline, or a faster daemon would read as a larger one.
	deadline, limit := c.deadline(), maxRequests
	if c.maxOps > 0 {
		limit = c.maxOps
	}
	rssAt := min(rssRequests, limit)
	var (
		lr       loadResult
		wall     timings
		cpu, raw float64 // daemon CPU seconds: scaled, measured
	)
	hwm := int64(-1)
	for len(lr.lat) == 0 || time.Now().Before(deadline) && len(lr.lat) < limit {
		n := limit - len(lr.lat)
		if hwm < 0 {
			n = rssAt - len(lr.lat)
		}
		end := time.Now().Add(sliceSeconds * time.Second)
		if end.After(deadline) {
			end = deadline
		}
		cpu0, err := procCPU(pid)
		if err != nil {
			return err
		}
		slice := d.closedLoop(ctx, body, want, clients, end, n)
		cpu1, err := procCPU(pid)
		if err != nil {
			return err
		}
		if hwm < 0 && len(lr.lat)+len(slice.lat) >= rssAt {
			if hwm, _, err = procMem(pid); err != nil {
				return err
			}
		}
		cal.sample()
		for _, l := range slice.lat {
			wall.add(l, cal.scale())
		}
		cpu += (cpu1 - cpu0) * cal.scale()
		raw += cpu1 - cpu0
		lr.merge(slice)
	}
	hwmEnd, rss1, err := procMem(pid)
	if err != nil {
		return err
	}
	if hwm < 0 {
		hwm = hwmEnd
	}
	o.Attempted, o.Failed = len(lr.lat), lr.failed
	if lr.firstErr != nil {
		o.Note = lr.firstErr.Error()
	}
	if err := o.checkReference(ctx, c, want); err != nil {
		return err
	}
	ok := float64(len(lr.lat) - lr.failed)
	o.putTime("setup_s", setup)
	o.putTime("wall_s", wall)
	o.put("cpu_s", "s", cpu/ok, int(ok))
	o.Details["measured.cpu_s"] = raw / ok
	o.put("max_rss_mb", "MB", float64(hwm)/1024, 1)
	o.tail("wall", lr.lat)
	o.Details["iramsimd.req_per_s"] = ok / lr.elapsed
	o.Details["iramsimd.rss_kb_per_run"] = float64(rss1-rss0) / ok
	o.Details["iramsimd.rejected_429"] = float64(lr.rejected)
	return nil
}

// maxTracedPairs caps a traced run's operation pairs, which keeps the
// in-memory span list small for the millisecond-scale warm operations.
const maxTracedPairs = 25

// measureTraced is the traced run. After the same set-up as an untraced
// run it alternates an untraced and a traced in-process operation for
// the run's duration, checks every output, attributes the traced
// operations' time to layers, and finishes with the layer probes.
func measureTraced(ctx context.Context, e *env, c runConfig, spansPath string) (*outcome, error) {
	o := newOutcome(c, true)
	var (
		setup    timings
		want     []byte
		traceDir string
		warmDir  string
		err      error
	)
	if c.spec.serve {
		var d *daemon
		if d, setup, want, err = setupServe(ctx, e, c, newCalibrator()); err != nil {
			return nil, err
		}
		defer d.stop()
		warmDir = d.cacheDir
		if err := daemonLayers(ctx, d, c, want, o); err != nil {
			return nil, err
		}
	} else if setup, want, traceDir, err = setupCLI(ctx, e, c, newCalibrator()); err != nil {
		return nil, err
	}
	o.Details["measured.setup_s"] = median(setup.measured)

	t := newTracer(c.spec.name)
	var plain, traced []*opTrace
	deadline := c.deadline()
	for pairs := 0; c.more(pairs, deadline) && pairs < maxTracedPairs; pairs++ {
		for _, tr := range []*tracer{nil, t} {
			dir := warmDir
			if !c.spec.serve {
				if dir, err = e.freshDir("rc"); err != nil {
					return nil, err
				}
			}
			op, err := inprocOp(ctx, c.spec, c.seed, traceDir, dir, tr)
			o.Attempted++
			if err == nil && !bytes.Equal(op.out, want) {
				err = errors.New("in-process output differs from the set-up operations'")
			}
			if err != nil {
				o.fail(err)
				continue
			}
			if tr == nil {
				plain = append(plain, op)
				if !c.spec.serve {
					warmDir = dir
				}
			} else {
				traced = append(traced, op)
			}
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return nil, fmt.Errorf("no in-process operation succeeded: %s", o.Note)
	}
	if err := o.checkReference(ctx, c, want); err != nil {
		return nil, err
	}

	perOp := func(f func(op *opTrace) float64) (v float64, n int) {
		xs := make([]float64, len(traced))
		for i, op := range traced {
			xs[i] = f(op)
		}
		return median(xs), len(xs)
	}
	layer := func(name, unit string, f func(op *opTrace) float64) {
		v, n := perOp(f)
		o.put(name, unit, v, n)
	}
	layer("sweep.unit_s_sum", "s", func(op *opTrace) float64 { return sum(op.unitS) })
	layer("sweep.unit_s_max", "s", func(op *opTrace) float64 { return maxOf(op.unitS) })
	layer("sweep.busy_frac", "ratio", func(op *opTrace) float64 { return sum(op.unitS) / (workers * op.wall) })
	layer("sweep.assemble_s", "s", func(op *opTrace) float64 { return op.rootSelf })
	layer("sweep.queue_depth_max", "count", func(op *opTrace) float64 { return float64(op.queueMax) })
	layer("resultstore.self_s", "s", func(op *opTrace) float64 { return op.layers["resultstore"] })
	layer("harness.attributed_frac", "ratio", func(op *opTrace) float64 { return op.unitSpanS / sum(op.unitS) })
	for _, l := range []string{"vm", "tracestore", "workload", "cpumodel", "mpsim", "sweep", "resultstore"} {
		o.Details["self_s."+l], _ = perOp(func(op *opTrace) float64 { return op.layers[l] })
	}
	walls := func(ops []*opTrace) []float64 {
		xs := make([]float64, len(ops))
		for i, op := range ops {
			xs[i] = op.wall
		}
		return xs
	}
	o.put("harness.trace_overhead_frac", "ratio", median(walls(traced))/median(walls(plain))-1, len(traced))
	o.put("harness.build_s", "s", e.buildS, 1)
	layerCounts(traced[len(traced)-1], want, o)

	// runner: the workload's request answered entirely from a warm cache.
	var warm []float64
	for i := 0; i < 5; i++ {
		op, err := inprocOp(ctx, c.spec, c.seed, traceDir, warmDir, nil)
		if err != nil {
			return nil, fmt.Errorf("warm run: %w", err)
		}
		warm = append(warm, op.wall*1e3)
	}
	o.put("runner.warm_run_ms", "ms", median(warm), len(warm))
	if v, ok := o.Details["iramsimd.req_p50_ms"]; ok {
		o.Details["iramsimd.http_overhead_ms"] = v - median(warm)
	}

	probes, err := runProbes(e.work, c.seed)
	if err != nil {
		return nil, err
	}
	for n, m := range probes {
		o.Metrics[n] = m
	}
	return o, writeSpans(spansPath, t)
}

// daemonLayers runs a short closed loop against the daemon for the
// daemon's own layer numbers: request latency, retained memory per
// finished run and load shed.
func daemonLayers(ctx context.Context, d *daemon, c runConfig, want []byte, o *outcome) error {
	body, err := requestBody(c)
	if err != nil {
		return err
	}
	pid := d.cmd.Process.Pid
	_, rss0, err := procMem(pid)
	if err != nil {
		return err
	}
	limit := 400
	if c.maxOps > 0 {
		limit = c.maxOps
	}
	lr := d.closedLoop(ctx, body, want, clients, time.Now().Add(3*time.Second), limit)
	_, rss1, err := procMem(pid)
	if err != nil {
		return err
	}
	o.Attempted += len(lr.lat)
	for i := 0; i < lr.failed; i++ {
		o.fail(lr.firstErr)
	}
	ok := float64(len(lr.lat) - lr.failed)
	o.Details["iramsimd.req_p50_ms"] = median(lr.lat) * 1e3
	o.Details["iramsimd.requests"] = float64(len(lr.lat))
	o.Details["iramsimd.rss_kb_per_run"] = float64(rss1-rss0) / ok
	o.Details["iramsimd.rejected_429"] = float64(lr.rejected)
	return nil
}

// accounting is the design-space search's accounting note.
var accounting = regexp.MustCompile(`accounting: lattice=\d+ evaluated=(\d+) families=\d+ benches=\d+ passes=(\d+) compounds=\d+ gspn=(\d+)`)

// layerCounts adds the work counts one traced operation's layers
// report: mpsim and coherence from their metric families, the
// design-space accounting note, and the CPI tables' error against the
// paper. Each appears only for workloads that run the layer.
func layerCounts(op *opTrace, out []byte, o *outcome) {
	grants := op.reg.Counter("mpsim", "grants").Value()
	if grants > 0 {
		o.Details["mpsim.grants"] = float64(grants)
		o.Details["mpsim.handoff_frac"] = float64(op.reg.Counter("mpsim", "channel_wakes").Value()) / float64(grants)
		acc := op.reg.Counter("coherence", "accesses").Value()
		o.Details["coherence.accesses"] = float64(acc)
		o.Details["coherence.remote_frac"] = float64(op.reg.Counter("coherence", "remote_loads").Value()) / float64(acc)
	}
	if m := accounting.FindSubmatch(out); m != nil {
		evaluated, _ := strconv.Atoi(string(m[1]))
		passes, _ := strconv.Atoi(string(m[2]))
		gspn, _ := strconv.Atoi(string(m[3]))
		o.Details["designspace.passes"] = float64(passes)
		o.Details["designspace.gspn_evals"] = float64(gspn)
		if passes > 0 {
			o.Details["designspace.points_per_pass"] = float64(evaluated) / float64(passes)
		}
	}
	var errSum float64
	var rows int
	for _, r := range op.results {
		cpi, ok := r.Value.(*experiments.CPIResult)
		if !ok {
			continue
		}
		for _, row := range cpi.Rows {
			if row.PaperTotalCPI > 0 {
				errSum += math.Abs(row.TotalCPI-row.PaperTotalCPI) / row.PaperTotalCPI
				rows++
			}
		}
	}
	if rows > 0 {
		o.Details["experiments.cpi_err_vs_paper"] = errSum / float64(rows)
	}
}

func writeSpans(path string, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
