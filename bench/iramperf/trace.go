package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// span is one timed interval at a layer boundary. Spans are written as
// JSON lines; a layer's self time is its spans' durations minus the
// part their children cover.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`

	hit bool // unit spans: the result cache answered the unit
}

// tracer records spans in memory; they are written out only when the
// benchmark ends. Spans are timed from outside the program, around the
// calls it makes into public layer functions.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
	units map[uint64]int64 // goroutine id -> its open unit span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), units: map[uint64]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (1-based; 0 means no parent).
func (t *tracer) begin(name string, parent int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent,
		Workload: t.workload, Name: name, Start: t.now()})
	return int64(len(t.spans))
}

func (t *tracer) end(id int64) {
	t.mu.Lock()
	t.spans[id-1].End = t.now()
	t.mu.Unlock()
}

// add records an already-measured span of duration d starting at the
// start of its parent. The time inside a sink is spread over hundreds
// of thousands of batch calls; it is kept as one span per stream.
func (t *tracer) add(name string, parent int64, d time.Duration) {
	t.mu.Lock()
	start := t.spans[parent-1].Start
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent,
		Workload: t.workload, Name: name, Start: start, End: start + int64(d)})
	t.mu.Unlock()
}

// unit returns the unit span open on the calling goroutine, or root.
// A sweep unit runs start to finish on one worker goroutine, so the
// goroutine identifies the unit a source or cache call belongs to.
func (t *tracer) unit(root int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.units[goid()]; ok {
		return id
	}
	return root
}

// goid returns the calling goroutine's id from the runtime's stack
// header ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

// write emits the spans as JSON lines.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// tracedSource wraps a workload.Source: one span per Stream call, named
// after the layer producing the stream (the VM, or trace decode for a
// recorded stream), with a child span for the time inside the sink.
type tracedSource struct {
	inner workload.Source
	layer string // "vm" or "tracestore"
	t     *tracer
	root  int64
}

func (s tracedSource) Stream(w workload.Workload, budget int64, sink trace.Sink) (int64, error) {
	id := s.t.begin(s.layer+".stream", s.t.unit(s.root))
	ts := &timedSink{inner: sink}
	n, err := s.inner.Stream(w, budget, ts)
	s.t.end(id)
	s.t.add("workload.sink", id, ts.d)
	return n, err
}

// timedSink accumulates the time spent inside the wrapped sink.
type timedSink struct {
	inner trace.Sink
	d     time.Duration
}

func (s *timedSink) Ref(r trace.Ref) {
	t0 := time.Now()
	s.inner.Ref(r)
	s.d += time.Since(t0)
}

func (s *timedSink) Refs(rs []trace.Ref) {
	t0 := time.Now()
	trace.EmitAll(s.inner, rs)
	s.d += time.Since(t0)
}

// tracedCache wraps a sweep.ResultCache. The engine calls Acquire at the
// start of every cacheable unit and releases at its end, on the worker
// goroutine, so Acquire..release is the unit's span; Get and Put are
// child spans of it.
type tracedCache struct {
	inner sweep.ResultCache
	t     *tracer
	root  int64
}

func (c tracedCache) Acquire(key string) func() {
	g := goid()
	id := c.t.begin("unit:"+unitPrefix(key), c.t.unit(c.root))
	c.t.mu.Lock()
	prev, nested := c.t.units[g]
	c.t.units[g] = id
	c.t.mu.Unlock()
	release := c.inner.Acquire(key)
	return func() {
		release()
		c.t.end(id)
		c.t.mu.Lock()
		if nested {
			c.t.units[g] = prev
		} else {
			delete(c.t.units, g)
		}
		c.t.mu.Unlock()
	}
}

func (c tracedCache) Get(key string) ([]byte, bool) {
	u := c.t.unit(c.root)
	id := c.t.begin("resultstore.get", u)
	b, ok := c.inner.Get(key)
	c.t.end(id)
	if ok && u != c.root {
		c.t.mu.Lock()
		c.t.spans[u-1].hit = true
		c.t.mu.Unlock()
	}
	return b, ok
}

func (c tracedCache) Put(key string, data []byte) error {
	id := c.t.begin("resultstore.put", c.t.unit(c.root))
	err := c.inner.Put(key, data)
	c.t.end(id)
	return err
}

// unitPrefix is the readable part of a result-cache key: the sanitised
// unit name before the digest ("fig11_126.gcc", "designspace_gspn_...").
func unitPrefix(key string) string {
	if i := strings.LastIndexByte(key, '-'); i > 0 {
		return key[:i]
	}
	return key
}

// unitLayer names the layer whose work fills a unit's self time (the
// unit minus its source, sink and cache child spans). A unit the cache
// answered spent it decoding the stored result. Otherwise the job
// decides: GSPN evaluations are cpumodel, SPLASH runs are mpsim (with
// coherence and splash), design-space family passes are workload, and
// the cache-figure rows are sweep — row assembly plus any wait on the
// shared measurement another unit is computing.
func unitLayer(prefix string, hit bool) string {
	job, _, _ := strings.Cut(prefix, "_")
	switch {
	case hit:
		return "resultstore"
	case strings.HasPrefix(prefix, "designspace_gspn"):
		return "cpumodel"
	case job == "designspace":
		return "workload"
	}
	switch job {
	case "fig11", "fig12", "table3", "table4", "banks", "realcpi":
		return "cpumodel"
	case "fig13", "fig14", "fig15", "fig16", "fig17", "scoma":
		return "mpsim"
	}
	return "sweep"
}

// spanLayer names the layer a span's self time belongs to.
func spanLayer(s span) string {
	switch {
	case s.Name == "run":
		return "sweep" // scheduling, assembly and rendering outside units
	case strings.HasPrefix(s.Name, "unit:"):
		return unitLayer(strings.TrimPrefix(s.Name, "unit:"), s.hit)
	}
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// selfTimes returns each span's duration minus the union of its
// children's intervals, in seconds, keyed by span id.
func selfTimes(spans []span) map[int64]float64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// opTrace is what one in-process operation measured.
type opTrace struct {
	out       []byte
	wall      float64            // seconds
	unitS     []float64          // engine-reported unit seconds, top-level units
	layers    map[string]float64 // traced only: self seconds per layer
	unitSpanS float64            // traced only: summed top-level unit span seconds
	rootSelf  float64            // traced only: run time outside every unit
	queueMax  int64
	reg       *obs.Registry
	results   []runner.Result
}

// inprocOp runs one operation of s inside this process, the way a child
// iramsim runs it: the same workers, the trace directory of a replay
// workload, and the result cache in cacheDir. With t non-nil, the
// source and the result cache are wrapped so every stream, sink, unit
// and cache call becomes a span under one "run" span.
func inprocOp(ctx context.Context, s spec, seed int64, traceDir, cacheDir string, t *tracer) (*opTrace, error) {
	req := s.req
	req.Seed = seed
	opts, err := req.Options()
	if err != nil {
		return nil, err
	}
	store, err := resultstore.NewStore(cacheDir)
	if err != nil {
		return nil, err
	}
	var src workload.Source = workload.Live{}
	layer := "vm"
	if traceDir != "" {
		if src, err = runner.OpenTraceSource(traceDir, opts.Seed, false); err != nil {
			return nil, err
		}
		layer = "tracestore"
	}
	var cache sweep.ResultCache = store
	var root int64
	if t != nil {
		root = t.begin("run", 0)
		src = tracedSource{inner: src, layer: layer, t: t, root: root}
		cache = tracedCache{inner: store, t: t, root: root}
	}
	op := &opTrace{reg: obs.NewRegistry()}
	var buf bytes.Buffer
	opts.TraceSource, opts.ResultCache, opts.Obs, opts.Workers, opts.Ctx = src, cache, op.reg, workers, ctx
	cfg := runner.Config{Workers: workers, Out: &buf, Obs: op.reg, ResultCache: cache,
		OnUnit:   func(ev sweep.UnitEvent) { op.unitS = append(op.unitS, ev.Elapsed.Seconds()) },
		OnResult: func(r runner.Result) { op.results = append(op.results, r) }}
	start := time.Now()
	err = runner.RunJobs(ctx, runner.ExpandNames(req.Experiments), opts, experiments.NewMeasurementSet(opts), cfg)
	op.wall = time.Since(start).Seconds()
	if t != nil {
		t.end(root)
	}
	if err != nil {
		return nil, err
	}
	op.out = buf.Bytes()
	op.queueMax = op.reg.Gauge("sweep", "queue_depth_max").Value()
	if t != nil {
		op.attribute(t, root)
	}
	return op, nil
}

// attribute folds the spans under root into self seconds per layer.
func (op *opTrace) attribute(t *tracer, root int64) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans[root-1:]...)
	t.mu.Unlock()
	self := selfTimes(spans)
	op.rootSelf = self[root]
	op.layers = map[string]float64{}
	for _, s := range spans {
		op.layers[spanLayer(s)] += self[s.ID]
		if s.Parent == root && strings.HasPrefix(s.Name, "unit:") && !strings.HasPrefix(s.Name, "unit:designspace_gspn") {
			op.unitSpanS += float64(s.End-s.Start) / 1e9
		}
	}
}
