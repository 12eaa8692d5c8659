// Package obs is the simulator's observability layer: a metrics
// registry (counters, gauges, streaming statistics, histograms)
// designed so that instrumentation can stay compiled into the hot paths
// permanently.
//
// Two properties are load-bearing for the rest of the repository:
//
//   - Off by default, invisible when off. Every instrumented component
//     takes a nil-able handle; all metric operations are nil-safe
//     no-ops, so an uninstrumented run costs one pointer check per hook
//     and allocates nothing (the memsys and mpsim zero-alloc guards run
//     with these hooks compiled in).
//
//   - Cheap and allocation-free when on. Counters and gauges are single
//     atomics; Running/Histogram adapters take an uncontended mutex. No
//     hook allocates on a hot path — allocation happens only at
//     registration time and when the results are rendered after the
//     run.
//
// The registry renders as JSON (cmd/iramsim -metrics): families sorted
// by name, every float sanitised so the dump never contains NaN or Inf
// (encoding/json rejects both, and a metrics file that cannot be parsed
// is worse than none).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Registry is a set of named metrics grouped into families ("sweep",
// "mpsim", "cache", ...). Metric creation is idempotent: asking twice
// for the same (family, name) returns the same metric, so concurrent
// sweep units can all publish into one accumulated series. A nil
// *Registry is a valid "instrumentation off" value: every method
// returns a nil metric whose operations are no-ops.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	runnings   map[string]*Running
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{
			counters:   make(map[string]*Counter),
			gauges:     make(map[string]*Gauge),
			runnings:   make(map[string]*Running),
			histograms: make(map[string]*Histogram),
		}
		r.families[name] = f
	}
	return f
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(fam, name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(fam)
	c, ok := f.counters[name]
	if !ok {
		c = &Counter{}
		f.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(fam, name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(fam)
	g, ok := f.gauges[name]
	if !ok {
		g = &Gauge{}
		f.gauges[name] = g
	}
	return g
}

// Running returns (creating if needed) the named streaming accumulator.
func (r *Registry) Running(fam, name string) *Running {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(fam)
	a, ok := f.runnings[name]
	if !ok {
		a = &Running{}
		f.runnings[name] = a
	}
	return a
}

// Histogram returns (creating if needed) the named histogram over
// [lo, hi) with the given bucket count. The range and bucket count are
// fixed by the first caller; later callers get the existing histogram.
func (r *Registry) Histogram(fam, name string, lo, hi float64, buckets int) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(fam)
	h, ok := f.histograms[name]
	if !ok {
		h = &Histogram{h: stats.NewHistogram(lo, hi, buckets)}
		f.histograms[name] = h
	}
	return h
}

// Counter is a monotonically increasing event count. The zero value is
// ready; a nil *Counter is a no-op (instrumentation off).
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins instantaneous measurement (queue depth,
// worker count). A nil *Gauge is a no-op.
type Gauge struct{ v atomic.Int64 }

// Set records the current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta and returns the new value (0 on nil).
// It makes a gauge usable as a shared live counter — e.g. outstanding
// sweep units across concurrently running engines — where last-value
// Set semantics would lose updates.
func (g *Gauge) Add(delta int64) int64 {
	if g == nil {
		return 0
	}
	return g.v.Add(delta)
}

// SetMax raises the gauge to v if v is larger (high-water marks).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Running adapts stats.Running for concurrent observation: a streaming
// mean/variance/min/max over float64 samples. A nil *Running is a
// no-op.
type Running struct {
	mu sync.Mutex
	r  stats.Running
}

// Add records one sample.
func (a *Running) Add(x float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.r.Add(x)
	a.mu.Unlock()
}

// Snapshot returns a copy of the underlying accumulator.
func (a *Running) Snapshot() stats.Running {
	if a == nil {
		return stats.Running{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.r
}

// Histogram adapts stats.Histogram for concurrent observation. A nil
// *Histogram is a no-op.
type Histogram struct {
	mu sync.Mutex
	h  *stats.Histogram
}

// Add records one observation (clamped into the histogram's range, as
// stats.Histogram.Add documents).
func (h *Histogram) Add(x float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Add(x)
	h.mu.Unlock()
}

// ---------------------------------------------------------------------
// JSON rendering.
// ---------------------------------------------------------------------

// safe replaces NaN and ±Inf with 0 so the dump always marshals:
// encoding/json refuses to encode either, and the stats accessors are
// only NaN-free as long as nobody regresses them — the dump must stay
// parseable regardless.
func safe(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// runningJSON is the JSON shape of a streaming accumulator.
type runningJSON struct {
	N      int64   `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	StdErr float64 `json:"stderr"`
	CI95   float64 `json:"ci95"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// histogramJSON is the JSON shape of a histogram.
type histogramJSON struct {
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
	N       int64   `json:"n"`
	Mean    float64 `json:"mean"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
	Buckets []int64 `json:"buckets"`
}

// Snapshot renders the registry as a nested map: family -> metric name
// -> value. Counters and gauges render as integers, Running and
// Histogram as small objects. Keys are sorted by encoding/json, so a
// dump of the same run is byte-stable.
func (r *Registry) Snapshot() map[string]map[string]interface{} {
	out := make(map[string]map[string]interface{})
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for famName, f := range r.families {
		m := make(map[string]interface{})
		for name, c := range f.counters {
			m[name] = c.Value()
		}
		for name, g := range f.gauges {
			m[name] = g.Value()
		}
		for name, a := range f.runnings {
			s := a.Snapshot()
			m[name] = runningJSON{
				N:      s.N(),
				Mean:   safe(s.Mean()),
				StdDev: safe(s.StdDev()),
				StdErr: safe(s.StdErr()),
				CI95:   safe(s.CI95()),
				Min:    safe(s.Min()),
				Max:    safe(s.Max()),
			}
		}
		for name, h := range f.histograms {
			h.mu.Lock()
			buckets := make([]int64, len(h.h.Buckets))
			copy(buckets, h.h.Buckets)
			m[name] = histogramJSON{
				Lo:      safe(h.h.Lo),
				Hi:      safe(h.h.Hi),
				N:       h.h.N(),
				Mean:    safe(h.h.Mean()),
				P50:     safe(h.h.Quantile(0.50)),
				P90:     safe(h.h.Quantile(0.90)),
				P99:     safe(h.h.Quantile(0.99)),
				Buckets: buckets,
			}
			h.mu.Unlock()
		}
		out[famName] = m
	}
	return out
}

// WriteJSON writes the registry as indented JSON. The output is
// guaranteed to parse with encoding/json: every float is sanitised.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// String summarises the registry ("3 families, 42 metrics").
func (r *Registry) String() string {
	if r == nil {
		return "obs: off"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	metrics := 0
	for _, f := range r.families {
		metrics += len(f.counters) + len(f.gauges) + len(f.runnings) + len(f.histograms)
	}
	return fmt.Sprintf("obs: %d families, %d metrics", len(r.families), metrics)
}
