// Package memsys models complete memory hierarchies as seen by a
// running program: one or more cache levels in front of a main memory,
// each with an access latency. It reproduces the paper's Section 2
// motivation study — the SparcStation 5 versus SparcStation 10/61
// comparison of Table 1 and the stride/size latency surface of
// Figure 2 — and provides the hierarchy abstraction used by the
// Table 1 run-time estimator.
//
// Latency parameters for the two workstations are modelled estimates
// chosen to match the era's published characteristics (MicroSparc @
// 85 MHz with an on-chip memory controller; SuperSparc @ 60 MHz behind
// an MBus with a 1 MB second-level cache): the SS-10/61 wins while its
// 1 MB L2 holds the working set and loses beyond it, which is the
// paper's point. They are inputs to the model, not measurements.
package memsys

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Level is one cache level of a hierarchy.
type Level struct {
	Cache     *cache.SetAssoc
	LatencyNs float64 // access (hit) latency in nanoseconds
}

// Hierarchy is a memory system: zero or more cache levels backed by
// main memory. All levels are managed inclusively with LRU.
type Hierarchy struct {
	Name     string
	Levels   []Level
	MemoryNs float64 // main memory access latency
	ClockMHz float64 // processor clock, for run-time estimates
	BaseCPI  float64 // CPI with a zero-latency memory system
	// PrefetchStride, when non-zero, models a hardware prefetch unit
	// (the SS-10's, per the paper's Figure 2 footnote): memory accesses
	// that continue a small, linear stride (<= PrefetchStride bytes)
	// cost only the last cache level's latency instead of the full
	// memory latency.
	PrefetchStride uint64

	lastAddr  uint64
	lastDelta int64
	haveLast  bool

	// obs, when non-nil (set by Instrument), receives per-level access
	// accounting. The hot path pays one pointer check when nil.
	obs *hierObs
}

// hierObs bundles the metric handles Instrument resolves once, so
// AccessNs never performs registry lookups.
type hierObs struct {
	levelHits      []*obs.Counter
	prefetchHits   *obs.Counter
	memoryAccesses *obs.Counter
	accesses       *obs.Counter
	latency        *obs.Histogram
}

// SS5 models the SparcStation 5: single-level on-chip caches with the
// memory controller integrated on the CPU (low memory latency).
func SS5() *Hierarchy {
	return &Hierarchy{
		Name: "SS-5",
		Levels: []Level{
			{Cache: cache.NewDirectMapped("SS-5 L1D 8KB", 8<<10, 16), LatencyNs: 12},
		},
		MemoryNs: 280, // integrated memory controller: short path to DRAM
		ClockMHz: 85,
		BaseCPI:  1.3, // single-scalar MicroSparc
	}
}

// SS10 models the SparcStation 10/61: two cache levels, higher-latency
// main memory behind the MBus, plus a small-stride prefetch unit.
func SS10() *Hierarchy {
	return &Hierarchy{
		Name: "SS-10/61",
		Levels: []Level{
			{Cache: cache.NewDirectMapped("SS-10 L1D 16KB", 16<<10, 32), LatencyNs: 17},
			{Cache: cache.NewDirectMapped("SS-10 L2 1MB", 1<<20, 32), LatencyNs: 100},
		},
		// Main memory sits behind the L2 controller and the MBus; the
		// end-to-end load latency is several times the SS-5's — this
		// is the gap Figure 2 exposes and Table 1 monetises.
		MemoryNs:       760,
		ClockMHz:       60,
		BaseCPI:        0.9, // super-scalar SuperSparc
		PrefetchStride: 64,
	}
}

// IntegratedFrom models a machine-description device as a flat
// hierarchy for Figure 2-style comparisons: its data column buffers
// (one-cycle access at the device clock) in front of the DRAM array.
func IntegratedFrom(d core.Device) *Hierarchy {
	dc, _ := d.DCache()
	return &Hierarchy{
		Name:     "Integrated",
		Levels:   []Level{{Cache: dc, LatencyNs: 1000 / float64(d.ClockMHz)}},
		MemoryNs: d.DRAM.AccessNanos(),
		ClockMHz: float64(d.ClockMHz),
		BaseCPI:  1.0,
	}
}

// Instrument publishes the hierarchy's per-level hit counts, prefetch
// and memory access counts, and its access latency distribution into
// reg's "cache" family (metric names are prefixed with the hierarchy
// name, so several hierarchies share one registry). Fresh hierarchies
// of the same machine resolve to the same metrics, so sweeps that
// rebuild per unit accumulate one series per machine. A nil registry
// leaves the hierarchy uninstrumented.
func (h *Hierarchy) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	ho := &hierObs{
		prefetchHits:   reg.Counter("cache", h.Name+"/prefetch_hits"),
		memoryAccesses: reg.Counter("cache", h.Name+"/memory_accesses"),
		accesses:       reg.Counter("cache", h.Name+"/accesses"),
		latency:        reg.Histogram("cache", h.Name+"/access_ns", 0, h.MemoryNs+1, 16),
	}
	for i := range h.Levels {
		ho.levelHits = append(ho.levelHits,
			reg.Counter("cache", fmt.Sprintf("%s/L%d_hits", h.Name, i+1)))
	}
	h.obs = ho
}

// AccessNs simulates one data access and returns its latency in
// nanoseconds. Lower levels are filled on a miss (inclusive hierarchy).
func (h *Hierarchy) AccessNs(addr uint64, kind trace.Kind) float64 {
	// Capture the previous access's state, then update it inline: this
	// is the hottest loop in the repo (Walk issues tens of millions of
	// calls) and a deferred closure here costs an allocation per call.
	prevAddr, prevDelta, hadLast := h.lastAddr, h.lastDelta, h.haveLast
	if hadLast {
		h.lastDelta = int64(addr) - int64(prevAddr)
	}
	h.lastAddr = addr
	h.haveLast = true
	for i := range h.Levels {
		if h.Levels[i].Cache.Access(addr, kind) {
			if h.obs != nil {
				h.obs.accesses.Inc()
				h.obs.levelHits[i].Inc()
				h.obs.latency.Add(h.Levels[i].LatencyNs)
			}
			return h.Levels[i].LatencyNs
		}
	}
	// Miss in every level (already filled by Access's side effects).
	if h.PrefetchStride > 0 && hadLast {
		delta := int64(addr) - int64(prevAddr)
		if delta == prevDelta && delta > 0 && uint64(delta) <= h.PrefetchStride {
			// The prefetch unit has already issued this access.
			last := h.Levels[len(h.Levels)-1]
			if h.obs != nil {
				h.obs.accesses.Inc()
				h.obs.prefetchHits.Inc()
				h.obs.latency.Add(last.LatencyNs)
			}
			return last.LatencyNs
		}
	}
	if h.obs != nil {
		h.obs.accesses.Inc()
		h.obs.memoryAccesses.Inc()
		h.obs.latency.Add(h.MemoryNs)
	}
	return h.MemoryNs
}

// Reset clears all cache state (statistics are retained by the caches).
func (h *Hierarchy) Reset() {
	for i := range h.Levels {
		h.Levels[i].Cache.Flush()
	}
	h.haveLast = false
}

// WalkResult is one cell of the Figure 2 latency surface.
type WalkResult struct {
	ArrayBytes uint64
	Stride     uint64
	AvgNs      float64
}

// Walk measures the average load latency of repeatedly walking an
// array of the given size with the given stride — the classic
// microbenchmark behind Figure 2. One warm-up pass is excluded.
func (h *Hierarchy) Walk(arrayBytes, stride uint64) WalkResult {
	h.Reset()
	const base = 0x40000000
	if stride == 0 {
		stride = 8
	}
	// Warm-up pass.
	for off := uint64(0); off < arrayBytes; off += stride {
		h.AccessNs(base+off, trace.Load)
	}
	// Measured passes: walk enough to amortise, at least 2 passes and
	// at least ~64k accesses for stable averages.
	var total float64
	var n int
	passes := 2
	for uint64(passes)*(arrayBytes/stride+1) < 65536 {
		passes++
	}
	for p := 0; p < passes; p++ {
		for off := uint64(0); off < arrayBytes; off += stride {
			total += h.AccessNs(base+off, trace.Load)
			n++
		}
	}
	return WalkResult{ArrayBytes: arrayBytes, Stride: stride, AvgNs: total / float64(n)}
}

// WalkSurface evaluates Walk over the cross product of sizes and
// strides, returning rows in size-major order.
func (h *Hierarchy) WalkSurface(sizes, strides []uint64) []WalkResult {
	var out []WalkResult
	for _, sz := range sizes {
		for _, st := range strides {
			if st >= sz {
				continue
			}
			out = append(out, h.Walk(sz, st))
		}
	}
	return out
}

// RunEstimate is a Table 1-style run-time estimate for a workload
// reference stream executed on the hierarchy.
type RunEstimate struct {
	Machine      string
	Instructions int64
	DataAccesses int64
	AvgAccessNs  float64
	NsPerInstr   float64
	TotalSeconds float64
}

// Estimator accumulates a run-time estimate from a reference stream:
// instruction time from the base CPI plus measured data access time.
// Instruction fetches are assumed to hit on-chip I-caches (both
// machines' Synopsys I-footprints are modest next to the >50 MB data
// working set driving Table 1).
type Estimator struct {
	H      *Hierarchy
	Instr  int64
	DataN  int64
	DataNs float64
}

// Ref implements trace.Sink.
func (e *Estimator) Ref(r trace.Ref) {
	switch r.Kind {
	case trace.Ifetch:
		e.Instr++
	default:
		e.DataNs += e.H.AccessNs(r.Addr, r.Kind)
		e.DataN++
	}
}

// Refs implements trace.BatchSink.
func (e *Estimator) Refs(rs []trace.Ref) {
	for i := range rs {
		e.Ref(rs[i])
	}
}

// Estimate finalises the run-time estimate.
func (e *Estimator) Estimate() RunEstimate {
	cycleNs := 1000 / e.H.ClockMHz
	perInstr := e.H.BaseCPI * cycleNs
	total := float64(e.Instr)*perInstr + e.DataNs
	est := RunEstimate{
		Machine:      e.H.Name,
		Instructions: e.Instr,
		DataAccesses: e.DataN,
		TotalSeconds: total / 1e9,
	}
	if e.DataN > 0 {
		est.AvgAccessNs = e.DataNs / float64(e.DataN)
	}
	if e.Instr > 0 {
		est.NsPerInstr = total / float64(e.Instr)
	}
	return est
}
