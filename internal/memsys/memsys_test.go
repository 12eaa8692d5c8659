package memsys

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

func TestSS5HitAndMiss(t *testing.T) {
	h := SS5()
	// Cold miss costs memory latency; the refill makes the retry a hit.
	if got := h.AccessNs(0, trace.Load); got != h.MemoryNs {
		t.Errorf("cold access = %v ns, want %v", got, h.MemoryNs)
	}
	if got := h.AccessNs(0, trace.Load); got != h.Levels[0].LatencyNs {
		t.Errorf("warm access = %v ns, want L1 latency", got)
	}
}

func TestSS10LevelsFill(t *testing.T) {
	h := SS10()
	h.AccessNs(0, trace.Load) // memory; fills L1 and L2
	// Evict from 16 KB L1 with an aliasing address, keep in 1 MB L2.
	h.AccessNs(16<<10, trace.Load)
	if got := h.AccessNs(0, trace.Load); got != h.Levels[1].LatencyNs {
		t.Errorf("L2 hit = %v ns, want %v", got, h.Levels[1].LatencyNs)
	}
}

func TestPrefetchHidesLinearStride(t *testing.T) {
	h := SS10()
	// Two sequential 32-byte-stride misses establish the stride; the
	// third sequential miss should be served at L2 latency.
	base := uint64(0x4000000)
	h.AccessNs(base, trace.Load)
	h.AccessNs(base+32, trace.Load)
	got := h.AccessNs(base+64, trace.Load)
	if got != h.Levels[1].LatencyNs {
		t.Errorf("prefetched access = %v ns, want L2 latency %v", got, h.Levels[1].LatencyNs)
	}
	// A large jump must pay full memory latency.
	if got := h.AccessNs(base+1<<22, trace.Load); got != h.MemoryNs {
		t.Errorf("non-strided miss = %v ns, want memory latency", got)
	}
}

// TestFigure2Crossover is the paper's Figure 2 in miniature: inside
// the SS-10's 1 MB L2 the SS-10 is faster; beyond it the SS-5 wins.
func TestFigure2Crossover(t *testing.T) {
	ss5, ss10 := SS5(), SS10()
	inside5 := ss5.Walk(256<<10, 512).AvgNs
	inside10 := ss10.Walk(256<<10, 512).AvgNs
	if inside10 >= inside5 {
		t.Errorf("inside L2: SS-10 %v ns should beat SS-5 %v ns", inside10, inside5)
	}
	beyond5 := ss5.Walk(8<<20, 512).AvgNs
	beyond10 := ss10.Walk(8<<20, 512).AvgNs
	if beyond5 >= beyond10 {
		t.Errorf("beyond L2: SS-5 %v ns should beat SS-10 %v ns", beyond5, beyond10)
	}
}

func TestIntegratedLatencyFlat(t *testing.T) {
	h := IntegratedFrom(core.Proposed())
	small := h.Walk(64<<10, 512).AvgNs
	big := h.Walk(16<<20, 512).AvgNs
	if big > 31 {
		t.Errorf("integrated device beyond cache = %v ns, want <= ~30", big)
	}
	if small > big {
		t.Errorf("latency should not decrease with size: %v vs %v", small, big)
	}
}

func TestWalkSurfaceSkipsDegenerate(t *testing.T) {
	h := SS5()
	rs := h.WalkSurface([]uint64{4096}, []uint64{16, 8192})
	if len(rs) != 1 {
		t.Errorf("surface rows = %d, want 1 (stride >= size skipped)", len(rs))
	}
}

func TestEstimator(t *testing.T) {
	h := SS5()
	e := &Estimator{H: h}
	e.Ref(trace.Ref{Kind: trace.Ifetch, Addr: 0, Size: 4})
	e.Ref(trace.Ref{Kind: trace.Load, Addr: 0, Size: 8}) // miss: 280 ns
	e.Ref(trace.Ref{Kind: trace.Load, Addr: 0, Size: 8}) // hit: 12 ns
	est := e.Estimate()
	if est.Instructions != 1 || est.DataAccesses != 2 {
		t.Errorf("estimate counts: %+v", est)
	}
	if est.AvgAccessNs != (280+12)/2.0 {
		t.Errorf("avg access = %v", est.AvgAccessNs)
	}
	wantTotal := 1.3*(1000.0/85) + 292
	if diff := est.NsPerInstr - wantTotal; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("ns/instr = %v, want %v", est.NsPerInstr, wantTotal)
	}
}

// TestAccessNsZeroAllocs is the -benchmem guard for the walk loop: the
// per-call defer closure that used to live in AccessNs cost one
// allocation per reference, which dominates Figure 2's tens of millions
// of calls. The hot path must stay allocation-free.
func TestAccessNsZeroAllocs(t *testing.T) {
	h := SS10()
	h.Reset()
	addr := uint64(0x40000000)
	allocs := testing.AllocsPerRun(10_000, func() {
		h.AccessNs(addr, trace.Load)
		addr += 32
	})
	if allocs != 0 {
		t.Errorf("AccessNs allocates %.1f times per call, want 0", allocs)
	}
}

// TestAccessNsZeroAllocsInstrumented repeats the guard with a live
// metrics registry attached: instrumentation must be allocation-free
// when on, not just when off.
func TestAccessNsZeroAllocsInstrumented(t *testing.T) {
	h := SS10()
	h.Instrument(obs.NewRegistry())
	h.Reset()
	addr := uint64(0x40000000)
	allocs := testing.AllocsPerRun(10_000, func() {
		h.AccessNs(addr, trace.Load)
		addr += 32
	})
	if allocs != 0 {
		t.Errorf("instrumented AccessNs allocates %.1f times per call, want 0", allocs)
	}
}

// TestInstrumentAccounting: the cache family's counters add up — every
// access is exactly one of a level hit, a prefetch hit, or a memory
// access, and the latency histogram sees all of them.
func TestInstrumentAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	h := SS10()
	h.Instrument(reg)
	h.Walk(1<<20, 64)

	total := reg.Counter("cache", "SS-10/61/accesses").Value()
	if total == 0 {
		t.Fatal("no accesses recorded")
	}
	sum := reg.Counter("cache", "SS-10/61/L1_hits").Value() +
		reg.Counter("cache", "SS-10/61/L2_hits").Value() +
		reg.Counter("cache", "SS-10/61/prefetch_hits").Value() +
		reg.Counter("cache", "SS-10/61/memory_accesses").Value()
	if sum != total {
		t.Errorf("outcome counters sum to %d, want %d", sum, total)
	}
	// Walking with a 64-byte stride keeps the SS-10 prefetcher engaged,
	// so prefetch hits must show up.
	if reg.Counter("cache", "SS-10/61/prefetch_hits").Value() == 0 {
		t.Error("no prefetch hits on a 64-byte-stride walk")
	}
	// Uninstrumented hierarchies record nothing.
	h2 := SS5()
	h2.Walk(1<<16, 32)
	if got := reg.Counter("cache", "SS-5/accesses").Value(); got != 0 {
		t.Errorf("uninstrumented hierarchy recorded %d accesses", got)
	}
}

// TestEstimatorZeroAllocs extends the guard through the Estimator sink
// wrapper, both per-ref and batched.
func TestEstimatorZeroAllocs(t *testing.T) {
	e := &Estimator{H: SS5()}
	batch := make([]trace.Ref, 64)
	for i := range batch {
		batch[i] = trace.Ref{Kind: trace.Load, Addr: uint64(i) * 32, Size: 4}
	}
	allocs := testing.AllocsPerRun(1_000, func() {
		e.Refs(batch)
	})
	if allocs != 0 {
		t.Errorf("Estimator.Refs allocates %.1f times per batch, want 0", allocs)
	}
}

// BenchmarkAccessNs measures the walk-loop hot path; run with -benchmem
// to confirm 0 allocs/op.
func BenchmarkAccessNs(b *testing.B) {
	h := SS10()
	h.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessNs(0x40000000+uint64(i)*32, trace.Load)
	}
}
