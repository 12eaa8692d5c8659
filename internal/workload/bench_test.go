package workload

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// benchBudget is the instruction budget of the recorded benchmark
// stream, the same stream internal/trace's codec benchmarks use: about
// 0.33M references.
const benchBudget = 300_000

// benchStream is 126.gcc's reference stream, recorded once in memory.
var benchStream = sync.OnceValue(func() []trace.Ref {
	w, err := ByName("126.gcc")
	if err != nil {
		panic(err)
	}
	var c refCollector
	if _, err := (Live{}).Stream(w, benchBudget, &c); err != nil {
		panic(err)
	}
	return c.refs
})

// benchFamily is the 32-point column family bench/iramperf's layer
// probe measures: 8..64 banks by 8, 1 or 2 ways, with and without a
// 16-entry victim cache.
func benchFamily() []FamilyPoint {
	var points []FamilyPoint
	for banks := 8; banks <= 64; banks += 8 {
		for _, ways := range []int{1, 2} {
			for _, vic := range []int{0, 16} {
				points = append(points, FamilyPoint{Banks: banks, Ways: ways, VictimEntries: vic})
			}
		}
	}
	return points
}

// feedBatches hands refs to sink in the VM's batch size.
func feedBatches(sink trace.BatchSink, refs []trace.Ref) {
	for i := 0; i < len(refs); i += trace.BatchLen {
		sink.Refs(refs[i:min(i+trace.BatchLen, len(refs))])
	}
}

// BenchmarkCacheSetRefs feeds the recorded stream into a fresh Figure
// 7/8 CacheSet per iteration: the stack-distance profiling layer of
// the cache figures, set-up included, in references per second.
func BenchmarkCacheSetRefs(b *testing.B) {
	refs := benchStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feedBatches(NewCacheSetFor(core.Proposed(), core.Reference()), refs)
	}
	b.ReportMetric(float64(len(refs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mref/s")
}

// BenchmarkFamilyCacheSetRefs is BenchmarkCacheSetRefs for a fresh
// 32-point design-space family at 512 B columns, whose 16 victim
// compounds replay every data reference.
func BenchmarkFamilyCacheSetRefs(b *testing.B) {
	refs := benchStream()
	points := benchFamily()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feedBatches(NewFamilyCacheSet(512, points), refs)
	}
	b.ReportMetric(float64(len(refs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mref/s")
}

// TestCacheSetZeroAllocs pins the profiling path's allocation contract:
// feeding a CacheSet and a FamilyCacheSet references allocates nothing,
// at 10k references as at 100k. The sets are built outside the
// measurement: what building one allocates varies from run to run,
// with when collections run and, under the race detector, with the
// random drops of the sync.Pool behind fmt.Sprintf.
func TestCacheSetZeroAllocs(t *testing.T) {
	refs := benchStream()
	points := benchFamily()
	allocs := func(n int) float64 {
		cs := NewCacheSetFor(core.Proposed(), core.Reference())
		fam := NewFamilyCacheSet(512, points)
		return testing.AllocsPerRun(3, func() {
			feedBatches(cs, refs[:n])
			feedBatches(fam, refs[:n])
		})
	}
	if small, large := allocs(10_000), allocs(100_000); small != 0 || large != 0 {
		t.Errorf("profiling allocates: %v per pass over 10k references, %v over 100k", small, large)
	}
}
