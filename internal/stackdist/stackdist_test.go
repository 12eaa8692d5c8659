package stackdist

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// genTraces builds adversarial reference streams: uniform random,
// strided sweeps with aliasing base addresses, loop nests, and
// pointer-chase style re-references. Each exercises a different part
// of the LRU position distribution.
func genTraces(seed int64, n int) map[string][]trace.Ref {
	rng := rand.New(rand.NewSource(seed))
	traces := map[string][]trace.Ref{}

	uniform := make([]trace.Ref, n)
	for i := range uniform {
		uniform[i] = trace.Ref{
			Kind: trace.Kind(rng.Intn(3)),
			Addr: uint64(rng.Intn(1 << 20)),
		}
	}
	traces["uniform"] = uniform

	// Multi-stream strided sweep: bases collide modulo small caches.
	strided := make([]trace.Ref, 0, n)
	for i := 0; len(strided) < n; i++ {
		for s := uint64(0); s < 4; s++ {
			strided = append(strided, trace.Ref{
				Kind: trace.Load,
				Addr: s*(64<<10) + uint64(i)*8,
			})
		}
	}
	traces["strided"] = strided[:n]

	// Loop nest: a hot inner working set plus a cold outer sweep.
	loops := make([]trace.Ref, 0, n)
	for i := 0; len(loops) < n; i++ {
		loops = append(loops, trace.Ref{Kind: trace.Ifetch, Addr: uint64(i%300) * 4})
		if i%3 == 0 {
			loops = append(loops, trace.Ref{Kind: trace.Store, Addr: uint64(i) * 32 % (1 << 18)})
		}
	}
	traces["loops"] = loops[:n]

	// Skewed random: Zipf-ish re-reference pattern.
	skew := make([]trace.Ref, n)
	for i := range skew {
		a := uint64(rng.Intn(1 << uint(8+rng.Intn(12))))
		skew[i] = trace.Ref{Kind: trace.Kind(rng.Intn(3)), Addr: a * 8}
	}
	traces["skew"] = skew

	return traces
}

// fig78Geometries is the full Figure 7/8 grid at 32-byte lines:
// direct-mapped 8..256 KB and 2-way 8..256 KB.
func fig78Geometries() []Geometry {
	var gs []Geometry
	for _, kb := range []int{8, 16, 32, 64, 128, 256} {
		gs = append(gs, Geometry{Sets: uint64(kb) << 10 / 32, Ways: 1})
		gs = append(gs, Geometry{Sets: uint64(kb) << 10 / 64, Ways: 2})
	}
	return gs
}

// partialGeometries mixes set counts that divide every later one
// (4, 48 and 96 sets: an MRU hit there ends the scan) with set counts
// that do not (8 through 40), at 1-4 ways, listed out of order.
func partialGeometries() []Geometry {
	var gs []Geometry
	for i, sets := range []uint64{96, 12, 4, 40, 16, 48, 8, 24} {
		for ways := 1; ways <= i%4+1; ways++ {
			gs = append(gs, Geometry{Sets: sets, Ways: ways})
		}
	}
	return gs
}

// TestSetProfilerMatchesReplay is the property-based equivalence test:
// identical random and structured traces through the stack-distance
// path and the per-config SetAssoc replay must produce equal miss
// counts for every size/associativity in the Figure 7/8 grid, and in a
// grid whose set counts only partly divide each other, so that
// trackers which stop the scan and trackers which do not are both
// checked.
func TestSetProfilerMatchesReplay(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for name, refs := range genTraces(seed, 20_000) {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				matchReplay(t, fig78Geometries(), refs)
			})
			t.Run(fmt.Sprintf("partial/%s/seed%d", name, seed), func(t *testing.T) {
				matchReplay(t, partialGeometries(), refs)
			})
		}
	}
}

// matchReplay feeds refs to a profiler over geoms and to one SetAssoc
// replica per geometry, and compares every geometry's miss counts.
func matchReplay(t *testing.T, geoms []Geometry, refs []trace.Ref) {
	p := NewSetProfiler(32, geoms)
	replicas := make([]*cache.SetAssoc, len(geoms))
	for i, g := range geoms {
		replicas[i] = cache.NewSetAssoc(
			fmt.Sprintf("replay %d×%d", g.Sets, g.Ways),
			g.Sets*uint64(g.Ways)*32, 32, g.Ways)
	}
	for _, r := range refs {
		p.Access(r.Addr, r.Kind)
		for _, c := range replicas {
			c.Access(r.Addr, r.Kind)
		}
	}
	for i, g := range geoms {
		s := replicas[i].Stats()
		for k, want := range []struct {
			events, total int64
		}{
			{s.Ifetch.Events, s.Ifetch.Total},
			{s.Load.Events, s.Load.Total},
			{s.Store.Events, s.Store.Total},
		} {
			got := p.MissCounter(g.Sets, g.Ways, trace.Kind(k))
			if got.Events != want.events || got.Total != want.total {
				t.Errorf("%d sets × %d ways kind=%v: profiler %d/%d, replay %d/%d",
					g.Sets, g.Ways, trace.Kind(k),
					got.Events, got.Total, want.events, want.total)
			}
		}
	}
}

// TestSetProfilerSharedTracker checks that a DM and a 2-way geometry
// sharing a set count share one tracker and both stay exact.
func TestSetProfilerSharedTracker(t *testing.T) {
	geoms := []Geometry{{Sets: 64, Ways: 1}, {Sets: 64, Ways: 2}}
	p := NewSetProfiler(32, geoms)
	if p.Trackers() != 1 {
		t.Fatalf("expected 1 merged tracker, got %d", p.Trackers())
	}
	dm := cache.NewSetAssoc("dm", 64*32, 32, 1)
	tw := cache.NewSetAssoc("2w", 64*2*32, 32, 2)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50_000; i++ {
		a := uint64(rng.Intn(1 << 14))
		p.Access(a, trace.Load)
		dm.Access(a, trace.Load)
		tw.Access(a, trace.Load)
	}
	if got, want := p.MissCounter(64, 1, trace.Load), dm.Stats().Load; got != want {
		t.Errorf("DM: profiler %+v, replay %+v", got, want)
	}
	if got, want := p.MissCounter(64, 2, trace.Load), tw.Stats().Load; got != want {
		t.Errorf("2-way: profiler %+v, replay %+v", got, want)
	}
}

// TestSetProfilerPosRouting checks the Pos side channel used to feed
// the reference system's L2 with first-level misses only.
func TestSetProfilerPosRouting(t *testing.T) {
	p := NewSetProfiler(32, []Geometry{{Sets: 4, Ways: 2}})
	ti := p.TrackerIndex(4)
	if ti != 0 {
		t.Fatalf("TrackerIndex(4) = %d", ti)
	}
	if p.TrackerIndex(999) != -1 {
		t.Error("TrackerIndex should return -1 for unknown set counts")
	}
	p.Access(0x000, trace.Load) // miss
	if p.Pos(ti) != -1 {
		t.Errorf("cold access Pos = %d, want -1", p.Pos(ti))
	}
	p.Access(0x000, trace.Load) // MRU hit
	if p.Pos(ti) != 0 {
		t.Errorf("re-access Pos = %d, want 0", p.Pos(ti))
	}
	p.Access(0x200, trace.Load) // same set (4 sets × 32 B), second way
	p.Access(0x000, trace.Load) // now at LRU position 1
	if p.Pos(ti) != 1 {
		t.Errorf("second-way hit Pos = %d, want 1", p.Pos(ti))
	}

	// Two trackers, registered largest first: 4 sets divides 8, so an
	// MRU hit at 4 sets ends the scan before the 8-set tracker, which
	// must still report position 0 rather than its previous -1.
	p = NewSetProfiler(32, []Geometry{{Sets: 8, Ways: 1}, {Sets: 4, Ways: 2}})
	small, large := p.TrackerIndex(4), p.TrackerIndex(8)
	if small != 0 || large != 1 {
		t.Fatalf("TrackerIndex(4), TrackerIndex(8) = %d, %d; want ascending 0, 1", small, large)
	}
	for _, step := range []struct {
		addr       uint64
		small, big int
	}{
		{0x000, -1, -1}, // cold in both
		{0x000, 0, 0},   // MRU hit at 4 sets: the scan stops
		{0x080, -1, -1}, // 4 sets: same set as 0x000; 8 sets: another set
		{0x000, 1, 0},   // second way at 4 sets, still MRU at 8 sets
		{0x080, 1, 0},   // second way at 4 sets, MRU of its own set at 8 sets
		{0x080, 0, 0},   // MRU hit at 4 sets again ends the scan
	} {
		p.Access(step.addr, trace.Load)
		if got := p.Pos(small); got != step.small {
			t.Errorf("access %#x: 4-set Pos = %d, want %d", step.addr, got, step.small)
		}
		if got := p.Pos(large); got != step.big {
			t.Errorf("access %#x: 8-set Pos = %d, want %d", step.addr, got, step.big)
		}
	}
	c := p.MissCounter(8, 1, trace.Load)
	if c.Events != 2 || c.Total != 6 {
		t.Errorf("8-set misses %d/%d, want 2/6", c.Events, c.Total)
	}
}

// TestProfilerMatchesFullyAssociative checks the Mattson profiler
// against brute-force fully-associative LRU simulation at every
// power-of-two capacity.
func TestProfilerMatchesFullyAssociative(t *testing.T) {
	capacities := []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	for seed := int64(1); seed <= 2; seed++ {
		for name, refs := range genTraces(seed, 10_000) {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				p := NewProfiler(32)
				replicas := make([]*cache.SetAssoc, len(capacities))
				for i, c := range capacities {
					// One set, ways == capacity: fully-associative LRU.
					replicas[i] = cache.NewSetAssoc(
						fmt.Sprintf("fa%d", c), c*32, 32, int(c))
				}
				for _, r := range refs {
					p.Access(r.Addr, r.Kind)
					for _, c := range replicas {
						c.Access(r.Addr, r.Kind)
					}
				}
				for i, capacity := range capacities {
					s := replicas[i].Stats()
					var all cache.Stats = s
					want := all.All()
					got := p.MissCounterAll(capacity)
					if got != want {
						t.Errorf("capacity %d: profiler %+v, replay %+v", capacity, got, want)
					}
				}
			})
		}
	}
}

// TestProfilerCompaction forces slot-space compaction and verifies
// exactness across it.
func TestProfilerCompaction(t *testing.T) {
	p := NewProfiler(32)
	p.grow(256) // tiny slot space: compact every few hundred accesses
	fa := cache.NewSetAssoc("fa64", 64*32, 32, 64)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20_000; i++ {
		a := uint64(rng.Intn(1 << 13))
		p.Access(a, trace.Load)
		fa.Access(a, trace.Load)
	}
	if got, want := p.MissCounter(64, trace.Load), fa.Stats().Load; got != want {
		t.Errorf("across compaction: profiler %+v, replay %+v", got, want)
	}
	if p.Footprint() == 0 {
		t.Error("footprint should be non-zero")
	}
}

// TestMissCounterPanicsOnBadCapacity documents the power-of-two
// contract.
func TestMissCounterPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two capacity")
		}
	}()
	NewProfiler(32).MissCounter(24, trace.Load)
}

// BenchmarkSetProfilerAccess feeds the Figure 7/8 grid uniform-random
// addresses. They give few MRU hits, so nearly every access scans every
// tracker: this is the input the scan's stop does not help.
func BenchmarkSetProfilerAccess(b *testing.B) {
	p := NewSetProfiler(32, fig78Geometries())
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(addrs[i&4095], trace.Load)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mref/s")
}

func BenchmarkProfilerAccess(b *testing.B) {
	p := NewProfiler(32)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(addrs[i&4095], trace.Load)
	}
}
