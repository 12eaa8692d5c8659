package workload

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/trace"
)

// ReplayCacheSet is the original measurement path: one simulated cache
// per configuration, every reference replayed through all of them. It
// is the oracle CacheSet is verified against (TestFastMatchesReplay),
// and the template for organisations outside the profiled grid.
type ReplayCacheSet struct {
	// Proposed organisation.
	PropI       *cache.SetAssoc   // 8 KB DM, 512 B lines (column buffers)
	PropD       *cache.SetAssoc   // 16 KB 2-way, 512 B lines, no victim
	PropDVictim *cache.WithVictim // same + 16×32 B victim cache

	// Conventional I-caches, direct-mapped, 32 B lines (Figure 7 bars).
	ConvI map[int]*cache.SetAssoc // size KB -> cache

	// Conventional D-caches, 32 B lines (Figure 8 bars).
	ConvD1 map[int]*cache.SetAssoc // direct-mapped, size KB -> cache
	ConvD2 map[int]*cache.SetAssoc // 2-way, size KB -> cache

	// Reference-system second-level cache (unified, 2-way, 32 B lines,
	// 256 KB): sees only first-level misses from the 16 KB ConvI/ConvD1
	// pair, exactly as in the Figure 10 grey components.
	L2 *cache.SetAssoc

	Counts trace.Counts

	refKB int // the L1 grid point whose misses feed the L2
}

// NewReplayCacheSet builds fresh caches for one replay measurement run
// of the paper's configurations.
func NewReplayCacheSet() *ReplayCacheSet {
	return NewReplayCacheSetFor(core.Proposed(), core.Reference())
}

// NewReplayCacheSetFor is NewCacheSetFor's replay-path counterpart.
func NewReplayCacheSetFor(prop, ref core.Device) *ReplayCacheSet {
	convLine := uint64(ref.DCacheLineBytes)
	cs := &ReplayCacheSet{
		PropI: cache.NewSetAssoc(
			fmt.Sprintf("prop %dKB DM %dB I", prop.ICacheBytes>>10, prop.ICacheLineBytes),
			uint64(prop.ICacheBytes), uint64(prop.ICacheLineBytes), 1),
		PropD: cache.NewSetAssoc(
			fmt.Sprintf("prop %dKB %d-way %dB D", prop.DCacheBytes>>10, prop.DCacheWays, prop.DCacheLineBytes),
			uint64(prop.DCacheBytes), uint64(prop.DCacheLineBytes), prop.DCacheWays),
		ConvI:  make(map[int]*cache.SetAssoc),
		ConvD1: make(map[int]*cache.SetAssoc),
		ConvD2: make(map[int]*cache.SetAssoc),
		refKB:  ref.ICacheBytes >> 10,
	}
	if prop.VictimEntries > 0 {
		cs.PropDVictim = cache.NewWithVictim(
			cache.NewSetAssoc("prop D + victim main", uint64(prop.DCacheBytes),
				uint64(prop.DCacheLineBytes), prop.DCacheWays),
			cache.NewVictim(prop.VictimEntries, uint64(prop.VictimLineBytes)))
	}
	if ref.L2Bytes > 0 {
		cs.L2 = cache.NewSetAssoc(
			fmt.Sprintf("%dKB %d-way %dB unified L2", ref.L2Bytes>>10, ref.L2Ways, ref.L2LineBytes),
			uint64(ref.L2Bytes), uint64(ref.L2LineBytes), ref.L2Ways)
	}
	for _, kb := range ConvISizesKB {
		cs.ConvI[kb] = cache.NewDirectMapped(
			fmt.Sprintf("%dKB DM 32B I", kb), uint64(kb)<<10, convLine)
	}
	for _, kb := range ConvDSizesKB {
		cs.ConvD1[kb] = cache.NewDirectMapped(
			fmt.Sprintf("%dKB DM 32B D", kb), uint64(kb)<<10, convLine)
		cs.ConvD2[kb] = cache.NewSetAssoc(
			fmt.Sprintf("%dKB 2-way 32B D", kb), uint64(kb)<<10, convLine, 2)
	}
	return cs
}

// Ref implements trace.Sink: one reference drives every cache model.
func (cs *ReplayCacheSet) Ref(r trace.Ref) {
	cs.Counts.Ref(r)
	if r.Kind == trace.Ifetch {
		cs.PropI.Access(r.Addr, r.Kind)
		hit16 := false
		for kb, c := range cs.ConvI {
			if c.Access(r.Addr, r.Kind) && kb == cs.refKB {
				hit16 = true
			}
		}
		// The reference system's L2 sees first-level I misses.
		if cs.L2 != nil && !hit16 {
			cs.L2.Access(r.Addr, r.Kind)
		}
		return
	}
	cs.PropD.Access(r.Addr, r.Kind)
	if cs.PropDVictim != nil {
		cs.PropDVictim.Access(r.Addr, r.Kind)
	}
	hit16 := false
	for kb, c := range cs.ConvD1 {
		if c.Access(r.Addr, r.Kind) && kb == cs.refKB {
			hit16 = true
		}
	}
	for _, c := range cs.ConvD2 {
		c.Access(r.Addr, r.Kind)
	}
	if cs.L2 != nil && !hit16 {
		cs.L2.Access(r.Addr, r.Kind)
	}
}

// Refs implements trace.BatchSink.
func (cs *ReplayCacheSet) Refs(rs []trace.Ref) {
	for i := range rs {
		cs.Ref(rs[i])
	}
}

// RefCounts implements CacheMeasurer.
func (cs *ReplayCacheSet) RefCounts() trace.Counts { return cs.Counts }

// PropIStats implements CacheMeasurer.
func (cs *ReplayCacheSet) PropIStats() cache.Stats { return cs.PropI.Stats() }

// PropDStats implements CacheMeasurer.
func (cs *ReplayCacheSet) PropDStats() cache.Stats { return cs.PropD.Stats() }

// PropDVictimStats implements CacheMeasurer.
func (cs *ReplayCacheSet) PropDVictimStats() cache.Stats {
	if cs.PropDVictim == nil {
		return cs.PropD.Stats()
	}
	return cs.PropDVictim.Stats()
}

// ConvIStats implements CacheMeasurer.
func (cs *ReplayCacheSet) ConvIStats(kb int) cache.Stats { return cs.ConvI[kb].Stats() }

// ConvDMStats implements CacheMeasurer.
func (cs *ReplayCacheSet) ConvDMStats(kb int) cache.Stats { return cs.ConvD1[kb].Stats() }

// Conv2WStats implements CacheMeasurer.
func (cs *ReplayCacheSet) Conv2WStats(kb int) cache.Stats { return cs.ConvD2[kb].Stats() }

// L2Stats implements CacheMeasurer.
func (cs *ReplayCacheSet) L2Stats() cache.Stats {
	if cs.L2 == nil {
		return cache.Stats{}
	}
	return cs.L2.Stats()
}
