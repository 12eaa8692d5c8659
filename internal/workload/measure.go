package workload

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/stackdist"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/vm"
)

// RefL1KB is the reference system's first-level cache size in KB
// (core.Reference().ICacheBytes >> 10): the grid point whose misses
// feed the L2 and whose rates parameterise the reference GSPN.
const RefL1KB = 16

// ConvISizesKB and ConvDSizesKB are the conventional cache sizes
// plotted in Figures 7 and 8, in ascending order (iterate these — not a
// map — when deterministic output order matters).
var (
	ConvISizesKB = []int{8, 16, 32, 64}
	ConvDSizesKB = []int{8, 16, 32, 64, 128, 256}
)

// CacheMeasurer is what one simulation pass of a workload produces:
// miss statistics for every cache organisation in the Figure 7/8 grids,
// the proposed column-buffer caches of Tables 3/4, and the reference
// system's L2. CacheSet, the single-pass stack-distance profiler, is
// the implementation; the tests hold a second, ReplayCacheSet (one
// simulated cache per configuration), as the oracle it must match
// exactly (see TestFastMatchesReplay).
type CacheMeasurer interface {
	trace.Sink
	// RefCounts tallies the reference stream by kind.
	RefCounts() trace.Counts
	// PropIStats is the proposed 8 KB DM 512 B I-cache.
	PropIStats() cache.Stats
	// PropDStats is the proposed 16 KB 2-way 512 B D-cache, no victim.
	PropDStats() cache.Stats
	// PropDVictimStats is the proposed D-cache plus 16×32 B victim.
	PropDVictimStats() cache.Stats
	// ConvIStats is the conventional DM 32 B I-cache of the given size.
	ConvIStats(kb int) cache.Stats
	// ConvDMStats is the conventional DM 32 B D-cache of the given size.
	ConvDMStats(kb int) cache.Stats
	// Conv2WStats is the conventional 2-way 32 B D-cache of the given size.
	Conv2WStats(kb int) cache.Stats
	// L2Stats is the reference system's 256 KB 2-way unified L2, which
	// sees only misses from the 16 KB first-level pair.
	L2Stats() cache.Stats
}

// CacheSet measures every Figure 7/8 configuration in a single profiled
// pass. Instead of simulating one cache per grid point, it profiles the
// stream at two line sizes (internal/stackdist), each answering every
// set count × associativity registered at it exactly: the device's
// column-buffer caches are its one-point FamilyCacheSet at the column
// size (victim compound included), and the conventional Figure 7
// I-caches and Figure 8 D-caches share one lineSet at the reference
// line size. The reference system's L2 still replays: it sees a
// conditional stream (only first-level misses), fed whenever a
// conventional reference misses the 16 KB first-level geometry.
type CacheSet struct {
	prop  FamilyCacheSet  // the device's point at its column size
	point FamilyPoint     // that point
	conv  lineSet         // conventional line size: Figure 7/8 grids
	l2    *cache.SetAssoc // replay fallback: conditional stream (nil: no L2)

	i16 int // conv.iprof tracker index of the reference L1 geometry
	d16 int // conv.dprof tracker index of the same
}

// NewCacheSetFor builds the measurement set for an explicit device
// pair: prop supplies the column-buffer cache geometries (and victim
// cache), ref the conventional line size, the L1 grid point feeding the
// L2, and the L2 itself. The conventional size grids stay on the
// Figure 7/8 axes; ref's L1 sizes must lie on them.
func NewCacheSetFor(prop, ref core.Device) *CacheSet {
	cs := &CacheSet{}
	// The device's D-cache sets are its banks; on an integrated device
	// the I-cache is one column buffer per bank (core.Device.Validate).
	col := prop.DCacheLineBytes
	cs.point = FamilyPoint{
		Banks:         prop.DCacheBytes / (prop.DCacheWays * col),
		Ways:          prop.DCacheWays,
		VictimEntries: prop.VictimEntries,
	}
	cs.prop.init(col, []FamilyPoint{cs.point})

	convLine := uint64(ref.DCacheLineBytes)
	ig := make([]stackdist.Geometry, 0, len(ConvISizesKB))
	for _, kb := range ConvISizesKB {
		ig = append(ig, stackdist.Geometry{Sets: uint64(kb) << 10 / convLine, Ways: 1})
	}
	dg := make([]stackdist.Geometry, 0, 2*len(ConvDSizesKB))
	for _, kb := range ConvDSizesKB {
		dg = append(dg,
			stackdist.Geometry{Sets: uint64(kb) << 10 / convLine, Ways: 1},
			stackdist.Geometry{Sets: uint64(kb) << 10 / (2 * convLine), Ways: 2})
	}
	cs.conv.init(ref.DCacheLineBytes, ig, dg)
	cs.i16 = cs.conv.iprof.TrackerIndex(uint64(ref.ICacheBytes) / convLine)
	cs.d16 = cs.conv.dprof.TrackerIndex(uint64(ref.DCacheBytes) / convLine)
	if ref.L2Bytes > 0 {
		cs.l2 = cache.NewSetAssoc(
			fmt.Sprintf("%dKB %d-way %dB unified L2", ref.L2Bytes>>10, ref.L2Ways, ref.L2LineBytes),
			uint64(ref.L2Bytes), uint64(ref.L2LineBytes), ref.L2Ways)
	}
	return cs
}

// Ref implements trace.Sink: one reference drives every measurement.
func (cs *CacheSet) Ref(r trace.Ref) {
	cs.prop.ref(r)
	if !cs.conv.ref(r) || cs.l2 == nil {
		return
	}
	// The reference system's L2 sees the 16 KB first-level misses: the
	// first-level cache hit iff the access hit at LRU position 0 (a
	// same-line repeat always hits, so only line changes can miss).
	pos := cs.conv.dprof.Pos(cs.d16)
	if r.Kind == trace.Ifetch {
		pos = cs.conv.iprof.Pos(cs.i16)
	}
	if pos != 0 {
		cs.l2.Access(r.Addr, r.Kind)
	}
}

// Refs implements trace.BatchSink. An instruction fetch that repeats
// its line at both line sizes hits every I-cache and never reaches the
// L2, so it only bumps the two repeat counters.
func (cs *CacheSet) Refs(rs []trace.Ref) {
	for i := range rs {
		if rs[i].Kind == trace.Ifetch && cs.conv.iRepeat(rs[i].Addr) && cs.prop.iRepeat(rs[i].Addr) {
			cs.conv.repeats[trace.Ifetch]++
			cs.prop.repeats[trace.Ifetch]++
			continue
		}
		cs.Ref(rs[i])
	}
}

// RefCounts implements CacheMeasurer.
func (cs *CacheSet) RefCounts() trace.Counts { return cs.conv.refCounts() }

// PropIStats implements CacheMeasurer.
func (cs *CacheSet) PropIStats() cache.Stats { return cs.prop.IStats(cs.point.Banks) }

// PropDStats implements CacheMeasurer.
func (cs *CacheSet) PropDStats() cache.Stats { return cs.prop.DStats(cs.point.Banks, cs.point.Ways) }

// PropDVictimStats implements CacheMeasurer. Without a victim cache it
// is simply the D-cache.
func (cs *CacheSet) PropDVictimStats() cache.Stats { return cs.prop.DVictimStats(cs.point) }

// ConvIStats implements CacheMeasurer.
func (cs *CacheSet) ConvIStats(kb int) cache.Stats {
	return cs.conv.iStats(uint64(kb) << 10 >> cs.conv.shift)
}

// ConvDMStats implements CacheMeasurer.
func (cs *CacheSet) ConvDMStats(kb int) cache.Stats {
	return cs.conv.dStats(uint64(kb)<<10>>cs.conv.shift, 1)
}

// Conv2WStats implements CacheMeasurer.
func (cs *CacheSet) Conv2WStats(kb int) cache.Stats {
	return cs.conv.dStats(uint64(kb)<<10>>(cs.conv.shift+1), 2)
}

// L2Stats implements CacheMeasurer.
func (cs *CacheSet) L2Stats() cache.Stats {
	if cs.l2 == nil {
		return cache.Stats{}
	}
	return cs.l2.Stats()
}

// Source produces a workload's reference stream. The two
// implementations are Live (build the program and execute it on the
// functional simulator — the default) and Traced (replay a recorded
// stream from a tracestore.Store, recording it on first use). Every
// measurement path is written against this interface, so swapping the
// expensive generator for a cached trace is invisible to the cache
// models: both sources deliver byte-for-byte the same stream in the
// same batch granularity.
type Source interface {
	// Stream delivers the workload's reference stream for the given
	// instruction budget (<= 0 means the workload's default) into sink,
	// returning the number of instructions executed.
	Stream(w Workload, budget int64, sink trace.Sink) (int64, error)
}

// Live executes the workload program on the VM: the generate-every-time
// path.
type Live struct{}

// Stream implements Source.
func (Live) Stream(w Workload, budget int64, sink trace.Sink) (int64, error) {
	if budget <= 0 {
		budget = w.Budget
	}
	cpu, err := vm.RunProgram(w.Build(), sink, budget)
	if err != nil {
		return 0, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return cpu.Instructions, nil
}

// Traced serves reference streams from a tracestore.Store: a cached trace
// replays (allocation-free, no VM execution); a missing or corrupt
// entry is generated live and recorded in the same pass, so later runs
// replay. With Force set every stream re-records, refreshing the cache.
type Traced struct {
	Store *tracestore.Store
	// Seed participates in the cache key alongside the workload name and
	// budget (workload generation is deterministic, but the key is
	// deliberately conservative).
	Seed int64
	// Force re-records even when a valid entry exists (iramsim -record).
	Force bool
}

// Stream implements Source. The instruction count equals the stream's
// ifetch tally: the VM emits exactly one ifetch per retired
// instruction, so a replayed measurement reports the same Instr a live
// one would.
func (t Traced) Stream(w Workload, budget int64, sink trace.Sink) (int64, error) {
	if budget <= 0 {
		budget = w.Budget
	}
	k := tracestore.Key{Workload: w.Name, Budget: budget, Seed: t.Seed}
	gen := func(s trace.Sink) error {
		_, err := vm.RunProgram(w.Build(), s, budget)
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
		return nil
	}
	var counts trace.Counts
	var err error
	if t.Force {
		counts, err = t.Store.Record(k, gen, sink)
	} else {
		counts, _, err = t.Store.Fetch(k, gen, sink)
	}
	if err != nil {
		return counts.Ifetches, err
	}
	return counts.Ifetches, nil
}

// Measurement is the distilled result of one workload run: Caches after
// a Source streamed the workload into it, and the instruction count the
// Source returned.
type Measurement struct {
	Workload Workload
	Caches   CacheMeasurer
	Instr    int64
}

// Rates converts the measurement into GSPN inputs for the given system.
// For the integrated system, withVictim selects whether the data-cache
// hit probability includes the victim cache (Table 4) or not (Table 3).
func (m *Measurement) Rates(integrated, withVictim bool) cpumodel.AppRates {
	cs, w := m.Caches, m.Workload
	if integrated {
		d := cs.PropDStats()
		if withVictim {
			d = cs.PropDVictimStats()
		}
		return firstLevelRates(w.Name, w.BaseCPI, cs.RefCounts(), cs.PropIStats(), d)
	}
	// Reference system: 16 KB first-level caches + measured conditional
	// L2 hit rates.
	app := firstLevelRates(w.Name, w.BaseCPI, cs.RefCounts(), cs.ConvIStats(RefL1KB), cs.ConvDMStats(RefL1KB))
	l2 := cs.L2Stats()
	app.IL2Hit = 1 - l2.Ifetch.Rate()
	app.LoadL2Hit = 1 - l2.Load.Rate()
	app.StoreL2Hit = 1 - l2.Store.Rate()
	return app
}

// firstLevelRates builds the GSPN inputs every system shares: the
// reference mix and the first-level hit rates, i for instruction
// fetches and d for loads and stores. Measurement.Rates and
// FamilySummary.Rates both start here, so a family point and the
// equivalent single-device measurement feed the GSPN identical bits.
func firstLevelRates(name string, baseCPI float64, counts trace.Counts, i, d cache.Stats) cpumodel.AppRates {
	app := cpumodel.AppRates{
		Name:      name,
		BaseCPI:   baseCPI,
		LoadFrac:  counts.LoadFrac(),
		StoreFrac: counts.StoreFrac(),
		IHit:      1 - i.Ifetch.Rate(),
		LoadHit:   1 - d.Load.Rate(),
		StoreHit:  1 - d.Store.Rate(),
	}
	if app.BaseCPI < 1 {
		app.BaseCPI = 1
	}
	return app
}
