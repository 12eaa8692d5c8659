package workload

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/stackdist"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/vm"
)

// convLineSize and propLineSize are the paper's two line sizes:
// conventional caches use 32 B lines (core.Reference's L1 line), the
// proposed column-buffer caches 512 B lines (one DRAM column buffer,
// core.Proposed's D-cache line). The measurement sets derive their
// actual geometries from the devices they are built for; these named
// defaults remain for the grid documentation and the ablations.
const (
	convLineSize = 32
	propLineSize = 512
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
// pass. Instead of simulating one cache per grid point, it maintains
// four stack-distance set profilers (conventional-I, proposed-I,
// conventional-D, proposed-D) whose per-set LRU position histograms
// answer every set count × associativity in the grid exactly
// (internal/stackdist). Two organisations the profilers cannot express
// still replay: the victim cache (its contents depend on eviction
// order) and the L2 (it sees a conditional stream — only first-level
// misses). Runs of references to the same 32 B line — the common case
// for instruction fetches, at 8 instructions per line — collapse into
// MRU-hit counter bumps without touching any LRU state.
type CacheSet struct {
	counts trace.Counts

	iconv *stackdist.SetProfiler // conventional lines, ifetch stream
	iprop *stackdist.SetProfiler // column-buffer lines, ifetch stream
	dconv *stackdist.SetProfiler // conventional lines, data stream
	dprop *stackdist.SetProfiler // column-buffer lines, data stream
	vic   *cache.WithVictim      // replay fallback: eviction-order state (nil: no victim)
	l2    *cache.SetAssoc        // replay fallback: conditional stream (nil: no L2)

	ipSets uint64 // proposed I-cache geometry in the iprop profiler
	dpSets uint64 // proposed D-cache geometry in the dprop profiler
	dpWays int

	i16 int // iconv tracker index of the reference L1 geometry (512 sets)
	d16 int // dconv tracker index of the same

	convShift uint   // log2 of the conventional line size
	lastILine uint64 // previous ifetch conventional line + 1 (0 = none)
	lastDLine uint64 // previous load/store conventional line + 1 (0 = none)
}

// NewCacheSetFor builds the measurement set for an explicit device
// pair: prop supplies the column-buffer cache geometries (and victim
// cache), ref the conventional line size, the L1 grid point feeding the
// L2, and the L2 itself. The conventional size grids stay on the
// Figure 7/8 axes; ref's L1 sizes must lie on them.
func NewCacheSetFor(prop, ref core.Device) *CacheSet {
	convLine := uint64(ref.DCacheLineBytes)
	var ig []stackdist.Geometry
	for _, kb := range ConvISizesKB {
		ig = append(ig, stackdist.Geometry{Sets: uint64(kb) << 10 / convLine, Ways: 1})
	}
	var dg []stackdist.Geometry
	for _, kb := range ConvDSizesKB {
		dg = append(dg,
			stackdist.Geometry{Sets: uint64(kb) << 10 / convLine, Ways: 1},
			stackdist.Geometry{Sets: uint64(kb) << 10 / (2 * convLine), Ways: 2})
	}
	cs := &CacheSet{
		ipSets: uint64(prop.ICacheBytes / prop.ICacheLineBytes),
		dpSets: uint64(prop.DCacheBytes / (prop.DCacheWays * prop.DCacheLineBytes)),
		dpWays: prop.DCacheWays,
	}
	cs.iconv = stackdist.NewSetProfiler(convLine, ig)
	cs.iprop = stackdist.NewSetProfiler(uint64(prop.ICacheLineBytes),
		[]stackdist.Geometry{{Sets: cs.ipSets, Ways: 1}})
	cs.dconv = stackdist.NewSetProfiler(convLine, dg)
	cs.dprop = stackdist.NewSetProfiler(uint64(prop.DCacheLineBytes),
		[]stackdist.Geometry{{Sets: cs.dpSets, Ways: cs.dpWays}})
	if prop.VictimEntries > 0 {
		cs.vic = cache.NewWithVictim(
			cache.NewSetAssoc("prop D + victim main", uint64(prop.DCacheBytes),
				uint64(prop.DCacheLineBytes), prop.DCacheWays),
			cache.NewVictim(prop.VictimEntries, uint64(prop.VictimLineBytes)))
	}
	if ref.L2Bytes > 0 {
		cs.l2 = cache.NewSetAssoc(
			fmt.Sprintf("%dKB %d-way %dB unified L2", ref.L2Bytes>>10, ref.L2Ways, ref.L2LineBytes),
			uint64(ref.L2Bytes), uint64(ref.L2LineBytes), ref.L2Ways)
	}
	cs.convShift = uint(bits.TrailingZeros64(convLine))
	cs.i16 = cs.iconv.TrackerIndex(uint64(ref.ICacheBytes) / convLine)
	cs.d16 = cs.dconv.TrackerIndex(uint64(ref.DCacheBytes) / convLine)
	return cs
}

// Ref implements trace.Sink: one reference drives every measurement.
func (cs *CacheSet) Ref(r trace.Ref) {
	line := r.Addr >> cs.convShift
	if r.Kind == trace.Ifetch {
		cs.counts.Ifetches++
		if line+1 == cs.lastILine {
			// Same line as the previous fetch: an MRU hit in every
			// tracked I-geometry (both line sizes), and necessarily a
			// 16 KB first-level hit, so the L2 never sees it.
			cs.iconv.AddRepeats(trace.Ifetch, 1)
			cs.iprop.AddRepeats(trace.Ifetch, 1)
			return
		}
		cs.lastILine = line + 1
		cs.iconv.Access(r.Addr, trace.Ifetch)
		cs.iprop.Access(r.Addr, trace.Ifetch)
		// The reference system's L2 sees 16 KB first-level I misses:
		// the DM 16 KB cache hit iff the access hit at LRU position 0.
		if cs.l2 != nil && cs.iconv.Pos[cs.i16] != 0 {
			cs.l2.Access(r.Addr, trace.Ifetch)
		}
		return
	}
	cs.counts.Ref(r)
	// The victim-cache organisation replays every data reference: its
	// contents depend on main-cache eviction order and sub-block
	// recency, which no stack-distance histogram captures.
	if cs.vic != nil {
		cs.vic.Access(r.Addr, r.Kind)
	}
	if line+1 == cs.lastDLine {
		cs.dconv.AddRepeats(r.Kind, 1)
		cs.dprop.AddRepeats(r.Kind, 1)
		return
	}
	cs.lastDLine = line + 1
	cs.dconv.Access(r.Addr, r.Kind)
	cs.dprop.Access(r.Addr, r.Kind)
	if cs.l2 != nil && cs.dconv.Pos[cs.d16] != 0 {
		cs.l2.Access(r.Addr, r.Kind)
	}
}

// Refs implements trace.BatchSink.
func (cs *CacheSet) Refs(rs []trace.Ref) {
	for i := range rs {
		cs.Ref(rs[i])
	}
}

// RefCounts implements CacheMeasurer.
func (cs *CacheSet) RefCounts() trace.Counts { return cs.counts }

// setStats assembles per-kind miss statistics for one geometry.
func setStats(p *stackdist.SetProfiler, sets uint64, ways int) cache.Stats {
	return cache.Stats{
		Ifetch: p.MissCounter(sets, ways, trace.Ifetch),
		Load:   p.MissCounter(sets, ways, trace.Load),
		Store:  p.MissCounter(sets, ways, trace.Store),
	}
}

// PropIStats implements CacheMeasurer.
func (cs *CacheSet) PropIStats() cache.Stats { return setStats(cs.iprop, cs.ipSets, 1) }

// PropDStats implements CacheMeasurer.
func (cs *CacheSet) PropDStats() cache.Stats { return setStats(cs.dprop, cs.dpSets, cs.dpWays) }

// PropDVictimStats implements CacheMeasurer. Without a victim cache it
// is simply the D-cache.
func (cs *CacheSet) PropDVictimStats() cache.Stats {
	if cs.vic == nil {
		return cs.PropDStats()
	}
	return cs.vic.Stats()
}

// ConvIStats implements CacheMeasurer.
func (cs *CacheSet) ConvIStats(kb int) cache.Stats {
	return setStats(cs.iconv, uint64(kb)<<10/convLineSize, 1)
}

// ConvDMStats implements CacheMeasurer.
func (cs *CacheSet) ConvDMStats(kb int) cache.Stats {
	return setStats(cs.dconv, uint64(kb)<<10/convLineSize, 1)
}

// Conv2WStats implements CacheMeasurer.
func (cs *CacheSet) Conv2WStats(kb int) cache.Stats {
	return setStats(cs.dconv, uint64(kb)<<10/(2*convLineSize), 2)
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
