package workload

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/cache"
	"repro/internal/stackdist"
	"repro/internal/trace"
)

// FamilyPoint is one integrated-device geometry inside a column-size
// family: the three axes that vary at a fixed column (= cache line)
// size. Banks is simultaneously the DRAM bank count and the set count
// of both column-buffer caches (I-cache: banks × column direct-mapped;
// D-cache: ways × banks × column); VictimEntries of 0 means no victim
// cache.
type FamilyPoint struct {
	Banks, Ways, VictimEntries int
}

// FamilyCacheSet measures every point of one column-size family in a
// single pass over a reference stream. The column size is the profiler
// line size, so all bank counts collapse into set-count trackers of one
// stack-distance profiler per stream (inclusion over associativity
// answers every ways value sharing a bank count), and N = |banks| ×
// |ways| × |victims| design points cost one trace pass instead of N.
//
// Victim-bearing points are the exception: a victim cache's contents
// depend on main-cache eviction order and sub-block recency (and a
// victim hit deliberately does not refill the main cache, so the main
// cache diverges from pure LRU), which no histogram captures. Each
// distinct (banks, ways, victim) combination therefore keeps a
// cache.WithVictim compound replayed in the same pass — fed every data
// reference, exactly as CacheSet feeds its single victim compound — so
// family results stay bit-identical to the per-point path. The victim
// axis multiplies in-pass replay work, not trace passes.
//
// Runs of references to the same column line collapse into pending
// repeat counters flushed on line change: per the stack-distance
// inclusion argument a same-line re-reference is an MRU hit in every
// tracker with no LRU movement, so batching changes no histogram.
type FamilyCacheSet struct {
	column   uint64
	colShift uint
	counts   trace.Counts

	iprof *stackdist.SetProfiler // ifetch stream: {sets: banks, ways: 1}
	dprof *stackdist.SetProfiler // data stream: {sets: banks, ways}

	vics   []*cache.WithVictim
	vicIdx map[FamilyPoint]int

	lastILine uint64 // previous ifetch column line + 1 (0 = none)
	lastDLine uint64 // previous load/store column line + 1 (0 = none)
	iPend     int64
	dPend     [3]int64 // pending data repeats indexed by trace.Kind
}

// NewFamilyCacheSet builds the single-pass measurement state for one
// column size covering every given point. Points must describe valid
// device geometries (positive banks/ways; VictimEntries evenly dividing
// columnBytes) — the design-space search filters through
// core.Device.Validate before building families.
func NewFamilyCacheSet(columnBytes int, points []FamilyPoint) *FamilyCacheSet {
	col := uint64(columnBytes)
	if col == 0 || col&(col-1) != 0 {
		panic(fmt.Sprintf("workload: column size %d not a power of two", columnBytes))
	}
	f := &FamilyCacheSet{
		column:   col,
		colShift: uint(bits.TrailingZeros64(col)),
		vicIdx:   make(map[FamilyPoint]int),
	}

	var ig, dg []stackdist.Geometry
	seenBanks := map[int]bool{}
	for _, p := range points {
		if p.Banks < 1 || p.Ways < 1 {
			panic(fmt.Sprintf("workload: invalid family point %+v", p))
		}
		if !seenBanks[p.Banks] {
			seenBanks[p.Banks] = true
			ig = append(ig, stackdist.Geometry{Sets: uint64(p.Banks), Ways: 1})
		}
		dg = append(dg, stackdist.Geometry{Sets: uint64(p.Banks), Ways: p.Ways})
	}
	f.iprof = stackdist.NewSetProfiler(col, ig)
	f.dprof = stackdist.NewSetProfiler(col, dg)

	// In-pass victim compounds, deduplicated and built in sorted order
	// so the construction (and any iteration over f.vics) is
	// deterministic regardless of the caller's point order.
	var vicPts []FamilyPoint
	for _, p := range points {
		if p.VictimEntries <= 0 {
			continue
		}
		key := FamilyPoint{Banks: p.Banks, Ways: p.Ways, VictimEntries: p.VictimEntries}
		if _, ok := f.vicIdx[key]; ok {
			continue
		}
		f.vicIdx[key] = -1 // placeholder until sorted
		vicPts = append(vicPts, key)
	}
	sort.Slice(vicPts, func(i, j int) bool {
		a, b := vicPts[i], vicPts[j]
		if a.Banks != b.Banks {
			return a.Banks < b.Banks
		}
		if a.Ways != b.Ways {
			return a.Ways < b.Ways
		}
		return a.VictimEntries < b.VictimEntries
	})
	for _, p := range vicPts {
		if columnBytes%p.VictimEntries != 0 {
			panic(fmt.Sprintf("workload: victim entries %d do not divide column %d", p.VictimEntries, columnBytes))
		}
		f.vicIdx[p] = len(f.vics)
		f.vics = append(f.vics, cache.NewWithVictim(
			cache.NewSetAssoc("family D + victim main",
				uint64(p.Ways*p.Banks*columnBytes), col, p.Ways),
			cache.NewVictim(p.VictimEntries, col/uint64(p.VictimEntries))))
	}
	return f
}

// Compounds reports the number of in-pass victim replays.
func (f *FamilyCacheSet) Compounds() int { return len(f.vics) }

func (f *FamilyCacheSet) flushI() {
	if f.iPend > 0 {
		f.iprof.AddRepeats(trace.Ifetch, f.iPend)
		f.iPend = 0
	}
}

func (f *FamilyCacheSet) flushD() {
	for k := range f.dPend {
		if f.dPend[k] > 0 {
			f.dprof.AddRepeats(trace.Kind(k), f.dPend[k])
			f.dPend[k] = 0
		}
	}
}

// Ref implements trace.Sink.
func (f *FamilyCacheSet) Ref(r trace.Ref) {
	line := r.Addr >> f.colShift
	if r.Kind == trace.Ifetch {
		f.counts.Ifetches++
		if line+1 == f.lastILine {
			f.iPend++
			return
		}
		f.flushI()
		f.lastILine = line + 1
		f.iprof.Access(r.Addr, trace.Ifetch)
		return
	}
	f.counts.Ref(r)
	// Victim compounds replay every data reference (matching CacheSet,
	// which feeds its compound before any run-collapse check): a repeat
	// after a victim hit is not a main-cache MRU hit, so compounds
	// cannot share the run collapse.
	for _, v := range f.vics {
		v.Access(r.Addr, r.Kind)
	}
	if line+1 == f.lastDLine {
		f.dPend[r.Kind]++
		return
	}
	f.flushD()
	f.lastDLine = line + 1
	f.dprof.Access(r.Addr, r.Kind)
}

// Refs implements trace.BatchSink.
func (f *FamilyCacheSet) Refs(rs []trace.Ref) {
	for i := range rs {
		f.Ref(rs[i])
	}
}

// RefCounts tallies the reference stream by kind.
func (f *FamilyCacheSet) RefCounts() trace.Counts { return f.counts }

// IStats returns the direct-mapped column-buffer I-cache statistics for
// the given bank count.
func (f *FamilyCacheSet) IStats(banks int) cache.Stats {
	f.flushI()
	return setStats(f.iprof, uint64(banks), 1)
}

// DStats returns the victimless column-buffer D-cache statistics for
// the given bank count and associativity.
func (f *FamilyCacheSet) DStats(banks, ways int) cache.Stats {
	f.flushD()
	return setStats(f.dprof, uint64(banks), ways)
}

// DVictimStats returns the D-cache-plus-victim statistics for a
// victim-bearing point; for VictimEntries == 0 it is DStats.
func (f *FamilyCacheSet) DVictimStats(p FamilyPoint) cache.Stats {
	if p.VictimEntries <= 0 {
		return f.DStats(p.Banks, p.Ways)
	}
	i, ok := f.vicIdx[p]
	if !ok {
		panic(fmt.Sprintf("workload: family point %+v has no victim compound", p))
	}
	return f.vics[i].Stats()
}
