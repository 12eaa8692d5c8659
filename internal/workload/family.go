package workload

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

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

// comparePoints orders points by banks, then ways, then victim entries.
func comparePoints(a, b FamilyPoint) int {
	if c := cmp.Compare(a.Banks, b.Banks); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Ways, b.Ways); c != 0 {
		return c
	}
	return cmp.Compare(a.VictimEntries, b.VictimEntries)
}

// lineSet profiles a reference stream at one line size: one
// stack-distance set profiler for the ifetch stream and one for the
// data stream, plus the victim-cache compounds replayed in the same
// pass. Every profiled measurement is a lineSet: FamilyCacheSet is one
// at the column size, and CacheSet adds one at the conventional line
// size.
//
// Runs of references to the same line collapse into repeat counters
// that never touch the profilers: a same-line re-reference is an MRU
// hit in every tracker with no LRU movement, so statistics count each
// one as a hit at read time. Reading leaves the set unchanged, so
// finished measurements can be read from several goroutines.
type lineSet struct {
	shift uint
	iprof *stackdist.SetProfiler
	dprof *stackdist.SetProfiler
	isets uint64 // a set count iprof tracks: where refCounts reads totals
	dsets uint64 // the same for dprof

	// vics replay every data reference: a victim cache's contents
	// depend on main-cache eviction order and sub-block recency (and a
	// victim hit deliberately does not refill the main cache, so the
	// main cache diverges from pure LRU), which no histogram captures.
	vics []*cache.WithVictim

	lastILine uint64   // previous ifetch line + 1 (0 = none)
	lastDLine uint64   // previous load/store line + 1 (0 = none)
	repeats   [3]int64 // same-line repeats indexed by trace.Kind
}

// init sets up the profilers for the given line size, which must be a
// power of two, over the I- and D-geometries.
func (s *lineSet) init(lineBytes int, ig, dg []stackdist.Geometry) {
	line := uint64(lineBytes)
	if line == 0 || line&(line-1) != 0 {
		panic(fmt.Sprintf("workload: line size %d not a power of two", lineBytes))
	}
	s.shift = uint(bits.TrailingZeros64(line))
	s.iprof = stackdist.NewSetProfiler(line, ig)
	s.dprof = stackdist.NewSetProfiler(line, dg)
	s.isets, s.dsets = ig[0].Sets, dg[0].Sets
}

// iRepeat reports whether an instruction fetch at addr repeats the
// previous fetch's line. Most fetches do, so the Refs loops test this
// before any call.
func (s *lineSet) iRepeat(addr uint64) bool { return addr>>s.shift+1 == s.lastILine }

// ref feeds one reference and reports whether it reached the profilers
// (a line change), leaving their Pos valid for it; a repeat of the
// previous line only bumps a counter.
func (s *lineSet) ref(r trace.Ref) bool {
	line := r.Addr>>s.shift + 1
	if r.Kind == trace.Ifetch {
		if line == s.lastILine {
			s.repeats[trace.Ifetch]++
			return false
		}
		s.lastILine = line
		s.iprof.Access(r.Addr, trace.Ifetch)
		return true
	}
	// The compounds see every data reference, repeats included: a
	// repeat after a victim hit is not a main-cache MRU hit.
	for _, v := range s.vics {
		v.Access(r.Addr, r.Kind)
	}
	if line == s.lastDLine {
		s.repeats[r.Kind]++
		return false
	}
	s.lastDLine = line
	s.dprof.Access(r.Addr, r.Kind)
	return true
}

// refCounts tallies the stream by kind from each profiler's totals
// and the repeats it never saw.
func (s *lineSet) refCounts() trace.Counts {
	d := s.dStats(s.dsets, 1)
	return trace.Counts{Ifetches: s.iStats(s.isets).Ifetch.Total, Loads: d.Load.Total, Stores: d.Store.Total}
}

// iStats returns the direct-mapped I-cache statistics at the given set
// count.
func (s *lineSet) iStats(sets uint64) cache.Stats {
	st := setStats(s.iprof, sets, 1)
	st.Ifetch.Total += s.repeats[trace.Ifetch]
	return st
}

// dStats returns the D-cache statistics at the given set count and
// associativity.
func (s *lineSet) dStats(sets uint64, ways int) cache.Stats {
	st := setStats(s.dprof, sets, ways)
	st.Load.Total += s.repeats[trace.Load]
	st.Store.Total += s.repeats[trace.Store]
	return st
}

// setStats assembles per-kind miss statistics for one geometry.
func setStats(p *stackdist.SetProfiler, sets uint64, ways int) cache.Stats {
	return cache.Stats{
		Ifetch: p.MissCounter(sets, ways, trace.Ifetch),
		Load:   p.MissCounter(sets, ways, trace.Load),
		Store:  p.MissCounter(sets, ways, trace.Store),
	}
}

// FamilyCacheSet measures every point of one column-size family in a
// single pass over a reference stream. The column size is the profiler
// line size, so all bank counts collapse into set-count trackers of one
// stack-distance profiler per stream (inclusion over associativity
// answers every ways value sharing a bank count), and N = |banks| ×
// |ways| × |victims| design points cost one trace pass instead of N.
//
// Victim-bearing points are the exception: each distinct (banks, ways,
// victim) combination keeps a cache.WithVictim compound replayed in
// the same pass, so the victim axis multiplies in-pass replay work,
// not trace passes.
type FamilyCacheSet struct {
	lineSet
	vicPts []FamilyPoint // sorted; vicPts[i] is the point of vics[i]
}

// NewFamilyCacheSet builds the single-pass measurement state for one
// column size covering every given point. Points must describe valid
// device geometries (positive banks/ways; VictimEntries evenly dividing
// columnBytes) — the design-space search filters through
// core.Device.Validate before building families.
func NewFamilyCacheSet(columnBytes int, points []FamilyPoint) *FamilyCacheSet {
	f := new(FamilyCacheSet)
	f.init(columnBytes, points)
	return f
}

// init builds f in place (CacheSet embeds its one-point family).
func (f *FamilyCacheSet) init(columnBytes int, points []FamilyPoint) {
	ig := make([]stackdist.Geometry, 0, len(points))
	dg := make([]stackdist.Geometry, 0, len(points))
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
	f.lineSet.init(columnBytes, ig, dg)

	// In-pass victim compounds, deduplicated and built in sorted order
	// so the construction is deterministic regardless of the caller's
	// point order.
	f.vicPts = slices.DeleteFunc(slices.Clone(points), func(p FamilyPoint) bool { return p.VictimEntries <= 0 })
	slices.SortFunc(f.vicPts, comparePoints)
	f.vicPts = slices.Compact(f.vicPts)
	col := uint64(columnBytes)
	f.vics = make([]*cache.WithVictim, len(f.vicPts))
	for i, p := range f.vicPts {
		if columnBytes%p.VictimEntries != 0 {
			panic(fmt.Sprintf("workload: victim entries %d do not divide column %d", p.VictimEntries, columnBytes))
		}
		f.vics[i] = cache.NewWithVictim(
			cache.NewSetAssoc("family D + victim main",
				uint64(p.Ways*p.Banks*columnBytes), col, p.Ways),
			cache.NewVictim(p.VictimEntries, col/uint64(p.VictimEntries)))
	}
}

// Compounds reports the number of in-pass victim replays.
func (f *FamilyCacheSet) Compounds() int { return len(f.vics) }

// Ref implements trace.Sink.
func (f *FamilyCacheSet) Ref(r trace.Ref) { f.ref(r) }

// Refs implements trace.BatchSink. An instruction fetch that repeats
// its line only bumps the repeat counter.
func (f *FamilyCacheSet) Refs(rs []trace.Ref) {
	for i := range rs {
		if rs[i].Kind == trace.Ifetch && f.iRepeat(rs[i].Addr) {
			f.repeats[trace.Ifetch]++
			continue
		}
		f.ref(rs[i])
	}
}

// RefCounts tallies the reference stream by kind.
func (f *FamilyCacheSet) RefCounts() trace.Counts { return f.refCounts() }

// IStats returns the direct-mapped column-buffer I-cache statistics for
// the given bank count.
func (f *FamilyCacheSet) IStats(banks int) cache.Stats { return f.iStats(uint64(banks)) }

// DStats returns the victimless column-buffer D-cache statistics for
// the given bank count and associativity.
func (f *FamilyCacheSet) DStats(banks, ways int) cache.Stats { return f.dStats(uint64(banks), ways) }

// DVictimStats returns the D-cache-plus-victim statistics for a
// victim-bearing point; for VictimEntries == 0 it is DStats.
func (f *FamilyCacheSet) DVictimStats(p FamilyPoint) cache.Stats {
	if p.VictimEntries <= 0 {
		return f.DStats(p.Banks, p.Ways)
	}
	i, ok := slices.BinarySearchFunc(f.vicPts, p, comparePoints)
	if !ok {
		panic(fmt.Sprintf("workload: family point %+v has no victim compound", p))
	}
	return f.vics[i].Stats()
}
