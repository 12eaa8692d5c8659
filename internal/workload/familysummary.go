package workload

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpumodel"
	"repro/internal/trace"
)

// FamilyGeom is one victimless D-cache geometry inside a family: the
// (banks, ways) pair a DStats lookup is keyed by.
type FamilyGeom struct {
	Banks, Ways int
}

// FamilySummary is the serializable distillation of one
// (column family, workload) trace pass: the final cache statistics of
// every registered design point plus the stream tallies — everything
// the design-space assembly reads, none of the live profiler state.
// Unlike FamilyCacheSet (stack-distance histograms plus in-flight
// victim compounds, which only exist as live data structures), a
// summary is a plain exported-field struct, so it can travel through
// the result cache (gob) and, later, over the wire to iramsimd
// clients. Its accessors mirror FamilyCacheSet's, and Rates matches
// Measurement.Rates on the equivalent single device bit for bit.
type FamilySummary struct {
	Bench    string
	BaseCPI  float64
	Refs     trace.Counts
	Instr    int64
	Compound int // in-pass victim compounds the pass carried

	IBanks map[int]cache.Stats         // banks -> I-cache stats
	DGeom  map[FamilyGeom]cache.Stats  // (banks, ways) -> D-cache stats
	DVic   map[FamilyPoint]cache.Stats // victim-bearing point -> stats
}

// Summary distills the set, after w's stream of instr instructions has
// passed through it, for the given registered points. The points must
// be (a subset of) those the family set was built with; statistics for
// unregistered geometries would panic exactly as they do on
// FamilyCacheSet.
func (f *FamilyCacheSet) Summary(w Workload, instr int64, points []FamilyPoint) *FamilySummary {
	s := &FamilySummary{
		Bench:    w.Name,
		BaseCPI:  w.BaseCPI,
		Refs:     f.RefCounts(),
		Instr:    instr,
		Compound: f.Compounds(),
		IBanks:   make(map[int]cache.Stats),
		DGeom:    make(map[FamilyGeom]cache.Stats),
		DVic:     make(map[FamilyPoint]cache.Stats),
	}
	for _, p := range points {
		s.IBanks[p.Banks] = f.IStats(p.Banks)
		s.DGeom[FamilyGeom{Banks: p.Banks, Ways: p.Ways}] = f.DStats(p.Banks, p.Ways)
		if p.VictimEntries > 0 {
			s.DVic[FamilyPoint{Banks: p.Banks, Ways: p.Ways, VictimEntries: p.VictimEntries}] = f.DVictimStats(p)
		}
	}
	return s
}

// Compounds reports the in-pass victim replays the original pass made.
func (s *FamilySummary) Compounds() int { return s.Compound }

// IStats returns the I-cache statistics for the given bank count.
func (s *FamilySummary) IStats(banks int) cache.Stats {
	st, ok := s.IBanks[banks]
	if !ok {
		panic(fmt.Sprintf("workload: family summary has no I-stats for banks=%d", banks))
	}
	return st
}

// DStats returns the victimless D-cache statistics for the geometry.
func (s *FamilySummary) DStats(banks, ways int) cache.Stats {
	st, ok := s.DGeom[FamilyGeom{Banks: banks, Ways: ways}]
	if !ok {
		panic(fmt.Sprintf("workload: family summary has no D-stats for banks=%d ways=%d", banks, ways))
	}
	return st
}

// DVictimStats returns the D-cache-plus-victim statistics for a
// victim-bearing point; for VictimEntries == 0 it is DStats.
func (s *FamilySummary) DVictimStats(p FamilyPoint) cache.Stats {
	if p.VictimEntries <= 0 {
		return s.DStats(p.Banks, p.Ways)
	}
	st, ok := s.DVic[p]
	if !ok {
		panic(fmt.Sprintf("workload: family summary has no victim stats for %+v", p))
	}
	return st
}

// Rates converts one family point's statistics into integrated-system
// GSPN inputs, matching Measurement.Rates(true, p.VictimEntries > 0) on
// the corresponding device bit for bit.
func (s *FamilySummary) Rates(p FamilyPoint) cpumodel.AppRates {
	return firstLevelRates(s.Bench, s.BaseCPI, s.Refs, s.IStats(p.Banks), s.DVictimStats(p))
}
