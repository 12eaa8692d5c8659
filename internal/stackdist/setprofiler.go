package stackdist

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Geometry names one set-associative organisation at the profiler's
// line size: Sets × Ways lines.
type Geometry struct {
	Sets uint64
	Ways int
}

// tracker holds exact per-set LRU state for one set count. tags is
// Sets × Ways line tags, MRU-first within each set; a tag is the line
// address + 1 so that 0 means invalid. hist[kind][p] counts references
// that hit at LRU position p; hist[kind][ways] counts misses. Because
// LRU within a set obeys inclusion over associativity, one tracker at
// ways W answers every organisation with the same set count and
// associativity <= W: an access hitting at position p hits every cache
// with more than p ways.
//
// stops[kind] counts the references whose scan ended at this tracker on
// an MRU hit (see SetProfiler): each is a position-0 hit here and in
// every later tracker, folded in when statistics are read.
type tracker struct {
	sets    uint64
	mask    uint64 // sets-1 when sets is a power of two
	setPow2 bool
	stop    bool // sets divides every later tracker's set count
	ways    int
	tags    []uint64
	hist    [kindCount][]int64
	stops   [kindCount]int64
}

// SetProfiler measures every requested set-associative geometry at one
// line size in a single pass over a reference stream. Geometries
// sharing a set count share one tracker at the maximum requested
// associativity, so e.g. the direct-mapped 16 KB and 2-way 32 KB
// points of the Figure 8 grid cost one LRU scan between them.
//
// Trackers are kept in ascending set count, and an MRU hit ends the
// scan at any tracker whose set count divides every later one's. That
// is set refinement (Hill & Smith, "Evaluating Associativity in CPU
// Caches", IEEE ToC 1989): when S divides S', each set at S' sets holds
// a subset of the lines of one set at S sets. A line that is the most
// recently used of its set at S is then also the most recently used of
// its smaller set at S', so the access hits at position 0 there too,
// and an MRU hit moves no LRU state. The Figure 7/8 set counts are all
// powers of two, so there the first MRU hit ends the scan.
type SetProfiler struct {
	lineSize  uint64
	lineShift uint
	linePow2  bool
	trackers  []tracker      // ascending set count
	index     map[uint64]int // set count -> tracker index

	// pos holds, per tracker, the LRU position the latest Access hit
	// at, or -1 on a miss, for the scanned trackers pos[:scanned]; the
	// scan stopped on an MRU hit at trackers[scanned], if any. Reused
	// across calls; never allocated per access.
	pos     []int8
	scanned int
}

// NewSetProfiler builds a profiler for the given line size covering
// every geometry in geoms.
func NewSetProfiler(lineSize uint64, geoms []Geometry) *SetProfiler {
	if lineSize == 0 {
		panic("stackdist: zero line size")
	}
	p := &SetProfiler{
		lineSize: lineSize,
		linePow2: lineSize&(lineSize-1) == 0,
	}
	if p.linePow2 {
		p.lineShift = uint(bits.TrailingZeros64(lineSize))
	}
	// Merge geometries by set count, keeping the maximum ways.
	maxWays := map[uint64]int{}
	var order []uint64
	for _, g := range geoms {
		if g.Sets == 0 || g.Ways < 1 {
			panic(fmt.Sprintf("stackdist: invalid geometry %+v", g))
		}
		if _, ok := maxWays[g.Sets]; !ok {
			order = append(order, g.Sets)
		}
		if g.Ways > maxWays[g.Sets] {
			maxWays[g.Sets] = g.Ways
		}
	}
	slices.Sort(order)
	for _, sets := range order {
		ways := maxWays[sets]
		t := tracker{
			sets:    sets,
			setPow2: sets&(sets-1) == 0,
			ways:    ways,
			tags:    make([]uint64, sets*uint64(ways)),
		}
		if t.setPow2 {
			t.mask = sets - 1
		}
		for k := range t.hist {
			t.hist[k] = make([]int64, ways+1)
		}
		p.trackers = append(p.trackers, t)
	}
	// A tracker may stop the scan iff its set count divides the gcd of
	// every later one's (vacuously true for the last).
	var g uint64
	for i := len(p.trackers) - 1; i >= 0; i-- {
		t := &p.trackers[i]
		t.stop = g%t.sets == 0
		for a := t.sets; a != 0; {
			g, a = a, g%a
		}
	}
	p.pos = make([]int8, len(p.trackers))
	p.index = make(map[uint64]int, len(p.trackers))
	for i := range p.trackers {
		p.index[p.trackers[i].sets] = i
	}
	return p
}

// TrackerIndex returns the index Pos takes for the tracker covering the
// given set count, or -1 if no requested geometry uses it. The lookup
// is O(1): design-space families register hundreds of set counts, and
// assembling their statistics probes every one.
func (p *SetProfiler) TrackerIndex(sets uint64) int {
	if i, ok := p.index[sets]; ok {
		return i
	}
	return -1
}

// Pos returns the LRU position the latest Access hit at in tracker ti
// (TrackerIndex order), or -1 on a miss. It lets callers route
// fall-back structures (the reference system's L2 sees only
// first-level misses) without a second lookup. A tracker past the
// scan's stop hit at position 0.
func (p *SetProfiler) Pos(ti int) int {
	if ti >= p.scanned {
		return 0
	}
	return int(p.pos[ti])
}

// Access records one reference in every tracker, up to the first MRU
// hit in a tracker that may stop the scan.
func (p *SetProfiler) Access(addr uint64, kind trace.Kind) {
	var la uint64
	if p.linePow2 {
		la = addr >> p.lineShift
	} else {
		la = addr / p.lineSize
	}
	tag := la + 1
	for ti := range p.trackers {
		t := &p.trackers[ti]
		var set uint64
		if t.setPow2 {
			set = la & t.mask
		} else {
			set = la % t.sets
		}
		w := t.tags[set*uint64(t.ways) : set*uint64(t.ways)+uint64(t.ways)]
		if w[0] == tag {
			// MRU hit: no reordering needed. This is the dominant case
			// on instruction streams and the reason the scan is split.
			if t.stop {
				t.stops[kind]++
				p.scanned = ti
				return
			}
			t.hist[kind][0]++
			p.pos[ti] = 0
			continue
		}
		pos := -1
		for i := 1; i < len(w); i++ {
			if w[i] == tag {
				pos = i
				break
			}
		}
		if pos < 0 {
			t.hist[kind][t.ways]++
			p.pos[ti] = -1
			copy(w[1:], w[:len(w)-1])
			w[0] = tag
			continue
		}
		t.hist[kind][pos]++
		p.pos[ti] = int8(pos)
		copy(w[1:pos+1], w[:pos])
		w[0] = tag
	}
	p.scanned = len(p.trackers)
}

// counter derives the miss statistics of the (sets, ways) organisation
// for one kind from tracker ti's histogram and the position-0 hits of
// every scan that stopped at or before it.
func (p *SetProfiler) counter(ti, ways int, kind trace.Kind) stats.Counter {
	var hits int64
	for i := range p.trackers[:ti+1] {
		hits += p.trackers[i].stops[kind]
	}
	total := hits
	for pos, n := range p.trackers[ti].hist[kind] {
		total += n
		if pos < ways {
			hits += n
		}
	}
	return stats.Counter{Events: total - hits, Total: total}
}

// MissCounter returns the exact miss statistics the (sets, ways)
// set-associative LRU cache would have accumulated over the profiled
// stream for one reference kind. The geometry must be covered by the
// profiler: its set count registered and ways no larger than the
// tracker's associativity.
func (p *SetProfiler) MissCounter(sets uint64, ways int, kind trace.Kind) stats.Counter {
	ti := p.TrackerIndex(sets)
	if ti < 0 || ways < 1 || ways > p.trackers[ti].ways {
		panic(fmt.Sprintf("stackdist: geometry %d sets × %d ways not profiled", sets, ways))
	}
	return p.counter(ti, ways, kind)
}

// Ref implements trace.Sink.
func (p *SetProfiler) Ref(r trace.Ref) { p.Access(r.Addr, r.Kind) }

// Refs implements trace.BatchSink.
func (p *SetProfiler) Refs(rs []trace.Ref) {
	for i := range rs {
		p.Access(rs[i].Addr, rs[i].Kind)
	}
}
