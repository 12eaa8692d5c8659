// Package stackdist implements single-pass multi-configuration cache
// evaluation for the miss-rate studies of Sections 5.2-5.4.
//
// The paper's Figures 7 and 8 sweep cache size × associativity over the
// same reference streams; replaying the trace once per configuration
// costs O(configs × refs). Mattson's classic observation (Mattson,
// Gecsei, Slutz & Traiger, "Evaluation techniques for storage
// hierarchies", IBM Systems Journal 1970) is that LRU obeys an
// inclusion property, so ONE pass that records each reference's LRU
// stack distance yields the exact miss ratio of every fully-associative
// LRU cache size simultaneously. This package provides:
//
//   - Profiler: the exact global LRU stack-distance profiler (a hash
//     map and Fenwick-tree order maintenance over line addresses; the
//     tree makes each distance query O(log n)). Distances
//     are bucketed by powers of two, so the miss ratio of every
//     power-of-two capacity at the profiler's line size follows in
//     closed form from one histogram per reference kind.
//
//   - SetProfiler (setprofiler.go): the set-level extension that makes
//     the direct-mapped and N-way grids of Figures 7/8 come out of the
//     same pass, by tracking exact per-set LRU hit positions for a
//     family of set counts at one line size.
//
// Organisations the profilers cannot express — the victim cache, whose
// contents depend on eviction order, and conditional second-level
// streams — fall back to the per-config replay in internal/cache.
package stackdist

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/stats"
	"repro/internal/trace"
)

// kindCount is the number of trace.Kind values (ifetch, load, store).
const kindCount = 3

// distBuckets bounds the log2-bucketed distance histogram: bucket k
// holds distances in [2^(k-1), 2^k), bucket 0 holds distance 0, so 64
// buckets cover every uint64 distance.
const distBuckets = 65

// Profiler is an exact LRU stack-distance profiler over line addresses.
// Feed it a reference stream with Access; MissCounter then returns the
// exact miss statistics of a fully-associative LRU cache of any
// power-of-two line capacity, all from the single pass.
//
// The order-maintenance structure is a Fenwick tree over access-time
// slots: each resident line occupies the slot of its most recent
// access, and the stack distance of a reference is the number of
// occupied slots newer than the line's previous slot — an O(log n)
// query. Slots are compacted when the slot space fills.
type Profiler struct {
	lineSize  uint64
	lineShift uint
	linePow2  bool

	last map[uint64]int32 // line address -> slot of most recent access
	tree []int32          // Fenwick tree: tree[i] covers occupied slots
	cap  int32            // slot capacity (== len(tree)-1)
	next int32            // next unassigned slot

	hist  [kindCount][distBuckets]int64
	cold  [kindCount]int64 // first-touch references (infinite distance)
	total [kindCount]int64
}

// NewProfiler creates a profiler for the given cache line size.
func NewProfiler(lineSize uint64) *Profiler {
	if lineSize == 0 {
		panic("stackdist: zero line size")
	}
	p := &Profiler{
		lineSize: lineSize,
		linePow2: lineSize&(lineSize-1) == 0,
		last:     make(map[uint64]int32),
	}
	if p.linePow2 {
		p.lineShift = uint(bits.TrailingZeros64(lineSize))
	}
	p.grow(1 << 16)
	return p
}

// grow resets the Fenwick tree to a new slot capacity.
func (p *Profiler) grow(capacity int32) {
	p.cap = capacity
	p.tree = make([]int32, capacity+1)
	p.next = 0
}

// lineOf maps a byte address to its line address.
func (p *Profiler) lineOf(addr uint64) uint64 {
	if p.linePow2 {
		return addr >> p.lineShift
	}
	return addr / p.lineSize
}

// add updates the Fenwick tree at 1-based position pos.
func (p *Profiler) add(pos int32, delta int32) {
	for ; pos <= p.cap; pos += pos & -pos {
		p.tree[pos] += delta
	}
}

// prefix returns the number of occupied slots at 1-based positions
// <= pos.
func (p *Profiler) prefix(pos int32) int32 {
	var s int32
	for ; pos > 0; pos -= pos & -pos {
		s += p.tree[pos]
	}
	return s
}

// Access records one reference.
func (p *Profiler) Access(addr uint64, kind trace.Kind) {
	la := p.lineOf(addr)
	p.total[kind]++
	// Compact before touching any state so the renumbering sees a
	// consistent map/tree pair.
	if p.next == p.cap {
		p.compact()
	}
	if slot, ok := p.last[la]; ok {
		// Stack distance = distinct lines touched since the previous
		// access to this line = occupied slots newer than its slot.
		dist := int64(len(p.last)) - int64(p.prefix(slot+1))
		p.hist[kind][bits.Len64(uint64(dist))]++
		p.add(slot+1, -1)
	} else {
		p.cold[kind]++
	}
	slot := p.next
	p.next++
	p.add(slot+1, 1)
	p.last[la] = slot
}

// compact renumbers the occupied slots densely, preserving recency
// order, and regrows the slot space to at least 4x the resident set so
// compactions stay amortised O(log n) per access.
func (p *Profiler) compact() {
	type entry struct {
		line uint64
		slot int32
	}
	entries := make([]entry, 0, len(p.last))
	for line, slot := range p.last {
		entries = append(entries, entry{line, slot})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].slot < entries[j].slot })
	capacity := int32(4 * len(entries))
	if capacity < 1<<16 {
		capacity = 1 << 16
	}
	p.grow(capacity)
	for i, e := range entries {
		p.last[e.line] = int32(i)
		p.add(int32(i)+1, 1)
	}
	p.next = int32(len(entries))
}

// Footprint returns the number of distinct lines touched so far.
func (p *Profiler) Footprint() int { return len(p.last) }

// MissCounter returns the exact miss statistics a fully-associative
// LRU cache with capacityLines lines (a power of two) would have seen
// for the given reference kind. A reference misses iff its stack
// distance is >= the capacity; first touches always miss.
func (p *Profiler) MissCounter(capacityLines uint64, kind trace.Kind) stats.Counter {
	if capacityLines == 0 || capacityLines&(capacityLines-1) != 0 {
		panic(fmt.Sprintf("stackdist: capacity %d is not a power of two", capacityLines))
	}
	// dist >= 2^m  <=>  bits.Len64(dist) >= m+1.
	m := bits.TrailingZeros64(capacityLines)
	misses := p.cold[kind]
	for b := m + 1; b < distBuckets; b++ {
		misses += p.hist[kind][b]
	}
	return stats.Counter{Events: misses, Total: p.total[kind]}
}

// MissCounterAll returns the combined miss statistics over every
// reference kind for the given fully-associative capacity.
func (p *Profiler) MissCounterAll(capacityLines uint64) stats.Counter {
	var c stats.Counter
	for k := 0; k < kindCount; k++ {
		c.Add(p.MissCounter(capacityLines, trace.Kind(k)))
	}
	return c
}

// Ref implements trace.Sink.
func (p *Profiler) Ref(r trace.Ref) { p.Access(r.Addr, r.Kind) }

// Refs implements trace.BatchSink.
func (p *Profiler) Refs(rs []trace.Ref) {
	for i := range rs {
		p.Access(rs[i].Addr, rs[i].Kind)
	}
}
