// Package cache implements the cache organisations evaluated in
// Sections 5.2–5.4 of the paper:
//
//   - conventional direct-mapped and N-way set-associative caches with
//     32-byte lines (the comparison points in Figures 7 and 8),
//   - the proposed column-buffer caches: the 8 KB direct-mapped
//     instruction cache (16 × 512 B column buffers) and the 16 KB 2-way
//     data cache (16 banks × 2 × 512 B column buffers),
//   - the 512 B victim cache (16 × 32 B lines, fully associative, LRU)
//     that augments the column-buffer data cache.
//
// All caches are trace-driven: Access records one reference and reports
// hit or miss, maintaining exact LRU state. Miss statistics are kept
// separately for instruction fetches, loads, and stores, because
// Figure 8 plots the load and store miss components separately.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Stats holds per-reference-kind hit/miss counters. The Counter's
// Events field counts misses; Total counts accesses.
type Stats struct {
	Ifetch stats.Counter
	Load   stats.Counter
	Store  stats.Counter
}

// Data returns the combined load+store counter. The result is a fresh
// value derived from copies of the per-kind counters: mutating it (e.g.
// via Add) never writes back into the Stats it came from.
func (s Stats) Data() stats.Counter {
	c := s.Load
	c.Add(s.Store)
	return c
}

func (s *Stats) record(kind trace.Kind, miss bool) {
	var c *stats.Counter
	switch kind {
	case trace.Ifetch:
		c = &s.Ifetch
	case trace.Load:
		c = &s.Load
	default:
		c = &s.Store
	}
	c.Total++
	if miss {
		c.Events++
	}
}

// Cache is the common interface of all cache models.
type Cache interface {
	// Access simulates one reference and reports whether it hit.
	Access(addr uint64, kind trace.Kind) bool
	// Stats returns accumulated hit/miss statistics.
	Stats() Stats
	// Name identifies the configuration, e.g. "16KB 2-way 32B".
	Name() string
}

// Sink adapts a Cache to trace.Sink so it can be fed directly from the
// functional simulator.
type Sink struct{ C Cache }

// Ref implements trace.Sink.
func (s Sink) Ref(r trace.Ref) { s.C.Access(r.Addr, r.Kind) }

// Refs implements trace.BatchSink.
func (s Sink) Refs(rs []trace.Ref) {
	for i := range rs {
		s.C.Access(rs[i].Addr, rs[i].Kind)
	}
}

// line is one cache line's bookkeeping.
type line struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastSub uint32 // byte offset within line of the most recent access
}

// Eviction describes a line pushed out of a cache, delivered to an
// optional eviction handler (used to fill the victim cache).
type Eviction struct {
	Addr    uint64 // base address of the evicted line
	LastSub uint32 // offset of the most recently accessed sub-block byte
	Dirty   bool
}

// SetAssoc is an N-way set-associative cache with true-LRU replacement.
// ways == 1 gives a direct-mapped cache. It also implements the
// column-buffer caches: the proposed I-cache is SetAssoc{16 sets, 1 way,
// 512 B lines} and the proposed D-cache is SetAssoc{16 sets (= banks),
// 2 ways (= column buffers per bank), 512 B lines}: selecting the set by
// line-address modulo set-count is exactly the bank-interleaving of the
// integrated device.
type SetAssoc struct {
	name     string
	lineSize uint64
	sets     uint64
	ways     int
	lines    [][]line // [set][way], way order = MRU first
	stats    Stats

	// Precomputed index constants: when lineSize (resp. sets) is a power
	// of two, addr/lineSize and lineAddr%sets reduce to a shift and a
	// mask, which the hot lookup path uses instead of integer division.
	lineShift uint
	lineMask  uint64
	linePow2  bool
	setMask   uint64
	setPow2   bool

	// OnEvict, if set, is called when a valid line is replaced.
	OnEvict func(Eviction)
	// Fills counts line fills (== misses that allocate).
	Fills int64
}

// NewSetAssoc builds a cache of the given total size in bytes.
// size must be an exact multiple of lineSize*ways, and the resulting
// set count must be a power of two is NOT required (the paper's 16-bank
// device happens to be a power of two, but modulo mapping is general).
func NewSetAssoc(name string, size, lineSize uint64, ways int) *SetAssoc {
	if ways < 1 || lineSize == 0 || size == 0 {
		panic("cache: invalid geometry")
	}
	if size%(lineSize*uint64(ways)) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by line %d × ways %d",
			name, size, lineSize, ways))
	}
	sets := size / (lineSize * uint64(ways))
	c := &SetAssoc{name: name, lineSize: lineSize, sets: sets, ways: ways}
	if lineSize&(lineSize-1) == 0 {
		c.linePow2 = true
		c.lineShift = uint(bits.TrailingZeros64(lineSize))
		c.lineMask = lineSize - 1
	}
	if sets&(sets-1) == 0 {
		c.setPow2 = true
		c.setMask = sets - 1
	}
	c.lines = make([][]line, sets)
	backing := make([]line, sets*uint64(ways))
	for i := range c.lines {
		c.lines[i] = backing[uint64(i)*uint64(ways) : (uint64(i)+1)*uint64(ways)]
	}
	return c
}

// NewDirectMapped builds a 1-way cache.
func NewDirectMapped(name string, size, lineSize uint64) *SetAssoc {
	return NewSetAssoc(name, size, lineSize, 1)
}

// Name implements Cache.
func (c *SetAssoc) Name() string { return c.name }

// Stats implements Cache.
func (c *SetAssoc) Stats() Stats { return c.stats }

// Access implements Cache.
func (c *SetAssoc) Access(addr uint64, kind trace.Kind) bool {
	hit := c.access(addr, kind == trace.Store)
	c.stats.record(kind, !hit)
	return hit
}

// locate maps addr to its line address, set, and sub-line offset using
// the precomputed shift/mask constants where the geometry permits.
func (c *SetAssoc) locate(addr uint64) (lineAddr uint64, set []line, sub uint32) {
	if c.linePow2 {
		lineAddr = addr >> c.lineShift
		sub = uint32(addr & c.lineMask)
	} else {
		lineAddr = addr / c.lineSize
		sub = uint32(addr % c.lineSize)
	}
	if c.setPow2 {
		set = c.lines[lineAddr&c.setMask]
	} else {
		set = c.lines[lineAddr%c.sets]
	}
	return
}

// Probe reports whether addr would hit, without changing any state.
func (c *SetAssoc) Probe(addr uint64) bool {
	lineAddr, set, _ := c.locate(addr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return true
		}
	}
	return false
}

func (c *SetAssoc) access(addr uint64, isStore bool) bool {
	if c.lookup(addr, isStore) {
		return true
	}
	c.fill(addr, isStore)
	return false
}

// lookup probes for addr, updating LRU and dirty state on a hit.
func (c *SetAssoc) lookup(addr uint64, isStore bool) bool {
	lineAddr, set, sub := c.locate(addr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			l := set[i]
			l.lastSub = sub
			if isStore {
				l.dirty = true
			}
			copy(set[1:i+1], set[:i])
			set[0] = l
			return true
		}
	}
	return false
}

// fill allocates a line for addr at MRU, evicting the set's LRU line
// (reported to OnEvict when valid).
func (c *SetAssoc) fill(addr uint64, isStore bool) {
	lineAddr, set, sub := c.locate(addr)
	victim := set[len(set)-1]
	if victim.valid && c.OnEvict != nil {
		c.OnEvict(Eviction{
			Addr:    victim.tag * c.lineSize,
			LastSub: victim.lastSub,
			Dirty:   victim.dirty,
		})
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line{tag: lineAddr, valid: true, dirty: isStore, lastSub: sub}
	c.Fills++
}

// Invalidate removes the line containing addr if present, returning
// whether it was present. Used by the coherence layer.
func (c *SetAssoc) Invalidate(addr uint64) bool {
	lineAddr, set, _ := c.locate(addr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			copy(set[i:], set[i+1:])
			set[len(set)-1] = line{}
			return true
		}
	}
	return false
}

// Flush invalidates the entire cache (statistics are retained).
func (c *SetAssoc) Flush() {
	for _, set := range c.lines {
		for i := range set {
			set[i] = line{}
		}
	}
}

// Victim is the paper's victim cache: a fully associative array of
// 32-byte lines with LRU replacement, totalling one column buffer
// (512 B = 16 entries) in the proposed design. Entries are filled from
// the most-recently-used 32 B sub-block of lines evicted from the main
// data cache; contents are never promoted back into the main cache
// (the 512 B/32 B size disparity forbids it).
type Victim struct {
	lineSize uint64
	entries  []line // MRU first
	stats    Stats
	// Hits counts victim-cache hits (i.e. main-cache misses absorbed).
	Hits int64
}

// VictimLineSize is the sub-block size of the proposed victim cache.
const VictimLineSize = 32

// NewVictim builds a victim cache of n lines of the given size.
func NewVictim(n int, lineSize uint64) *Victim {
	if n < 1 || lineSize == 0 {
		panic("cache: invalid victim geometry")
	}
	return &Victim{lineSize: lineSize, entries: make([]line, n)}
}

// Lookup probes the victim cache and updates LRU on hit.
func (v *Victim) Lookup(addr uint64) bool {
	lineAddr := addr / v.lineSize
	for i := range v.entries {
		if v.entries[i].valid && v.entries[i].tag == lineAddr {
			l := v.entries[i]
			copy(v.entries[1:i+1], v.entries[:i])
			v.entries[0] = l
			v.Hits++
			return true
		}
	}
	return false
}

// Insert places the 32 B block containing addr into the victim cache at
// MRU, evicting the LRU entry. If the block is already present it is
// simply made MRU.
func (v *Victim) Insert(addr uint64) {
	lineAddr := addr / v.lineSize
	for i := range v.entries {
		if v.entries[i].valid && v.entries[i].tag == lineAddr {
			l := v.entries[i]
			copy(v.entries[1:i+1], v.entries[:i])
			v.entries[0] = l
			return
		}
	}
	copy(v.entries[1:], v.entries[:len(v.entries)-1])
	v.entries[0] = line{tag: lineAddr, valid: true}
}

// Invalidate removes the 32 B block containing addr if present.
func (v *Victim) Invalidate(addr uint64) bool {
	lineAddr := addr / v.lineSize
	for i := range v.entries {
		if v.entries[i].valid && v.entries[i].tag == lineAddr {
			copy(v.entries[i:], v.entries[i+1:])
			v.entries[len(v.entries)-1] = line{}
			return true
		}
	}
	return false
}

// WithVictim combines a main data cache with a victim cache, exactly as
// in Section 5.4: the victim array is searched in parallel with the main
// cache; on a main-cache miss that hits in the victim cache the access
// is a hit (the main cache is *not* refilled); on a genuine miss the
// main cache fills and the evicted line's most-recently-accessed 32 B
// sub-block is copied into the victim cache (for free, hidden under the
// DRAM access).
type WithVictim struct {
	Main   *SetAssoc
	Vic    *Victim
	stats  Stats
	nameFn string
}

// NewWithVictim wires a main cache to a victim cache. The main cache's
// OnEvict hook is claimed by this wrapper.
func NewWithVictim(main *SetAssoc, vic *Victim) *WithVictim {
	w := &WithVictim{Main: main, Vic: vic,
		nameFn: main.Name() + " + victim"}
	main.OnEvict = func(e Eviction) {
		// Copy the most recently accessed 32 B sub-block of the
		// evicted line. LastSub is a byte offset; round to block.
		sub := e.Addr + uint64(e.LastSub)/vic.lineSize*vic.lineSize
		vic.Insert(sub)
	}
	return w
}

// Name implements Cache.
func (w *WithVictim) Name() string { return w.nameFn }

// Stats implements Cache. The statistics count an access as a miss only
// if it missed both the main and victim caches.
func (w *WithVictim) Stats() Stats { return w.stats }

// Access implements Cache.
func (w *WithVictim) Access(addr uint64, kind trace.Kind) bool {
	isStore := kind == trace.Store
	// Both arrays are probed in parallel in hardware; a main hit takes
	// priority and leaves the victim LRU untouched.
	if w.Main.lookup(addr, isStore) {
		w.stats.record(kind, false)
		return true
	}
	// A victim hit services the access without a memory round trip and
	// — unlike a conventional victim cache — does NOT reload the main
	// cache: the 512 B / 32 B size disparity forbids promotion, so the
	// main cache state is left alone (Section 5.4).
	if w.Vic.Lookup(addr) {
		w.stats.record(kind, false)
		return true
	}
	// Genuine miss: the main cache reloads the full column buffer from
	// the DRAM array; the evicted line's most-recently-accessed 32 B
	// sub-block is copied into the victim cache via OnEvict during the
	// DRAM access window.
	w.Main.fill(addr, isStore)
	w.stats.record(kind, true)
	return false
}
