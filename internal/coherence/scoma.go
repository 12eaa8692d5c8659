package coherence

import (
	"repro/internal/cache"
	"repro/internal/core"
)

// Simple-COMA support. Section 4.2 of the paper states that the
// protocol engines' downloadable microcode supports both CC-NUMA and
// Simple-COMA shared memory; the multiprocessor evaluation (Section 6)
// uses only the CC-NUMA mode, so this file is the reproduction's
// implementation of the *other* mode, following the cited design
// (Saulsbury et al., "An Argument for Simple COMA", HPCA'95):
//
//   - local memory acts as a page-granularity attraction memory: the
//     first touch of a remote page allocates a local frame (a software
//     trap, charged PageAllocCycles);
//
//   - within an allocated frame, data is fetched and kept coherent at
//     the usual 32 B block granularity, but once fetched it lives in
//     *local* DRAM — so re-accesses enjoy the full column-buffer path
//     (1-cycle hits, 512 B fills) instead of the INC's array access.
//
// The trade against CC-NUMA: S-COMA converts remote re-access latency
// into local latency at the price of page-allocation traps and memory
// consumption (frames are never reclaimed in this model, matching the
// paper-scale working sets).

// PageAllocCycles is the software page-allocation cost charged on the
// first touch of a remote page (an OS trap plus page-table work).
const PageAllocCycles = 150

// SCOMANode is a Simple-COMA processing element: the same column
// buffers and victim cache as the integrated node, with an attraction
// memory replacing the INC.
type SCOMANode struct {
	id         int
	lat        Latencies
	unit       uint64
	line       uint64 // column (cache line) size
	victimLine uint64 // victim cache entry size
	dcache     *cache.SetAssoc
	victim     *cache.Victim

	frames   pagedBits // allocated local frames for remote pages
	valid    pagedBits // fetched remote blocks
	poisoned pagedBits // per-block invalidation inside resident columns

	// Allocations counts page-frame allocations (for reports).
	Allocations int64
}

// NewSCOMANodeDevice builds a Simple-COMA node whose column buffers and
// victim cache are derived from a machine description.
func NewSCOMANodeDevice(id int, lat Latencies, withVictim bool, d core.Device) *SCOMANode {
	dc, vc := d.DCache()
	n := &SCOMANode{
		id:         id,
		lat:        lat,
		unit:       uint64(d.CoherenceUnitBytes),
		line:       uint64(d.DRAM.ColumnBytes),
		victimLine: uint64(d.VictimLineBytes),
		dcache:     dc,
	}
	if withVictim && vc != nil {
		// As in the integrated node: the staging hook is installed once.
		cache.NewWithVictim(dc, vc)
		n.victim = vc
	}
	return n
}

// Access implements Node.
func (n *SCOMANode) Access(addr uint64, write, local bool) (uint64, bool) {
	block := addr / n.unit
	kind := kindOf(write)

	var alloc uint64
	if !local {
		page := addr / PageSize
		if !n.frames.get(page) {
			n.frames.set(page)
			n.Allocations++
			alloc = PageAllocCycles
		}
		if !n.valid.get(block) || n.poisoned.get(block) {
			// Block-grain fetch into the attraction memory; the caller
			// charges the remote round trip.
			n.valid.set(block)
			n.poisoned.clear(block)
			// The fetched block lands in local DRAM; prime the column
			// buffer path like a local fill.
			n.localFill(addr, kind)
			return alloc, true
		}
	}
	// Local data, or a remote block already resident in the attraction
	// memory: the ordinary column-buffer path.
	if n.dcache.Probe(addr) && !n.poisoned.get(block) {
		n.dcache.Access(addr, kind)
		return alloc + n.lat.CacheHit, false
	}
	if n.victim != nil && n.victim.Lookup(addr) && !n.poisoned.get(block) {
		return alloc + n.lat.VictimHit, false
	}
	n.localFill(addr, kind)
	return alloc + n.lat.LocalMem, false
}

func (n *SCOMANode) localFill(addr uint64, kind kindT) {
	n.dcache.Access(addr, kind)
	lineBase := addr / n.line * n.line
	for b := lineBase / n.unit; b <= (lineBase+n.line-1)/n.unit; b++ {
		// A column fill validates only what the attraction memory
		// actually holds; poisoned (invalidated) blocks stay poisoned
		// until re-fetched, so clear poison only here for blocks that
		// are valid local copies.
		if n.valid.get(b) {
			n.poisoned.clear(b)
		}
	}
}

// Invalidate implements Node.
func (n *SCOMANode) Invalidate(base, size uint64) {
	block := base / n.unit
	n.valid.clear(block)
	if n.dcache.Probe(base) {
		n.poisoned.set(block)
	}
	if n.victim != nil {
		for a := base; a < base+size; a += n.victimLine {
			n.victim.Invalidate(a)
		}
	}
}

// kindT aliases the trace kind used by the cache package.
type kindT = cacheKind

// SimpleCOMA is the additional machine configuration (the paper's
// second protocol-engine personality).
const SimpleCOMA Config = 3

// NewSCOMAMachineDevice builds an n-node Simple-COMA machine derived
// from a machine description.
func NewSCOMAMachineDevice(n int, d core.Device) *Machine {
	lat := LatenciesFor(d)
	return NewMachine(n, lat, func(id int) Node {
		return NewSCOMANodeDevice(id, lat, true, d)
	})
}
