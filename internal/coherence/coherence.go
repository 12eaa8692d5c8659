// Package coherence implements the shared-memory side of the paper
// (Sections 4.2 and 6): a directory-based write-invalidate protocol
// over 32-byte coherence units, with two node architectures —
//
//   - the proposed integrated node: column-buffer data cache (16 KB,
//     2-way, 512 B lines) optionally augmented with the 16×32 B victim
//     cache, local memory at 6 cycles with full-column fills, and a
//     1 MB 7-way set-associative Inter-Node Cache (INC) held in DRAM
//     (7 data blocks + 1 tag block per 512 B column, costing 1–2 extra
//     cycles for the tag check; we charge +1). In the protocol engines'
//     second personality, Simple-COMA, the node has no INC: remote
//     data lands in local page frames and then takes the column path;
//
//   - the reference CC-NUMA node: 16 KB direct-mapped first-level
//     cache with 32 B lines and an infinite second-level cache, as in
//     the paper's upper-bound comparison (only cold and coherence
//     misses remain).
//
// Latencies follow Table 6. The directory lives with the memory at the
// home node (embedded in ECC bits, core.DirEntryBits); protocol state
// transitions are applied atomically at access time, with the fixed
// round-trip latencies standing in for message traffic, exactly as the
// paper's architectural simulator does.
package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mpsim"
	"repro/internal/obs"
	"repro/internal/paperref"
	"repro/internal/trace"
)

// BlockSize is the coherence unit (bytes). The paper is explicit that
// coherence is maintained on 32-byte blocks, never on the 512-byte
// cache lines (false sharing would outweigh the prefetching benefits).
const BlockSize = 32

// PageSize is the home-placement granularity.
const PageSize = 4096

// Latencies (processor cycles), from Table 6.
type Latencies struct {
	CacheHit   uint64 // column buffer or FLC hit
	FlitCycles uint64 // fabric time per extra 32 B of a large coherence unit
	VictimHit  uint64 // victim cache hit (proposed only)
	LocalMem   uint64 // local memory or INC array access
	INCExtra   uint64 // additional cycles for the INC tag check
	SLCHit     uint64 // second-level cache hit (reference only)
	LocalCold  uint64 // reference: local memory beyond the SLC (model choice; see doc.go)
	RemoteLoad uint64 // fetch a block from a remote node
	InvalRT    uint64 // invalidation round trip
}

// LatenciesFor derives the Table 6 latency set from a machine
// description: the local-memory cost is the DRAM access time and the
// per-flit fabric cost follows from the coherence unit size and the
// device's raw I/O bandwidth (32 B at 1.25 GB/s ≈ 25 ns = 5 cycles on
// core.Proposed()). The rest is Table 6 plus the two modelling choices
// the table leaves implicit: INCExtra = 1 cycle of the "1 to 2" the
// paper quotes, and LocalCold = 12 for the reference system's cold
// local misses, an SLC lookup followed by a DRAM access behind a
// conventional bus.
func LatenciesFor(d core.Device) Latencies {
	t := paperref.Table6
	l := Latencies{
		CacheHit:   uint64(t.ColumnBufferHit),
		FlitCycles: 5,
		VictimHit:  uint64(t.VictimHit),
		LocalMem:   uint64(d.DRAM.AccessCycles),
		INCExtra:   1,
		SLCHit:     uint64(t.SLCHit),
		LocalCold:  12,
		RemoteLoad: uint64(t.RemoteLoad),
		InvalRT:    uint64(t.InvalidationRT),
	}
	if bw := d.IOBandwidthGBs(); bw > 0 {
		l.FlitCycles = uint64(float64(d.CoherenceUnitBytes) * float64(d.ClockMHz) * 1e6 / (bw * 1e9))
	}
	return l
}

// SyncCosts derives the multiprocessor synchronisation costs from the
// fabric latencies: uncontended lock acquires, lock handoffs, and
// barrier releases are all remote round trips (Table 6's RemoteLoad
// scale: 80 cycles each on the paper's machine).
func (l Latencies) SyncCosts() mpsim.SyncCosts {
	return mpsim.SyncCosts{
		LockAcquire: l.RemoteLoad,
		LockHandoff: l.RemoteLoad,
		Barrier:     l.RemoteLoad,
	}
}

// dirState is the home directory state of one block.
type dirState uint8

const (
	dirHome   dirState = iota // only the home may have it cached
	dirShared                 // read-only copies at Sharers
	dirDirty                  // exclusive modified copy at Owner
)

type dirEntry struct {
	sharers uint64 // bitmask of nodes with copies (excluding home implicit copy)
	owner   int32
	state   dirState
}

// Machine is a complete shared-memory machine: N nodes plus the
// directory. It implements the access-timing interface consumed by
// internal/mpsim.
type Machine struct {
	Nodes []Node
	Lat   Latencies
	// Unit is the coherence granularity in bytes (32 in the paper;
	// configurable for the false-sharing ablation of EXPERIMENTS.md).
	Unit uint64

	dir  dirTable  // block number -> directory entry (paged dense array)
	home homeTable // explicit page placement (page -> node)
	eng  *engines  // optional protocol-engine occupancy model

	// Stats
	RemoteLoads   int64
	Invalidations int64
	LocalAccesses int64
	Hits          int64
	Accesses      int64
}

// Node is the architecture-specific per-node cache state.
type Node interface {
	// Access services a load or store issued by this node at the given
	// address, which the caller has already classified as local
	// (home == this node) or remote. It returns the latency excluding
	// any coherence (directory) penalty, and records internal state.
	// fetched reports whether a remote block had to be brought in (an
	// INC/SLC miss) — the caller charges RemoteLoad in that case.
	Access(addr uint64, write, local bool) (lat uint64, fetched bool)
	// Invalidate removes the coherence unit [base, base+size) from all
	// caching structures of this node.
	Invalidate(base, size uint64)
}

// MaxNodes is the largest node count a Machine supports: the directory
// keeps each block's sharers in one uint64 bitmask.
const MaxNodes = 64

// NewMachine builds a machine with n nodes, 1 to MaxNodes, using the
// given node constructor.
func NewMachine(n int, lat Latencies, mk func(id int) Node) *Machine {
	if n < 1 || n > MaxNodes {
		panic(fmt.Sprintf("coherence: node count %d outside 1..%d", n, MaxNodes))
	}
	m := &Machine{Lat: lat, Unit: BlockSize}
	for i := 0; i < n; i++ {
		m.Nodes = append(m.Nodes, mk(i))
	}
	return m
}

// HomeOf maps an address to its home node: explicitly placed pages
// first (Place), then round-robin page interleaving.
func (m *Machine) HomeOf(addr uint64) int {
	if n, ok := m.home.get(addr / PageSize); ok {
		return n
	}
	return int((addr / PageSize) % uint64(len(m.Nodes)))
}

// Place assigns the pages covering [base, base+size) to the given
// node, overriding the default interleaving. Parallel workloads use it
// to co-locate each processor's partition with its node, as the
// paper's simulations (and any real CC-NUMA allocator) would.
func (m *Machine) Place(base, size uint64, node int) {
	if node < 0 || node >= len(m.Nodes) {
		panic(fmt.Sprintf("coherence: Place on unknown node %d", node))
	}
	for page := base / PageSize; page <= (base+size-1)/PageSize; page++ {
		m.home.set(page, node)
	}
}

func (m *Machine) entry(block uint64) *dirEntry {
	return m.dir.entry(block)
}

// Access services one memory reference from proc and returns its
// latency in cycles. The protocol actions (invalidations, ownership
// transfer) are applied immediately; their cost is the fixed Table 6
// round-trip latencies.
func (m *Machine) Access(proc int, addr uint64, write bool) uint64 {
	m.Accesses++
	block := addr / m.Unit
	home := m.HomeOf(addr)
	local := home == proc
	e := m.entry(block)

	var coherencePenalty uint64

	if local {
		m.LocalAccesses++
		switch e.state {
		case dirDirty:
			if int(e.owner) != proc {
				// Recall the dirty copy from the remote owner.
				m.Nodes[e.owner].Invalidate(block*m.Unit, m.Unit)
				m.RemoteLoads++
				coherencePenalty += m.Lat.RemoteLoad
				e.state = dirHome
				e.sharers = 0
			}
		case dirShared:
			if write {
				// Invalidate all remote sharers.
				m.invalidateSharers(e, proc, block)
				coherencePenalty += m.Lat.InvalRT
				e.state = dirHome
			}
		}
	} else {
		// Remote access: consult the home directory.
		switch e.state {
		case dirDirty:
			if int(e.owner) != proc {
				m.Nodes[e.owner].Invalidate(block*m.Unit, m.Unit)
				e.state = dirHome
				e.sharers = 0
				coherencePenalty += m.Lat.RemoteLoad // owner -> home writeback trip
			}
		case dirShared:
			if write {
				m.invalidateSharers(e, proc, block)
				coherencePenalty += m.Lat.InvalRT
				e.state = dirHome
				e.sharers = 0
			}
		}
		if write {
			e.state = dirDirty
			e.owner = int32(proc)
			e.sharers = 1 << uint(proc)
			// The home node's own cached copy becomes stale.
			m.Nodes[home].Invalidate(block*m.Unit, m.Unit)
		} else {
			if e.state != dirDirty {
				e.state = dirShared
			}
			e.sharers |= 1 << uint(proc)
		}
	}

	lat, fetched := m.Nodes[proc].Access(addr, write, local)
	if fetched && !local {
		m.RemoteLoads++
		// Larger coherence units pay a serialisation term on top of
		// the round trip (fabric time per extra 32 B flit).
		lat += m.Lat.RemoteLoad + (m.Unit/32-1)*m.Lat.FlitCycles
	}
	if lat == m.Lat.CacheHit && coherencePenalty == 0 {
		m.Hits++
	}
	return lat + coherencePenalty
}

// Publish adds the machine's protocol statistics — and the per-node
// INC/column-fill/page-allocation accounting, summed across nodes — to
// reg's "coherence" family. Counters accumulate, so a sweep publishing
// after every run builds whole-sweep totals. A nil registry is a no-op.
func (m *Machine) Publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("coherence", "accesses").Add(m.Accesses)
	reg.Counter("coherence", "hits").Add(m.Hits)
	reg.Counter("coherence", "local_accesses").Add(m.LocalAccesses)
	reg.Counter("coherence", "remote_loads").Add(m.RemoteLoads)
	reg.Counter("coherence", "invalidations").Add(m.Invalidations)
	var incHits, incMisses, incEvictions, incInvalidates int64
	var columnFills, pageAllocs int64
	for _, node := range m.Nodes {
		n, ok := node.(*IntegratedNode)
		if !ok {
			continue
		}
		if n.inc != nil {
			incHits += n.inc.Hits
			incMisses += n.inc.Misses
			incEvictions += n.inc.Evictions
			incInvalidates += n.inc.Invalidates
		}
		columnFills += n.ColumnFills
		pageAllocs += n.Allocations
	}
	reg.Counter("coherence", "inc_hits").Add(incHits)
	reg.Counter("coherence", "inc_misses").Add(incMisses)
	reg.Counter("coherence", "inc_evictions").Add(incEvictions)
	reg.Counter("coherence", "inc_invalidates").Add(incInvalidates)
	reg.Counter("coherence", "column_fills").Add(columnFills)
	reg.Counter("coherence", "page_allocs").Add(pageAllocs)
}

func (m *Machine) invalidateSharers(e *dirEntry, except int, block uint64) {
	for n := 0; n < len(m.Nodes); n++ {
		if n == except {
			continue
		}
		if e.sharers&(1<<uint(n)) != 0 {
			m.Nodes[n].Invalidate(block*m.Unit, m.Unit)
			m.Invalidations++
		}
	}
	e.sharers = 0
}

// kindOf maps a write flag to the trace kind used by the cache models.
func kindOf(write bool) trace.Kind {
	if write {
		return trace.Store
	}
	return trace.Load
}

// ---------------------------------------------------------------------
// Integrated node.
// ---------------------------------------------------------------------

// INC is the Inter-Node Cache: 7-way set-associative over 32 B blocks,
// seven blocks plus a tag block per 512 B DRAM column (Figure 6). The
// tag state is two flat arrays indexed by set*ways+way (MRU first
// within a set) — one allocation each, not one per set.
type INC struct {
	sets   int
	ways   int
	blocks []uint64 // block numbers, set-major, MRU first within a set
	valid  []bool
	Hits   int64
	Misses int64
	// Evictions counts valid LRU ways displaced by Insert; Invalidates
	// counts blocks removed by protocol invalidations. Together with
	// Hits/Misses they are the INC's full event accounting.
	Evictions   int64
	Invalidates int64
}

// NewINCGeom builds an INC whose sets each span unitsPerSet units of
// capacity — one DRAM column in the device organisation, so for a
// 512 B column with 32 B units each column holds 7 data blocks plus
// the tag block (Figure 6) and sets = columns. Larger units keep the
// same associativity with proportionally fewer sets.
func NewINCGeom(capacityBytes, unitBytes uint64, ways, unitsPerSet int) *INC {
	if ways < 1 {
		panic("coherence: INC needs at least one way")
	}
	if unitsPerSet < 1 {
		panic("coherence: INC needs at least one unit per set")
	}
	sets := int(capacityBytes / (uint64(unitsPerSet) * unitBytes))
	if sets < 1 {
		sets = 1
	}
	return &INC{
		sets:   sets,
		ways:   ways,
		blocks: make([]uint64, sets*ways),
		valid:  make([]bool, sets*ways),
	}
}

func (c *INC) set(block uint64) int { return int(block % uint64(c.sets)) }

// row returns the block's set as flat-array slices.
func (c *INC) row(block uint64) (blocks []uint64, valid []bool) {
	s := c.set(block) * c.ways
	return c.blocks[s : s+c.ways], c.valid[s : s+c.ways]
}

// Lookup probes the INC for the block, updating LRU on a hit.
func (c *INC) Lookup(block uint64) bool {
	blocks, valid := c.row(block)
	for w := 0; w < c.ways; w++ {
		if valid[w] && blocks[w] == block {
			copy(blocks[1:w+1], blocks[:w])
			copy(valid[1:w+1], valid[:w])
			blocks[0] = block
			valid[0] = true
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Insert places the block at MRU, evicting the set's LRU way.
func (c *INC) Insert(block uint64) {
	blocks, valid := c.row(block)
	if valid[c.ways-1] {
		c.Evictions++
	}
	copy(blocks[1:], blocks[:c.ways-1])
	copy(valid[1:], valid[:c.ways-1])
	blocks[0] = block
	valid[0] = true
}

// Invalidate removes the block if present.
func (c *INC) Invalidate(block uint64) bool {
	blocks, valid := c.row(block)
	for w := 0; w < c.ways; w++ {
		if valid[w] && blocks[w] == block {
			c.Invalidates++
			copy(blocks[w:], blocks[w+1:])
			// The LRU way is dropped along with the invalidated block
			// (cleared before the flag compaction, so the way shifted
			// into the last slot comes up invalid as well).
			valid[c.ways-1] = false
			copy(valid[w:], valid[w+1:])
			valid[c.ways-1] = false
			return true
		}
	}
	return false
}

// IntegratedNode is the proposed processor/memory device as a
// multiprocessor node. Local data flows through the column buffers and
// the victim cache. Where remote data lands is the protocol engines'
// personality (Section 4.2): CC-NUMA caches it in the Inter-Node
// Cache, and Simple-COMA, on a node without an INC, in local page
// frames of an attraction memory.
type IntegratedNode struct {
	lat        Latencies
	unit       uint64 // coherence unit (32 B in the paper)
	line       uint64 // column (cache line) size (512 B in the paper)
	victimLine uint64 // victim cache entry size (32 B in the paper)
	dcache     *cache.SetAssoc
	victim     *cache.Victim // nil when the victim cache is disabled
	inc        *INC          // nil on a Simple-COMA node
	// poisoned marks coherence units invalidated inside a still-resident
	// column buffer line (coherence is per-unit; the column buffer keeps
	// per-unit valid bits).
	poisoned pagedBits
	// frames and fetched are the Simple-COMA attraction memory: the
	// remote pages given a local frame, and the remote blocks valid in
	// those frames.
	frames, fetched pagedBits

	ColumnFills int64
	// Allocations counts Simple-COMA page-frame allocations.
	Allocations int64
}

// NewIntegratedNodeDevice builds a node of configuration cfg
// (IntegratedPlain, IntegratedVictim or SimpleCOMA) whose column
// buffers, victim cache and INC geometry are derived from a machine
// description. Only IntegratedPlain goes without the victim cache (a
// device without one has no victim variant), and only SimpleCOMA
// without the INC. unit is the coherence unit, which the
// false-sharing ablation raises above the device's.
func NewIntegratedNodeDevice(lat Latencies, cfg Config, unit uint64, d core.Device) *IntegratedNode {
	dc, vc := d.DCache()
	n := &IntegratedNode{
		lat:        lat,
		unit:       unit,
		line:       uint64(d.DRAM.ColumnBytes),
		victimLine: uint64(d.VictimLineBytes),
		dcache:     dc,
	}
	if cfg != SimpleCOMA {
		// Each INC set spans one column of capacity regardless of the
		// ablation unit (Figure 6: 7 data blocks + 1 tag block).
		n.inc = NewINCGeom(uint64(d.INCBytes), unit, d.INCWays, d.DRAM.ColumnBytes/d.CoherenceUnitBytes)
	}
	if cfg != IntegratedPlain && vc != nil {
		// NewWithVictim claims dc's eviction hook, once: every column
		// fill stages the evicted line's most recently used sub-block
		// into vc. The node drives dc and vc itself.
		cache.NewWithVictim(dc, vc)
		n.victim = vc
	}
	return n
}

// Access implements Node.
func (n *IntegratedNode) Access(addr uint64, write, local bool) (uint64, bool) {
	block := addr / n.unit
	kind := kindOf(write)
	if !local {
		if n.inc != nil {
			return n.incAccess(addr, block)
		}
		if alloc, fetched := n.attract(addr, block, kind); fetched {
			return alloc, true
		}
	}
	// Local data, and remote data resident in the attraction memory,
	// flow through the column buffers directly.
	if n.dcache.Probe(addr) && !n.poisoned.get(block) {
		n.dcache.Access(addr, kind) // LRU update
		return n.lat.CacheHit, false
	}
	if n.victim != nil && n.victim.Lookup(addr) && !n.poisoned.get(block) {
		return n.lat.VictimHit, false
	}
	// DRAM array access fills the whole 512 B column (the paper's
	// single-cycle fill after the array access).
	n.fill(addr, kind)
	return n.lat.LocalMem, false
}

// incAccess serves a remote block through the INC, which lives in the
// DRAM array: every INC access pays the array access plus the
// tag-block check (Table 6: "Access local memory & INC: 6", plus the
// 1–2 extra cycles of Section 4.2). Only the victim cache — doubling as
// the staging area for imported data — can serve remote blocks at
// processor speed, which is precisely why it matters so much for
// WATER (Section 6.2).
func (n *IntegratedNode) incAccess(addr, block uint64) (uint64, bool) {
	if n.victim != nil && n.victim.Lookup(addr) && !n.poisoned.get(block) {
		return n.lat.VictimHit, false
	}
	if n.inc.Lookup(block) && !n.poisoned.get(block) {
		if n.victim != nil {
			n.victim.Insert(addr)
		}
		return n.lat.LocalMem + n.lat.INCExtra, false
	}
	// INC miss: fetch the block from its home node (the 512 B column
	// organisation gives the INC its 7-way associativity, which is
	// what keeps these misses rare). The caller charges the flat
	// 80-cycle remote load of Table 6; the INC array update overlaps
	// the round trip, so no array cost is added here.
	n.poisoned.clear(block)
	n.inc.Insert(block)
	if n.victim != nil {
		n.victim.Insert(addr)
	}
	return 0, true
}

// PageAllocCycles is the software page-allocation cost charged on the
// first touch of a remote page on a Simple-COMA node (an OS trap plus
// page-table work).
const PageAllocCycles = 150

// attract serves a remote block from the Simple-COMA attraction memory,
// following the cited design (Saulsbury et al., "An Argument for
// Simple COMA", HPCA'95). The first touch of a remote page allocates a
// local frame, charged PageAllocCycles. A block not valid in its frame
// is fetched from home at the 32 B block granularity, lands in local
// DRAM and fills its column; fetched reports that case, whose remote
// round trip the caller charges. A valid block returns fetched=false
// and takes the local column path, so re-accesses enjoy 1-cycle hits
// instead of the INC's array access. Frames are never reclaimed,
// matching the paper-scale working sets.
func (n *IntegratedNode) attract(addr, block uint64, kind trace.Kind) (alloc uint64, fetched bool) {
	// A page without a frame has no valid block, so alloc is only ever
	// charged together with a fetch.
	if page := addr / PageSize; !n.frames.get(page) {
		n.frames.set(page)
		n.Allocations++
		alloc = PageAllocCycles
	}
	// A fetched block is never poisoned: fetching fills its column,
	// which clears the poison, and invalidation clears fetched.
	if n.fetched.get(block) {
		return 0, false
	}
	n.fetched.set(block)
	n.fill(addr, kind)
	return alloc, true
}

// fill loads the column containing addr into the D-cache, staging the
// evicted line's MRU sub-block into the victim cache.
func (n *IntegratedNode) fill(addr uint64, kind trace.Kind) {
	n.dcache.Access(addr, kind)
	n.ColumnFills++
	// The whole column is now current, home blocks included: clear any
	// poisoned blocks in it. A remote block that is not valid in the
	// attraction memory stays unusable whatever its poison bit says,
	// because attract fetches it first.
	lineBase := addr / n.line * n.line
	for b := lineBase / n.unit; b <= (lineBase+n.line-1)/n.unit; b++ {
		n.poisoned.clear(b)
	}
}

// Invalidate implements Node.
func (n *IntegratedNode) Invalidate(base, size uint64) {
	block := base / n.unit
	if n.dcache.Probe(base) {
		n.poisoned.set(block)
	}
	if n.victim != nil {
		// The unit may span several victim-cache entries.
		for a := base; a < base+size; a += n.victimLine {
			n.victim.Invalidate(a)
		}
	}
	if n.inc != nil {
		n.inc.Invalidate(block)
	} else {
		n.fetched.clear(block)
	}
}

// ---------------------------------------------------------------------
// Reference CC-NUMA node.
// ---------------------------------------------------------------------

// ReferenceNode is the comparison CC-NUMA node: 16 KB direct-mapped
// FLC with 32 B lines and an infinite SLC.
type ReferenceNode struct {
	lat     Latencies
	unit    uint64
	flcLine uint64 // first-level cache line size (32 B in the paper)
	flc     *cache.SetAssoc
	slc     pagedBits // infinite second-level cache: block presence
}

// NewReferenceNodeDevice builds a reference node whose first-level
// cache is derived from a machine description (the D-cache fields of a
// non-integrated device). core.Reference() reproduces the paper's
// 16 KB direct-mapped FLC with 32 B lines.
func NewReferenceNodeDevice(lat Latencies, unit uint64, d core.Device) *ReferenceNode {
	flc, _ := d.DCache()
	return &ReferenceNode{
		lat:     lat,
		unit:    unit,
		flcLine: uint64(d.DCacheLineBytes),
		flc:     flc,
	}
}

// Access implements Node.
func (n *ReferenceNode) Access(addr uint64, write, local bool) (uint64, bool) {
	block := addr / n.unit
	if n.flc.Access(addr, kindOf(write)) && n.slc.get(block) {
		return n.lat.CacheHit, false
	}
	if n.slc.get(block) {
		return n.lat.SLCHit, false
	}
	n.slc.set(block)
	if local {
		return n.lat.LocalCold, false
	}
	return 0, true // caller charges RemoteLoad
}

// Invalidate implements Node.
func (n *ReferenceNode) Invalidate(base, size uint64) {
	// The unit may span several FLC lines.
	for a := base; a < base+size; a += n.flcLine {
		n.flc.Invalidate(a)
	}
	n.slc.clear(base / n.unit)
}

// ---------------------------------------------------------------------
// Machine constructors for the configurations of Figures 13–17 and the
// Simple-COMA extension.
// ---------------------------------------------------------------------

// Config selects one of the simulated systems.
type Config int

// The three systems compared in Figures 13–17, and the integrated node
// in the protocol engines' second personality.
const (
	ReferenceCCNUMA  Config = iota // FLC + infinite SLC
	IntegratedPlain                // column buffers + INC, no victim cache
	IntegratedVictim               // column buffers + victim cache + INC
	SimpleCOMA                     // column buffers + victim cache + attraction memory
)

func (c Config) String() string {
	switch c {
	case ReferenceCCNUMA:
		return "reference CC-NUMA"
	case IntegratedPlain:
		return "integrated (no victim)"
	case IntegratedVictim:
		return "integrated + victim"
	case SimpleCOMA:
		return "integrated S-COMA"
	default:
		return fmt.Sprintf("Config(%d)", int(c))
	}
}

// NewConfiguredMachine builds an n-node machine of the given config
// on the paper's devices, with the paper's 32 B coherence unit.
func NewConfiguredMachine(cfg Config, n int) *Machine {
	return NewConfiguredMachineDevices(cfg, n, BlockSize, core.Proposed(), core.Reference())
}

// NewConfiguredMachineDevices builds a machine of the given config
// whose node organisation and latencies are derived from a pair of
// machine descriptions: prop describes the integrated device (and sets
// the fabric latencies for every config), ref the conventional CC-NUMA
// node. With the default devices this reproduces the paper's machines
// exactly.
func NewConfiguredMachineDevices(cfg Config, n int, unit uint64, prop, ref core.Device) *Machine {
	if unit < 32 || unit&(unit-1) != 0 {
		panic("coherence: unit must be a power of two >= 32")
	}
	lat := LatenciesFor(prop)
	var m *Machine
	switch cfg {
	case ReferenceCCNUMA:
		m = NewMachine(n, lat, func(int) Node { return NewReferenceNodeDevice(lat, unit, ref) })
	case SimpleCOMA, IntegratedPlain, IntegratedVictim:
		if cfg == SimpleCOMA && unit != uint64(prop.CoherenceUnitBytes) {
			panic("coherence: S-COMA supports only the device's coherence unit")
		}
		m = NewMachine(n, lat, func(int) Node { return NewIntegratedNodeDevice(lat, cfg, unit, prop) })
	default:
		panic("coherence: unknown config")
	}
	m.Unit = unit
	return m
}
