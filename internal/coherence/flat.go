package coherence

import "fmt"

// Flat per-reference state. The SPLASH address spaces are a handful of
// small regions (internal/splash lays every array in a gigabyte-aligned
// window), so the directory, page-placement and per-node block-validity
// state is kept in sparse paged arrays instead of Go maps: a lookup is
// three indexings and a mask, and steady-state accesses never allocate
// or hash. A page of 4,096 elements, and the 1,024-slot middle array
// above it, are allocated by the first write that reaches them, so a
// table costs memory in proportion to the elements a run touches (one
// 64 KB directory page per 128 KB of referenced address space), not to
// the span between its regions. MaxAddr bounds the top level.

// MaxAddr bounds the simulated address space at 40 bits (1 TiB).
// Access, AccessAt and Place panic on an address at or above it, which
// keeps the top level of each paged table within 8,192 pointers.
const MaxAddr = 1 << 40

const (
	pageShift = 12 // 4,096 elements per page
	pageLen   = 1 << pageShift
	midShift  = 10 // 1,024 pages per middle array
	midLen    = 1 << midShift
)

// paged is a sparse array over uint64 indices. An element reads as the
// zero T until written: the zero dirEntry is dirHome with no sharers,
// exactly the state of a never-referenced block.
type paged[T any] struct {
	mids []*[midLen]*[pageLen]T
}

// page returns the page holding element i, or nil while no write has
// reached it.
func (p *paged[T]) page(i uint64) *[pageLen]T {
	m := i >> (pageShift + midShift)
	if m >= uint64(len(p.mids)) || p.mids[m] == nil {
		return nil
	}
	return p.mids[m][i>>pageShift%midLen]
}

// at returns element i for writing, allocating its page on first touch.
func (p *paged[T]) at(i uint64) *T {
	if pg := p.page(i); pg != nil {
		return &pg[i%pageLen]
	}
	return p.grow(i)
}

// grow allocates the middle array and page holding element i. It is
// kept out of line so that at's body stays the page lookup plus a call
// taken only on a page's first touch. (at's generic body still costs
// more than the inliner's budget, because any call costs 57 of its 80;
// the lookups page, get, clear and homeTable.get do inline.)
//
//go:noinline
func (p *paged[T]) grow(i uint64) *T {
	m := i >> (pageShift + midShift)
	for uint64(len(p.mids)) <= m {
		p.mids = append(p.mids, nil)
	}
	if p.mids[m] == nil {
		p.mids[m] = new([midLen]*[pageLen]T)
	}
	pg := &p.mids[m][i>>pageShift%midLen]
	if *pg == nil {
		*pg = new([pageLen]T)
	}
	return &(*pg)[i%pageLen]
}

// pagedBits is a sparse bitset over uint64 indices (block or page
// numbers), 64 bits to an element. get and clear on an untouched page
// allocate nothing.
type pagedBits struct{ paged[uint64] }

func (b *pagedBits) get(i uint64) bool {
	pg := b.page(i / 64)
	return pg != nil && pg[i/64%pageLen]&(1<<(i%64)) != 0
}

func (b *pagedBits) set(i uint64) { *b.at(i / 64) |= 1 << (i % 64) }

func (b *pagedBits) clear(i uint64) {
	if pg := b.page(i / 64); pg != nil {
		pg[i/64%pageLen] &^= 1 << (i % 64)
	}
}

// homeTable is the explicit page-placement table (page number -> node),
// stored as node+1 so the zero value means "unplaced".
type homeTable struct{ paged[int16] }

// get returns the placed node for the page, or ok=false when the page
// falls back to the default interleaving.
func (h *homeTable) get(page uint64) (int, bool) {
	if pg := h.page(page); pg != nil && pg[page%pageLen] != 0 {
		return int(pg[page%pageLen] - 1), true
	}
	return 0, false
}

func (h *homeTable) set(page uint64, node int) { *h.at(page) = int16(node + 1) }

// panicAddr reports an access at or above MaxAddr. It is kept out of
// line so that the bound check costs Access a compare and a branch.
//
//go:noinline
func panicAddr(addr uint64) {
	panic(fmt.Sprintf("coherence: access to %#x at or above MaxAddr (%#x)", addr, uint64(MaxAddr)))
}
