package coherence

import "testing"

// Element indices on either side of a page boundary and of a
// middle-array boundary, and the last block below MaxAddr.
const (
	pageEdge = pageLen
	midEdge  = pageLen * midLen
	lastUnit = MaxAddr/BlockSize - 1
)

func TestPagedBits(t *testing.T) {
	var b pagedBits
	// Sparse indices across distinct pages and middle arrays, including
	// the SPLASH block-number range (gigabyte-aligned regions / 32 B
	// units). A bitset element holds 64 bits.
	idx := []uint64{0, 1, 63, 64, 64*pageEdge - 1, 64 * pageEdge,
		64*midEdge - 1, 64 * midEdge, 0x1_0000_0000 / 32, 0x5_4000_0000 / 32,
		lastUnit}
	for _, i := range idx {
		if b.get(i) {
			t.Fatalf("bit %d set before any set()", i)
		}
		b.clear(i) // clear on an untouched page must be a no-op
		b.set(i)
		if !b.get(i) {
			t.Fatalf("bit %d not set after set()", i)
		}
	}
	for _, i := range idx {
		b.clear(i)
		if b.get(i) {
			t.Fatalf("bit %d still set after clear()", i)
		}
	}
	// Neighbours of a set bit stay clear.
	b.set(1000)
	if b.get(999) || b.get(1001) {
		t.Error("set(1000) leaked into neighbouring bits")
	}
}

func TestHomeTableUnsetAndOverwrite(t *testing.T) {
	var h homeTable
	if _, ok := h.get(42); ok {
		t.Error("empty table claims a placement")
	}
	h.set(42, 0) // node 0 must be distinguishable from "unset"
	if n, ok := h.get(42); !ok || n != 0 {
		t.Errorf("get(42) = %d,%v, want 0,true", n, ok)
	}
	h.set(42, 3)
	if n, _ := h.get(42); n != 3 {
		t.Errorf("overwrite lost: got %d, want 3", n)
	}
	if _, ok := h.get(43); ok {
		t.Error("placement leaked to a neighbouring page")
	}
	// Pages on both sides of a page and a middle-array boundary, far
	// into the SPLASH address range, and the last below MaxAddr.
	for i, p := range []uint64{pageEdge - 1, pageEdge, midEdge - 1, midEdge,
		0x5_0000_0000 / PageSize, MaxAddr/PageSize - 1} {
		if _, ok := h.get(p); ok {
			t.Errorf("page %#x placed before set", p)
		}
		h.set(p, i)
		if n, ok := h.get(p); !ok || n != i {
			t.Errorf("page %#x = %d,%v, want %d,true", p, n, ok, i)
		}
	}
	if n, _ := h.get(pageEdge - 1); n != 0 {
		t.Errorf("page %#x overwritten by its neighbour: %d", pageEdge-1, n)
	}
}

func TestDirTableZeroValueIsHomeState(t *testing.T) {
	var d paged[dirEntry]
	e := d.at(12345)
	if e.state != dirHome || e.sharers != 0 || e.owner != 0 {
		t.Errorf("fresh entry = %+v, want zero dirHome", *e)
	}
	e.state = dirDirty
	e.owner = 3
	if again := d.at(12345); again.state != dirDirty || again.owner != 3 {
		t.Error("entry is not stable storage")
	}
	// A distinct block in the same page is independent.
	if d.at(12346).state != dirHome {
		t.Error("neighbouring entry contaminated")
	}
	// Entries on both sides of a page and a middle-array boundary, a
	// sparse far entry and the last block below MaxAddr each start
	// zero and keep what is written to them.
	idx := []uint64{pageEdge - 1, pageEdge, midEdge - 1, midEdge, 0x5_4000_0000 / 32, lastUnit}
	for i, b := range idx {
		if e := d.at(b); *e != (dirEntry{}) {
			t.Errorf("entry %#x = %+v before any write, want zero", b, *e)
		}
		d.at(b).owner = int32(i + 1)
	}
	for i, b := range idx {
		if got := d.at(b).owner; got != int32(i+1) {
			t.Errorf("entry %#x owner = %d, want %d", b, got, i+1)
		}
	}
}

func TestPagedStateNoSteadyStateAllocs(t *testing.T) {
	var b pagedBits
	var d paged[dirEntry]
	b.set(100)
	d.at(100)
	allocs := testing.AllocsPerRun(100, func() {
		b.set(101)
		b.get(101)
		b.clear(101)
		d.at(101).sharers = 1
	})
	if allocs > 0 {
		t.Errorf("steady-state paged-table ops allocate %.1f per round, want 0", allocs)
	}
}
