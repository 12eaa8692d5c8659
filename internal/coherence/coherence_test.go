package coherence

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/obs"
)

func newRefMachine(n int) *Machine {
	return NewConfiguredMachine(ReferenceCCNUMA, n)
}

// newUnitMachine builds a paper machine with a non-default coherence
// unit (the false-sharing ablation).
func newUnitMachine(cfg Config, n int, unit uint64) *Machine {
	return NewConfiguredMachineDevices(cfg, n, unit, core.Proposed(), core.Reference())
}

// newPaperINC is the paper's INC organisation at a test capacity: 7
// ways over 32 B blocks, 16 blocks of capacity (one 512 B column) per
// set.
func newPaperINC(capacityBytes uint64) *INC {
	return NewINCGeom(capacityBytes, 32, 7, 512/32)
}

func newIntMachine(n int, victim bool) *Machine {
	cfg := IntegratedPlain
	if victim {
		cfg = IntegratedVictim
	}
	return NewConfiguredMachine(cfg, n)
}

func TestHomePlacement(t *testing.T) {
	m := newRefMachine(4)
	if m.HomeOf(0) != 0 || m.HomeOf(PageSize) != 1 || m.HomeOf(4*PageSize) != 0 {
		t.Error("default interleaving wrong")
	}
	m.Place(0x100000, 3*PageSize, 2)
	for off := uint64(0); off < 3*PageSize; off += PageSize {
		if m.HomeOf(0x100000+off) != 2 {
			t.Errorf("placed page at +%#x homed at %d", off, m.HomeOf(0x100000+off))
		}
	}
	if m.HomeOf(0x100000+3*PageSize) == 2 && (0x100000/PageSize+3)%4 != 2 {
		t.Error("placement leaked past the region")
	}
}

func TestReferenceLocalLatencies(t *testing.T) {
	m := newRefMachine(2)
	lat := m.Lat
	addr := uint64(0) // home node 0
	if got := m.Access(0, addr, false); got != lat.LocalCold {
		t.Errorf("cold local access = %d, want %d", got, lat.LocalCold)
	}
	if got := m.Access(0, addr, false); got != lat.CacheHit {
		t.Errorf("FLC hit = %d, want %d", got, lat.CacheHit)
	}
	// Evict from the 16 KB FLC but not the infinite SLC.
	m.Access(0, addr+16<<10, false)
	if got := m.Access(0, addr, false); got != lat.SLCHit {
		t.Errorf("SLC hit = %d, want %d", got, lat.SLCHit)
	}
}

func TestReferenceRemoteLoad(t *testing.T) {
	m := newRefMachine(2)
	addr := uint64(PageSize) // home node 1
	if got := m.Access(0, addr, false); got != m.Lat.RemoteLoad {
		t.Errorf("remote cold load = %d, want %d", got, m.Lat.RemoteLoad)
	}
	if got := m.Access(0, addr, false); got != m.Lat.CacheHit {
		t.Errorf("cached remote = %d, want FLC hit", got)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	m := newRefMachine(4)
	addr := uint64(0)        // home 0
	m.Access(1, addr, false) // node 1 reads (remote)
	m.Access(2, addr, false) // node 2 reads
	inv := m.Invalidations
	// Home writes: must invalidate both sharers with one round trip.
	if got := m.Access(0, addr, true); got < m.Lat.InvalRT {
		t.Errorf("writing shared block = %d, want >= invalidation RT %d", got, m.Lat.InvalRT)
	}
	if m.Invalidations != inv+2 {
		t.Errorf("invalidations = %d, want %d", m.Invalidations, inv+2)
	}
	// The sharers' copies are gone: their next read is remote again.
	if got := m.Access(1, addr, false); got != m.Lat.RemoteLoad {
		t.Errorf("read after invalidation = %d, want remote load", got)
	}
}

func TestDirtyRemoteRecall(t *testing.T) {
	m := newRefMachine(2)
	addr := uint64(0)       // home 0
	m.Access(1, addr, true) // node 1 writes: dirty remote
	// Home read must recall the dirty copy.
	if got := m.Access(0, addr, false); got < m.Lat.RemoteLoad {
		t.Errorf("recall = %d, want >= remote load", got)
	}
	// Node 1's copy must be invalid now.
	if got := m.Access(1, addr, false); got != m.Lat.RemoteLoad {
		t.Errorf("old owner re-read = %d, want remote load", got)
	}
}

func TestIntegratedLocalColumnPrefetch(t *testing.T) {
	m := newIntMachine(1, false)
	// First access to a column: array access (6). The 512 B fill makes
	// the rest of the column hit at 1 cycle.
	if got := m.Access(0, 0, false); got != m.Lat.LocalMem {
		t.Errorf("cold column = %d, want %d", got, m.Lat.LocalMem)
	}
	for off := uint64(32); off < 512; off += 32 {
		if got := m.Access(0, off, false); got != m.Lat.CacheHit {
			t.Fatalf("offset %d = %d, want column-buffer hit", off, got)
		}
	}
}

func TestIntegratedINCCostsArrayAccess(t *testing.T) {
	m := newIntMachine(2, false)
	addr := uint64(PageSize) // home 1, remote for node 0
	if got := m.Access(0, addr, false); got != m.Lat.RemoteLoad {
		t.Errorf("INC cold fetch = %d, want flat remote load %d", got, m.Lat.RemoteLoad)
	}
	// Re-reads hit the INC but still pay the DRAM array + tag check.
	want := m.Lat.LocalMem + m.Lat.INCExtra
	if got := m.Access(0, addr, false); got != want {
		t.Errorf("INC hit = %d, want %d", got, want)
	}
}

func TestVictimStagesRemoteData(t *testing.T) {
	m := newIntMachine(2, true)
	addr := uint64(PageSize)
	m.Access(0, addr, false) // remote fetch; staged in victim
	if got := m.Access(0, addr, false); got != m.Lat.VictimHit {
		t.Errorf("staged re-read = %d, want victim hit %d", got, m.Lat.VictimHit)
	}
}

func TestPoisonedSubBlock(t *testing.T) {
	m := newIntMachine(2, false)
	addr := uint64(0)        // home 0
	m.Access(0, addr, false) // node 0 caches its column
	m.Access(1, addr, true)  // node 1 writes: home copy poisoned
	// Node 0's next read must not hit the stale column buffer: it
	// recalls the dirty copy (remote round trip).
	if got := m.Access(0, addr, false); got < m.Lat.RemoteLoad {
		t.Errorf("read of poisoned block = %d, want >= remote recall", got)
	}
	// But a different block in the same column is still valid.
	if got := m.Access(0, addr+64, false); got != m.Lat.CacheHit {
		t.Errorf("sibling block = %d, want column hit (per-block coherence)", got)
	}
}

// TestLocalVictimHonoursPoison: a column evicted after an
// invalidation stages its stale sub-block into the victim cache; the
// local read that follows the recall must refill the column, not hit
// the stale copy.
func TestLocalVictimHonoursPoison(t *testing.T) {
	m := newIntMachine(2, true)
	m.Access(0, 0, false) // home node 0 fills column 0
	m.Access(1, 0, true)  // node 1 writes: block 0 poisoned at node 0
	// Two more local columns in D-cache set 0 evict column 0, staging
	// its most recent sub-block (block 0) into the victim cache.
	m.Access(0, 16*512, false)
	m.Access(0, 32*512, false)
	if got, want := m.Access(0, 0, false), m.Lat.RemoteLoad+m.Lat.LocalMem; got != want {
		t.Errorf("read after recall = %d, want recall + column refill %d", got, want)
	}
}

func TestINCSevenWayAssociativity(t *testing.T) {
	inc := newPaperINC(512 * 8)
	sets := uint64(inc.sets)
	if sets < 2 {
		t.Fatalf("degenerate INC: %d sets", sets)
	}
	// Nine blocks all mapping to set 0.
	for i := uint64(0); i < 9; i++ {
		inc.Insert(i * sets)
	}
	// The two oldest must be gone; the seven newest present.
	if inc.Lookup(0) || inc.Lookup(sets) {
		t.Error("LRU blocks survived in a 7-way set")
	}
	for i := uint64(2); i < 9; i++ {
		if !inc.Lookup(i * sets) {
			t.Errorf("block %d missing", i*sets)
		}
	}
}

func TestINCInvalidate(t *testing.T) {
	inc := newPaperINC(512 * 8)
	inc.Insert(40)
	if !inc.Invalidate(40) {
		t.Error("Invalidate missed")
	}
	if inc.Lookup(40) {
		t.Error("block survived Invalidate")
	}
	if inc.Invalidate(40) {
		t.Error("double Invalidate hit")
	}
}

// TestINCEventAccounting: Evictions counts only valid LRU ways dropped
// by Insert, and Invalidates counts only blocks actually removed.
func TestINCEventAccounting(t *testing.T) {
	inc := newPaperINC(512 * 8)
	sets := uint64(inc.sets)
	// Filling the seven ways of set 0 evicts nothing.
	for i := uint64(0); i < 7; i++ {
		inc.Insert(i * sets)
	}
	if inc.Evictions != 0 {
		t.Errorf("evictions while filling = %d, want 0", inc.Evictions)
	}
	// Two more inserts displace the two LRU ways.
	inc.Insert(7 * sets)
	inc.Insert(8 * sets)
	if inc.Evictions != 2 {
		t.Errorf("evictions after overflow = %d, want 2", inc.Evictions)
	}
	// One real invalidation plus one miss: only the hit counts.
	inc.Invalidate(8 * sets)
	inc.Invalidate(8 * sets)
	if inc.Invalidates != 1 {
		t.Errorf("invalidates = %d, want 1", inc.Invalidates)
	}
}

// TestMachinePublish: machine and summed per-node statistics land in
// the registry's "coherence" family for every configuration, each
// publishing the structures it has; a nil registry is a no-op.
func TestMachinePublish(t *testing.T) {
	for _, cfg := range []Config{ReferenceCCNUMA, IntegratedPlain, IntegratedVictim, SimpleCOMA} {
		m := NewConfiguredMachine(cfg, 2)
		// Node 0 writes its own blocks (local column fills), then node 1
		// reads them (remote loads through its INC or attraction memory).
		for i := uint64(0); i < 64; i++ {
			m.Access(0, i*32, true)
		}
		for i := uint64(0); i < 64; i++ {
			m.Access(1, i*32, false)
		}
		reg := obs.NewRegistry()
		m.Publish(reg)
		counter := func(name string) int64 { return reg.Counter("coherence", name).Value() }
		if got := counter("accesses"); got != m.Accesses {
			t.Errorf("%s: accesses = %d, want %d", cfg, got, m.Accesses)
		}
		if got := counter("remote_loads"); got != m.RemoteLoads {
			t.Errorf("%s: remote_loads = %d, want %d", cfg, got, m.RemoteLoads)
		}
		var fills, allocs int64
		for _, node := range m.Nodes {
			if n, ok := node.(*IntegratedNode); ok {
				fills += n.ColumnFills
				allocs += n.Allocations
			}
		}
		if got := counter("column_fills"); got != fills {
			t.Errorf("%s: column_fills = %d, want %d", cfg, got, fills)
		}
		if got := counter("page_allocs"); got != allocs {
			t.Errorf("%s: page_allocs = %d, want %d", cfg, got, allocs)
		}
		integrated := cfg != ReferenceCCNUMA
		if (fills > 0) != integrated {
			t.Errorf("%s: %d column fills", cfg, fills)
		}
		if (allocs > 0) != (cfg == SimpleCOMA) {
			t.Errorf("%s: %d page allocations", cfg, allocs)
		}
		if inc := counter("inc_hits") + counter("inc_misses"); (inc > 0) != (integrated && cfg != SimpleCOMA) {
			t.Errorf("%s: %d INC lookups", cfg, inc)
		}
		m.Publish(nil) // must not panic
	}
}

// TestSingleWriterInvariant (property): after any access sequence, at
// most one node believes it can write a block (the directory's dirty
// owner), checked indirectly: writes by different nodes must always
// cost at least an ownership transfer when interleaved.
func TestSingleWriterInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		m := newIntMachine(4, true)
		const addr = 0
		lastWriter := -1
		for _, op := range ops {
			proc := int(op % 4)
			write := op%2 == 0
			lat := m.Access(proc, addr, write)
			if write && lastWriter >= 0 && lastWriter != proc {
				// Ownership moved: must have paid a coherence penalty.
				if lat < m.Lat.InvalRT && lat < m.Lat.RemoteLoad {
					return false
				}
			}
			if write {
				lastWriter = proc
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConfigStrings(t *testing.T) {
	for _, c := range []Config{ReferenceCCNUMA, IntegratedPlain, IntegratedVictim, Config(99)} {
		if c.String() == "" {
			t.Errorf("Config(%d) has empty string", int(c))
		}
	}
}

func TestMachineRejectsBadNodeCounts(t *testing.T) {
	for _, n := range []int{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMachine(%d) did not panic", n)
				}
			}()
			NewConfiguredMachine(ReferenceCCNUMA, n)
		}()
	}
}

func TestPlaceRejectsUnknownNode(t *testing.T) {
	m := newRefMachine(2)
	defer func() {
		if recover() == nil {
			t.Error("Place accepted an unknown node")
		}
	}()
	m.Place(0, PageSize, 5)
}

func TestUnitConstructorValidation(t *testing.T) {
	for _, unit := range []uint64{16, 48, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("unit %d accepted", unit)
				}
			}()
			newUnitMachine(IntegratedVictim, 2, unit)
		}()
	}
	// S-COMA only supports the 32 B unit.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("S-COMA with a 512 B unit accepted")
			}
		}()
		newUnitMachine(SimpleCOMA, 2, 512)
	}()
}

func TestLargeUnitInvalidatesWholeRange(t *testing.T) {
	m := newUnitMachine(IntegratedVictim, 2, 512)
	// Node 0 caches a local column; node 1 writes one block in the
	// same 512 B unit; every block of the unit must then be stale for
	// node 0 (false sharing at work).
	m.Access(0, 0, false)
	m.Access(1, 480, true)
	if got := m.Access(0, 64, false); got < m.Lat.RemoteLoad {
		t.Errorf("sibling block after unit invalidation = %d, want a recall", got)
	}
}

// TestAccessZeroAllocs: once the directory and presence tables cover
// an address range, an access that fills a column buffer (or the
// reference FLC) and evicts a resident line allocates nothing — the
// victim staging hook included.
func TestAccessZeroAllocs(t *testing.T) {
	const (
		base   = 0x100000
		region = 64 << 10 // four D-caches: every access of a sweep misses
		stride = 512
	)
	for _, cfg := range []Config{ReferenceCCNUMA, IntegratedPlain, IntegratedVictim, SimpleCOMA} {
		m := NewConfiguredMachine(cfg, 2)
		m.Place(base, region, 0)
		sweep := func() {
			for a := uint64(base); a < base+region; a += stride {
				m.Access(0, a, false)
			}
		}
		sweep() // first touch grows the directory and presence tables
		hits := m.Hits
		perSweep := testing.AllocsPerRun(10, sweep)
		if m.Hits != hits {
			t.Fatalf("%s: %d hits in the measured sweeps, want every access to fill", cfg, m.Hits-hits)
		}
		if got := perSweep / (region / stride); got > 0.01 {
			t.Errorf("%s: %.3f allocations per filling access, want 0", cfg, got)
		}
	}
}
