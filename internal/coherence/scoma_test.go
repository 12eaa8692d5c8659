package coherence

import "testing"

func TestSCOMAFirstTouchAllocates(t *testing.T) {
	m := NewConfiguredMachine(SimpleCOMA, 2)
	addr := uint64(PageSize) // home node 1, remote for node 0
	got := m.Access(0, addr, false)
	// First touch: page allocation + remote block fetch.
	want := uint64(PageAllocCycles) + m.Lat.RemoteLoad
	if got != want {
		t.Errorf("first touch = %d, want %d", got, want)
	}
	node := m.Nodes[0].(*IntegratedNode)
	if node.Allocations != 1 {
		t.Errorf("allocations = %d, want 1", node.Allocations)
	}
}

func TestSCOMAReaccessIsLocalSpeed(t *testing.T) {
	m := NewConfiguredMachine(SimpleCOMA, 2)
	addr := uint64(PageSize)
	m.Access(0, addr, false) // alloc + fetch (also primes the column)
	// Re-access: column buffer hit — the whole point of S-COMA.
	if got := m.Access(0, addr, false); got != m.Lat.CacheHit {
		t.Errorf("re-access = %d, want column-buffer hit %d", got, m.Lat.CacheHit)
	}
}

func TestSCOMASecondBlockSamePageNoAlloc(t *testing.T) {
	m := NewConfiguredMachine(SimpleCOMA, 2)
	m.Access(0, PageSize, false)
	// Another block in the same page: fetch but no allocation trap.
	got := m.Access(0, PageSize+4*BlockSize, false)
	if got != m.Lat.RemoteLoad {
		t.Errorf("second block = %d, want plain remote load %d", got, m.Lat.RemoteLoad)
	}
}

func TestSCOMAInvalidationForcesRefetch(t *testing.T) {
	m := NewConfiguredMachine(SimpleCOMA, 2)
	addr := uint64(PageSize)
	m.Access(0, addr, false) // node 0 caches it
	m.Access(1, addr, true)  // home writes: node 0's copy invalidated
	got := m.Access(0, addr, false)
	if got < m.Lat.RemoteLoad {
		t.Errorf("read after invalidation = %d, want >= remote refetch", got)
	}
}

// TestSCOMAHomeBlockRefreshedByFill: a home block that a remote
// writer invalidated is recalled and refilled once; the refill makes
// the column current again, so later reads hit the column buffer
// instead of refilling it on every access.
func TestSCOMAHomeBlockRefreshedByFill(t *testing.T) {
	m := NewConfiguredMachine(SimpleCOMA, 2)
	m.Access(0, 0, false) // home node 0 fills its column
	m.Access(1, 0, true)  // node 1 writes: node 0's copy is poisoned
	if got, want := m.Access(0, 0, false), m.Lat.RemoteLoad+m.Lat.LocalMem; got != want {
		t.Errorf("recall = %d, want %d", got, want)
	}
	for i := 0; i < 3; i++ {
		if got := m.Access(0, 0, false); got != m.Lat.CacheHit {
			t.Fatalf("read %d after the refill = %d, want column-buffer hit %d", i, got, m.Lat.CacheHit)
		}
	}
}

func TestSCOMALocalDataUnaffected(t *testing.T) {
	m := NewConfiguredMachine(SimpleCOMA, 2)
	if got := m.Access(0, 0, false); got != m.Lat.LocalMem {
		t.Errorf("local cold = %d, want %d", got, m.Lat.LocalMem)
	}
	if got := m.Access(0, 64, false); got != m.Lat.CacheHit {
		t.Errorf("local column hit = %d, want %d", got, m.Lat.CacheHit)
	}
	node := m.Nodes[0].(*IntegratedNode)
	if node.Allocations != 0 {
		t.Error("local accesses must not allocate frames")
	}
}

func TestSCOMAConfigString(t *testing.T) {
	if SimpleCOMA.String() != "integrated S-COMA" {
		t.Errorf("got %q", SimpleCOMA.String())
	}
	m := NewConfiguredMachine(SimpleCOMA, 2)
	if len(m.Nodes) != 2 {
		t.Error("configured machine wrong")
	}
}

func TestEngineOccupancyQueues(t *testing.T) {
	m := NewConfiguredMachine(IntegratedVictim, 2)
	m.EnableEngines(1)
	// Two back-to-back remote fetches at the same instant: the second
	// must queue behind the first on the single home engine.
	l1 := m.AccessAt(0, PageSize, false, 1000)
	l2 := m.AccessAt(0, PageSize+64, false, 1000)
	if l2 <= l1 {
		t.Errorf("second transaction did not queue: %d vs %d", l2, l1)
	}
	q, n := m.EngineStats()
	if q == 0 || n < 2 {
		t.Errorf("engine stats: queue=%d transactions=%d", q, n)
	}
}

func TestEngineDisabledByDefault(t *testing.T) {
	m := NewConfiguredMachine(IntegratedVictim, 2)
	a := m.AccessAt(0, PageSize, false, 0)
	if a != m.Lat.RemoteLoad {
		t.Errorf("AccessAt without engines = %d, want plain %d", a, m.Lat.RemoteLoad)
	}
	if q, n := m.EngineStats(); q != 0 || n != 0 {
		t.Error("engine stats nonzero without EnableEngines")
	}
}

func TestCacheHitsBypassEngines(t *testing.T) {
	m := NewConfiguredMachine(IntegratedVictim, 2)
	m.EnableEngines(1)
	m.AccessAt(0, 0, false, 0) // local cold fill (uses engine)
	_, before := m.EngineStats()
	m.AccessAt(0, 0, false, 100) // column-buffer hit
	_, after := m.EngineStats()
	if after != before {
		t.Error("a cache hit must not occupy a protocol engine")
	}
}
