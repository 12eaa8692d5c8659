package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// The paper's caches (Section 5), as literals: the package has no
// device description to derive them from, and the tests pin the
// mechanisms at exactly the paper's geometry.

// paperICache is the 8 KB direct-mapped I-cache: 16 column buffers of
// 512 B.
func paperICache() *SetAssoc { return NewDirectMapped("paper 8KB DM 512B", 8<<10, 512) }

// paperDCache is the 16 KB 2-way D-cache: 16 banks × 2 column buffers
// of 512 B.
func paperDCache() *SetAssoc { return NewSetAssoc("paper 16KB 2-way 512B", 16<<10, 512, 2) }

// paperVictim is the 16 × 32 B victim cache.
func paperVictim() *Victim { return NewVictim(16, VictimLineSize) }

// paperWithVictim is the D-cache plus victim cache.
func paperWithVictim() *WithVictim { return NewWithVictim(paperDCache(), paperVictim()) }

func TestDirectMappedBasics(t *testing.T) {
	c := NewDirectMapped("t", 1024, 32) // 32 sets
	if c.Access(0, trace.Load) {
		t.Error("cold access hit")
	}
	if !c.Access(0, trace.Load) {
		t.Error("second access missed")
	}
	if !c.Access(31, trace.Load) {
		t.Error("same-line access missed")
	}
	if c.Access(32, trace.Load) {
		t.Error("next-line cold access hit")
	}
	// 1024 bytes = 32 lines; address 0 and 1024 conflict.
	if c.Access(1024, trace.Load) {
		t.Error("aliasing address hit")
	}
	if c.Access(0, trace.Load) {
		t.Error("evicted line still hit")
	}
}

func TestSetAssocLRU(t *testing.T) {
	// One set, 2 ways, 32 B lines => size 64.
	c := NewSetAssoc("t", 64, 32, 2)
	a, b, cc := uint64(0), uint64(64), uint64(128)
	c.Access(a, trace.Load) // miss, a in
	c.Access(b, trace.Load) // miss, b in
	if !c.Access(a, trace.Load) {
		t.Fatal("a should hit (2 ways)")
	}
	c.Access(cc, trace.Load) // evicts LRU = b
	if c.Access(b, trace.Load) {
		t.Error("b should have been evicted (LRU)")
	}
	// That access reloaded b, evicting a's set-mate... verify a gone:
	// order now: b, c. a was evicted when b reloaded.
	if c.Access(a, trace.Load) {
		t.Error("a should have been evicted")
	}
}

func TestStatsPerKind(t *testing.T) {
	c := NewDirectMapped("t", 1024, 32)
	c.Access(0, trace.Load)     // miss
	c.Access(0, trace.Load)     // hit
	c.Access(64, trace.Store)   // miss
	c.Access(64, trace.Store)   // hit
	c.Access(128, trace.Ifetch) // miss
	s := c.Stats()
	if s.Load.Events != 1 || s.Load.Total != 2 {
		t.Errorf("load stats = %+v", s.Load)
	}
	if s.Store.Events != 1 || s.Store.Total != 2 {
		t.Errorf("store stats = %+v", s.Store)
	}
	if s.Ifetch.Events != 1 || s.Ifetch.Total != 1 {
		t.Errorf("ifetch stats = %+v", s.Ifetch)
	}
	if s.Data().Total != 4 {
		t.Errorf("aggregates wrong: %+v", s)
	}
}

func TestInvalidate(t *testing.T) {
	c := NewDirectMapped("t", 1024, 32)
	c.Access(0, trace.Load)
	if !c.Invalidate(16) {
		t.Error("Invalidate missed a resident line")
	}
	if c.Access(0, trace.Load) {
		t.Error("invalidated line hit")
	}
	if c.Invalidate(9999) {
		t.Error("Invalidate hit a non-resident line")
	}
}

func TestProposedGeometries(t *testing.T) {
	ic := paperICache()
	if ic.sets != 16 || ic.ways != 1 || ic.lineSize != 512 {
		t.Errorf("I-cache geometry: %d sets, %d ways, %d B lines",
			ic.sets, ic.ways, ic.lineSize)
	}
	dc := paperDCache()
	if dc.sets != 16 || dc.ways != 2 || dc.lineSize != 512 {
		t.Errorf("D-cache geometry: %d sets, %d ways, %d B lines",
			dc.sets, dc.ways, dc.lineSize)
	}
	v := paperVictim()
	if len(v.entries) != 16 || v.lineSize != 32 {
		t.Errorf("victim geometry: %d entries, %d B", len(v.entries), v.lineSize)
	}
}

// TestVictimAbsorbsConflicts reproduces Section 5.4's core mechanism:
// three sequential streams aliasing into one 2-way set thrash without
// the victim cache; with it, only 32 B-block boundary crossings miss.
func TestVictimAbsorbsConflicts(t *testing.T) {
	plain := paperDCache()
	withV := paperWithVictim()
	// Three streams, 8 KiB apart: same set in a 16-set 512 B cache.
	bases := []uint64{0x100000, 0x102000, 0x104000}
	run := func(c Cache) float64 {
		for i := uint64(0); i < 4096; i += 8 {
			for _, b := range bases {
				c.Access(b+i, trace.Load)
			}
		}
		return c.Stats().Data().Rate()
	}
	plainRate := run(plain)
	victimRate := run(withV)
	if plainRate < 0.9 {
		t.Errorf("plain column-buffer cache should thrash: miss rate %.3f", plainRate)
	}
	if victimRate > plainRate/3 {
		t.Errorf("victim cache should absorb conflicts: %.3f vs %.3f", victimRate, plainRate)
	}
}

// TestVictimNoMainReload verifies the paper's explicit rule: a victim
// hit does not reload the main cache (the size disparity forbids it).
func TestVictimNoMainReload(t *testing.T) {
	w := paperWithVictim()
	a := uint64(0x100000)
	b := uint64(0x102000)   // same set
	c := uint64(0x104000)   // same set
	w.Access(a, trace.Load) // a in main
	w.Access(b, trace.Load) // b in main
	w.Access(c, trace.Load) // c evicts LRU a; a's block -> victim
	if w.Main.Probe(a) {
		t.Fatal("a should be out of the main cache")
	}
	if !w.Access(a, trace.Load) {
		t.Fatal("a should hit in the victim cache")
	}
	if w.Main.Probe(a) {
		t.Error("victim hit must not reload the main cache")
	}
}

// TestVictimFillsFromEvictedMRUBlock: the victim receives the
// most-recently-accessed 32 B sub-block of the evicted line.
func TestVictimFillsFromEvictedMRUBlock(t *testing.T) {
	w := paperWithVictim()
	a := uint64(0x100000)
	w.Access(a+200, trace.Load) // a's line in main; last access at offset 200
	w.Access(a+100, trace.Load) // ...now at offset 100
	// Evict a twice over (2 ways).
	w.Access(0x102000, trace.Load)
	w.Access(0x104000, trace.Load)
	// Offset 100's 32 B block (96..127) should be in the victim cache.
	if !w.Vic.Lookup(a + 96) {
		t.Error("MRU sub-block of evicted line not in victim cache")
	}
	if w.Vic.Lookup(a + 192) {
		t.Error("non-MRU sub-block should not be in victim cache")
	}
}

// TestMissRateMonotoneInSize (property): for a random access sequence,
// a larger direct-mapped cache never has more misses (same line size —
// this holds for direct-mapped caches with power-of-two sizes under
// LRU since sets refine).
func TestMissRateMonotoneInSize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		small := NewDirectMapped("s", 4<<10, 32)
		big := NewDirectMapped("b", 16<<10, 32)
		for i := 0; i < 4000; i++ {
			addr := uint64(rng.Intn(1 << 16))
			small.Access(addr, trace.Load)
			big.Access(addr, trace.Load)
		}
		return big.Stats().Data().Events <= small.Stats().Data().Events
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestHigherAssocNoWorse (property): LRU caches of equal size obey
// inclusion-like behaviour under associativity increase for most
// workloads; we assert it statistically for random streams (allowing
// tiny violations is unnecessary: for random streams full LRU
// associativity strictly dominates in expectation, and these seeds are
// fixed by quick.Check's deterministic generator).
func TestHigherAssocNoWorse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dm := NewDirectMapped("dm", 2<<10, 32)
		fa := NewSetAssoc("fa", 2<<10, 32, 64) // fully associative
		for i := 0; i < 4000; i++ {
			// Loop-ish pattern with noise: LRU-friendly.
			addr := uint64(i%3000) * 32
			if rng.Intn(8) == 0 {
				addr = uint64(rng.Intn(1 << 14))
			}
			dm.Access(addr, trace.Load)
			fa.Access(addr, trace.Load)
		}
		// Full associativity should not be dramatically worse: allow
		// sequential-scan pathologies a 10% margin.
		return float64(fa.Stats().Data().Events) <= 1.1*float64(dm.Stats().Data().Events)+10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestVictimNeverIncreasesMisses (property): adding the victim cache
// can only convert misses into hits, never the reverse (the main cache
// state transitions are identical in both configurations).
func TestVictimNeverIncreasesMisses(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		plain := paperDCache()
		withV := paperWithVictim()
		for i := 0; i < 6000; i++ {
			var addr uint64
			switch rng.Intn(3) {
			case 0: // sequential
				addr = uint64(i) * 8
			case 1: // strided across sets
				addr = uint64(i%97) * 520
			default: // random
				addr = uint64(rng.Intn(1 << 18))
			}
			kind := trace.Load
			if rng.Intn(4) == 0 {
				kind = trace.Store
			}
			plain.Access(addr, kind)
			withV.Access(addr, kind)
		}
		return withV.Stats().Data().Events <= plain.Stats().Data().Events
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFlushClearsContents(t *testing.T) {
	c := paperDCache()
	c.Access(1234, trace.Load)
	c.Flush()
	if c.Probe(1234) {
		t.Error("line survived Flush")
	}
	if c.Stats().Data().Total != 1 {
		t.Error("Flush should retain statistics")
	}
}

func TestEvictionCallback(t *testing.T) {
	c := NewDirectMapped("t", 64, 32) // 2 sets
	var evictions []Eviction
	c.OnEvict = func(e Eviction) { evictions = append(evictions, e) }
	c.Access(0, trace.Store) // fill, dirty
	c.Access(64, trace.Load) // evicts line 0
	if len(evictions) != 1 {
		t.Fatalf("got %d evictions, want 1", len(evictions))
	}
	if evictions[0].Addr != 0 || !evictions[0].Dirty {
		t.Errorf("eviction = %+v", evictions[0])
	}
}

func TestVictimInvalidate(t *testing.T) {
	v := paperVictim()
	v.Insert(0x1000)
	if !v.Invalidate(0x1010) { // same 32 B block
		t.Error("Invalidate missed resident block")
	}
	if v.Lookup(0x1000) {
		t.Error("block survived Invalidate")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewSetAssoc("bad", 100, 32, 2) }, // not divisible
		func() { NewSetAssoc("bad", 0, 32, 1) },
		func() { NewVictim(0, 32) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid geometry")
				}
			}()
			f()
		}()
	}
}

func TestSinkAdapter(t *testing.T) {
	c := NewDirectMapped("t", 1024, 32)
	s := Sink{C: c}
	s.Ref(trace.Ref{Kind: trace.Load, Addr: 0, Size: 8})
	s.Ref(trace.Ref{Kind: trace.Load, Addr: 0, Size: 8})
	if c.Stats().Load.Total != 2 || c.Stats().Load.Events != 1 {
		t.Errorf("sink adapter stats: %+v", c.Stats().Load)
	}
}

func TestStreamBufferSequentialStream(t *testing.T) {
	sb := NewStreamBuffer(4, 4)
	// Miss at block 0 allocates a stream; blocks 1,2,3... then hit.
	if sb.Lookup(0) {
		t.Fatal("cold lookup hit")
	}
	for b := uint64(1); b < 10; b++ {
		if !sb.Lookup(b * VictimLineSize) {
			t.Fatalf("sequential block %d missed the stream buffer", b)
		}
	}
	if sb.Hits != 9 {
		t.Errorf("hits = %d, want 9", sb.Hits)
	}
}

func TestStreamBufferMultipleStreams(t *testing.T) {
	sb := NewStreamBuffer(2, 4)
	sb.Lookup(0)       // stream A
	sb.Lookup(1 << 20) // stream B
	if !sb.Lookup(VictimLineSize) {
		t.Error("stream A lost after allocating B")
	}
	if !sb.Lookup(1<<20 + VictimLineSize) {
		t.Error("stream B lost")
	}
	// A third allocation evicts the LRU stream (A, B was just used).
	sb.Lookup(2 << 20)
	if sb.Lookup(2*VictimLineSize) && sb.Hits > 3 {
		t.Error("evicted stream still hitting")
	}
}

// TestVictimBeatsStreamOnConflicts reproduces the design rationale:
// on the 3-colliding-streams pattern (the tomcatv mechanism), the
// victim cache absorbs conflicts that stream buffers cannot, because
// the conflicting re-references are to *evicted* blocks, not to the
// next sequential ones.
func TestVictimBeatsStreamOnConflicts(t *testing.T) {
	vic := paperWithVictim()
	str := NewWithStream(paperDCache(), NewStreamBuffer(4, 4))
	bases := []uint64{0x100000, 0x102000, 0x104000} // same proposed set
	run := func(c Cache) float64 {
		for i := uint64(0); i < 4096; i += 8 {
			for _, b := range bases {
				c.Access(b+i, trace.Load)
			}
		}
		return c.Stats().Data().Rate()
	}
	vicRate := run(vic)
	strRate := run(str)
	if vicRate >= strRate {
		t.Errorf("victim (%.3f) should beat stream buffers (%.3f) on conflicts",
			vicRate, strRate)
	}
}

func TestStreamBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewStreamBuffer(0, 4)
}

// TestStatsCopySemantics is the regression test for the Data()
// value-copy contract: the returned counter is an independent copy, so
// accumulating into it must never corrupt the underlying Stats. Every
// call site in the repo relies on this when it chains .Percent()/.Rate()
// off the result or folds several caches' counters together.
func TestStatsCopySemantics(t *testing.T) {
	c := NewDirectMapped("t", 1024, 32)
	c.Access(0, trace.Load)
	c.Access(0, trace.Store)
	c.Access(4096, trace.Ifetch)
	before := c.Stats()

	d := c.Stats().Data()
	d.Events += 100
	d.Total += 100
	d.Add(c.Stats().Data())

	if got := c.Stats(); got != before {
		t.Errorf("mutating a Data() result changed Stats: %+v -> %+v", before, got)
	}
	if got := c.Stats().Data(); got.Total != 2 {
		t.Errorf("Data total = %d, want 2", got.Total)
	}
}

// TestMaskModuloEquivalence pins the precomputed shift/mask index path
// against the general divide/modulo path: a power-of-two geometry and a
// non-power-of-two geometry must both match a brute-force reference
// decomposition on every access.
func TestMaskModuloEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct {
		sets uint64
		ways int
	}{
		{16, 2},  // power-of-two sets: mask path
		{12, 2},  // non-power-of-two sets: modulo path
		{256, 1}, // DM mask path
		{100, 4}, // non-power-of-two, wider
	} {
		fast := NewSetAssoc("fast", tc.sets*uint64(tc.ways)*32, 32, tc.ways)
		if fast.setPow2 != (tc.sets&(tc.sets-1) == 0) {
			t.Fatalf("sets=%d: setPow2 = %v", tc.sets, fast.setPow2)
		}
		for i := 0; i < 50_000; i++ {
			addr := uint64(rng.Intn(1 << 18))
			lineAddr, set, sub := fast.locate(addr)
			if want := addr / 32; lineAddr != want {
				t.Fatalf("sets=%d addr=%#x: lineAddr %d, want %d", tc.sets, addr, lineAddr, want)
			}
			if want := uint32(addr % 32); sub != want {
				t.Fatalf("sets=%d addr=%#x: sub %d, want %d", tc.sets, addr, sub, want)
			}
			if want := &fast.lines[(addr/32)%tc.sets][0]; &set[0] != want {
				t.Fatalf("sets=%d addr=%#x: wrong set selected", tc.sets, addr)
			}
		}
	}
}
