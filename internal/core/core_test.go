package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
)

func TestProposedValidates(t *testing.T) {
	if err := Proposed().Validate(); err != nil {
		t.Fatalf("the paper's own device must validate: %v", err)
	}
}

func TestProposedParams(t *testing.T) {
	p := Proposed().DRAM
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Banks != 16 || p.ColumnBytes != 512 || p.BuffersPerBank != 3 {
		t.Errorf("geometry: %+v", p)
	}
	if got := p.AccessNanos(); got != 30 {
		t.Errorf("access time = %v ns, want 30 (6 cycles @ 200 MHz)", got)
	}
	if p.CapacityBytes != 32<<20 {
		t.Errorf("capacity = %d, want 256 Mbit", p.CapacityBytes)
	}
}

// TestDirectoryFitsRelaxedECC derives the Section 4.2 arithmetic from
// the Hamming bound instead of trusting FreedBitsPer32B's constants: a
// SECDED code over k data bits needs the least r with 2^r >= k+r+1,
// plus one overall parity bit. Four 64-bit words against two 128-bit
// groups per 32-byte block free exactly the 14-bit directory entry.
func TestDirectoryFitsRelaxedECC(t *testing.T) {
	secded := func(dataBits int) int {
		r := 0
		for 1<<r < dataBits+r+1 {
			r++
		}
		return r + 1
	}
	if got := 4*secded(64) - 2*secded(128); got != FreedBitsPer32B() {
		t.Errorf("Hamming bound frees %d bits, FreedBitsPer32B says %d", got, FreedBitsPer32B())
	}
	if FreedBitsPer32B() != DirEntryBits {
		t.Errorf("freed bits = %d, want the %d-bit directory entry", FreedBitsPer32B(), DirEntryBits)
	}
}

func TestBandwidths(t *testing.T) {
	d := Proposed()
	if got := d.MemoryBandwidthGBs(); got != 1.6 {
		t.Errorf("datapath = %v GB/s, want 1.6 (64 bit × 200 MHz)", got)
	}
	if got := d.IOBandwidthGBs(); got != 1.25 {
		t.Errorf("I/O = %v GB/s, want 1.25 (4 × 2.5 Gbit)", got)
	}
}

// TestValidateCatchesImbalance: every structural relationship the
// paper commits to must be enforced.
func TestValidateCatchesImbalance(t *testing.T) {
	mutations := map[string]func(*Device){
		"icache size":  func(d *Device) { d.ICacheBytes = 16 << 10 },
		"icache line":  func(d *Device) { d.ICacheLineBytes = 256 },
		"dcache size":  func(d *Device) { d.DCacheBytes = 32 << 10 },
		"buffers":      func(d *Device) { d.DRAM.BuffersPerBank = 2 },
		"victim":       func(d *Device) { d.VictimEntries = 8 },
		"datapath":     func(d *Device) { d.DatapathBits = 32 },
		"links":        func(d *Device) { d.Links = 1 },
		"engines":      func(d *Device) { d.ProtocolEngines = 1 },
		"monster core": func(d *Device) { d.Cost.CPUCoreAreaMM2 = 200 },
		"broken dram":  func(d *Device) { d.DRAM.Banks = 0 },
		"zero ways": func(d *Device) {
			d.DCacheWays, d.DCacheBytes, d.DRAM.BuffersPerBank = 0, 0, 1
		},
		// 1.5 GiB of column buffers in a 32 MiB array.
		"1 Mi banks": func(d *Device) { *d = d.WithOrganisation(1<<20, 512, 16, 2) },
		// banks × column wraps to zero, so only an overflow-free
		// buffer product sees the size.
		"wrapped banks": func(d *Device) { *d = d.WithOrganisation(1<<60, 512, 16, 2) },
		// The INC lives in the DRAM array: a 64 GiB one would have
		// NewINCGeom allocate gigabytes of tags per node, and a
		// negative one panics it.
		"64 GiB INC":   func(d *Device) { d.INCBytes = 64 << 30 },
		"negative INC": func(d *Device) { d.INCBytes = -512 },
		"empty INC":    func(d *Device) { d.INCBytes = 0 },
	}
	for name, mutate := range mutations {
		d := Proposed()
		mutate(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an imbalanced device", name)
		}
	}
	ref := Reference()
	ref.Links = 0
	if err := ref.Validate(); err == nil {
		t.Error("Validate accepted a reference device without links")
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []DRAM{
		{Banks: 0, AccessCycles: 1, PrechargeCycles: 1, ColumnBytes: 512},
		{Banks: 1, AccessCycles: 0, PrechargeCycles: 1, ColumnBytes: 512},
		{Banks: 1, AccessCycles: 1, PrechargeCycles: -1, ColumnBytes: 512},
		{Banks: 1, AccessCycles: 1, PrechargeCycles: 0, ColumnBytes: 512},
		{Banks: 1, AccessCycles: 1, PrechargeCycles: 1, ColumnBytes: 100}, // not power of two
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
}

func TestCachesMatchSpec(t *testing.T) {
	dc, vc := Proposed().DCache()
	// 16 sets of two 512 B ways: one column buffer per way in each bank.
	if want := cache.NewSetAssoc(dc.Name(), 16*2*512, 512, 2); !reflect.DeepEqual(dc, want) {
		t.Errorf("D-cache instantiation %q is not 16 sets of two 512 B ways", dc.Name())
	}
	if vc == nil {
		t.Fatal("paper device built without its victim cache")
	}
	if _, vc := Proposed().WithGeometry(16, 512, 0).DCache(); vc != nil {
		t.Error("victimless device built a victim cache")
	}
}

func TestFabric(t *testing.T) {
	n := Proposed().Fabric()
	if n.Links != 4 {
		t.Errorf("fabric links = %d", n.Links)
	}
}

func TestDatasheet(t *testing.T) {
	lines := Proposed().Datasheet()
	if len(lines) < 8 {
		t.Fatalf("datasheet too short: %d lines", len(lines))
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"200 MHz", "32 MB", "16 banks", "victim", "2.5 Gbit"} {
		if !strings.Contains(joined, want) {
			t.Errorf("datasheet missing %q", want)
		}
	}
}

// TestWithOrganisation checks the four-axis re-derivation: changing
// D-cache associativity must track the DRAM buffer count so the derived
// device still validates, and the paper point must be reproduced when
// all four axes match Proposed().
func TestWithOrganisation(t *testing.T) {
	d := Proposed().WithOrganisation(16, 512, 16, 2)
	if err := d.Validate(); err != nil {
		t.Fatalf("paper point via WithOrganisation: %v", err)
	}
	if d.DCacheBytes != Proposed().DCacheBytes || d.DRAM.BuffersPerBank != Proposed().DRAM.BuffersPerBank {
		t.Errorf("WithOrganisation(paper axes) diverges from Proposed(): %+v", d)
	}
	for _, ways := range []int{1, 2, 4} {
		g := Proposed().WithOrganisation(32, 256, 8, ways)
		if err := g.Validate(); err != nil {
			t.Errorf("ways=%d: %v", ways, err)
		}
		if g.DCacheBytes != ways*32*256 {
			t.Errorf("ways=%d: D-cache %d B, want %d", ways, g.DCacheBytes, ways*32*256)
		}
		if g.DRAM.BuffersPerBank != 1+ways {
			t.Errorf("ways=%d: %d buffers per bank, want %d", ways, g.DRAM.BuffersPerBank, 1+ways)
		}
	}
}

// TestAreaMM2 pins the paper device near the Section 3 die and checks
// geometry monotonicity at the device level.
func TestAreaMM2(t *testing.T) {
	base := Proposed()
	a := base.AreaMM2()
	if a < 290 || a > 310 {
		t.Errorf("Proposed() area = %.1f mm², want ~300", a)
	}
	if more := base.WithGeometry(32, 512, 16); more.AreaMM2() <= a {
		t.Error("more banks must cost area")
	}
	if less := base.WithGeometry(16, 512, 0); less.AreaMM2() >= a {
		t.Error("dropping the victim cache must save area")
	}
}

// FuzzFromJSON feeds arbitrary machine descriptions, the -machine file
// and the daemon's "machine" field, to FromJSON: bad input must come
// back as an error, never a panic, and a device it accepts must keep
// its Inter-Node Cache inside the DRAM array that holds it.
func FuzzFromJSON(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"Name": "32-bank 256Mbit PE (256 B columns)", "DRAM": {"Banks": 32, "ColumnBytes": 256},
		  "ICacheBytes": 8192, "ICacheLineBytes": 256, "DCacheBytes": 16384, "DCacheLineBytes": 256,
		  "VictimEntries": 8}`,
		`{"INCBytes": 68719476736}`,
		`{"INCBytes": -512}`,
		`{"INCBytes": 0}`,
		`{"INCWays": 0}`,
		`{"DRAM": {"PrechargeCycles": 0}}`,
		`{"DRAM": {"Banks": 1152921504606846976}}`,
		`{"Integrated": false, "L2Bytes": 1000, "L2Ways": 3, "L2LineBytes": 7, "L2Cycles": 1}`,
		`{"NoSuchKnob": 1}`,
		`{"DRAM": `,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := FromJSON(data)
		if err != nil {
			return
		}
		if d.Integrated && (d.INCBytes <= 0 || uint64(d.INCBytes) > d.DRAM.CapacityBytes) {
			t.Fatalf("FromJSON accepted a %d B INC in a %d B array", d.INCBytes, d.DRAM.CapacityBytes)
		}
	})
}
