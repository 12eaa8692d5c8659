// Package core models the integrated processor/memory device itself —
// the chip of Figure 3 — as a structured, self-checking specification:
// the DRAM array and its bank organisation, the column-buffer caches
// carved out of it, the victim cache, the ECC/directory layout, the
// processor core, the protocol engines, and the serial-link fabric.
//
// The DRAM organisation is a specification, not a timing model: every
// experiment models bank contention through the Figure 9 GSPN
// (internal/cpumodel), which reads its bank count and access and
// precharge times from here.
//
// Where the other internal packages simulate behaviour, this package
// captures the *architecture*: which numbers the paper commits to and
// how they must relate (16 banks × 3 column buffers; a 64-bit datapath
// at 200 MHz delivering 1.6 GB/s; an off-chip fabric sized to match;
// an area budget the core must fit). Validate() re-derives every
// relationship so that a configuration change that breaks the paper's
// balance is caught by the test suite.
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/costmodel"
	"repro/internal/interconnect"
)

// DRAM describes a memory array organisation (Section 4.1).
type DRAM struct {
	Banks           int    // independent bank controllers
	AccessCycles    int    // row access time, in CPU cycles
	PrechargeCycles int    // bank recovery time after an access
	ColumnBytes     int    // bytes transferred per array access
	BuffersPerBank  int    // column buffers per bank
	CapacityBytes   uint64 // device capacity
	ClockMHz        int    // CPU clock the cycle counts refer to
}

// AccessNanos returns the array access time in nanoseconds.
func (p DRAM) AccessNanos() float64 {
	return float64(p.AccessCycles) * 1000 / float64(p.ClockMHz)
}

// Validate reports configuration errors.
func (p DRAM) Validate() error {
	switch {
	case p.Banks < 1:
		return fmt.Errorf("core: DRAM needs at least one bank, got %d", p.Banks)
	case p.AccessCycles < 1:
		return fmt.Errorf("core: DRAM access time must be positive, got %d", p.AccessCycles)
	case p.PrechargeCycles < 1:
		// The GSPN bank model times precharge with a deterministic
		// transition, which needs a positive delay.
		return fmt.Errorf("core: DRAM precharge time must be positive, got %d", p.PrechargeCycles)
	case p.ColumnBytes < 1 || p.ColumnBytes&(p.ColumnBytes-1) != 0:
		return fmt.Errorf("core: DRAM column size must be a power of two, got %d", p.ColumnBytes)
	default:
		return nil
	}
}

// DirEntryBits is the size of the directory entry Section 4.2 embeds
// in the ECC bits of each 32-byte coherence block: 2 bits of state
// plus a 12-bit node pointer or coarse sharing vector.
const DirEntryBits = 14

// FreedBitsPer32B returns the ECC bits freed per 32-byte block by
// relaxing the correction granularity from one error per 64 bits to
// one per 128 bits (Section 4.2). Four SECDED(72,64) words spend 32
// check bits on the block; two SECDED groups over 128 data bits spend
// 9 each. The total stored bits are unchanged.
func FreedBitsPer32B() int {
	const standard = 4 * 8 // four 64-bit words, 8 check bits each
	const relaxed = 2 * 9  // two 128-bit groups, 9 check bits each
	return standard - relaxed
}

// Device is the full integrated processing element specification.
type Device struct {
	Name string

	// ClockMHz is the processor and datapath clock.
	ClockMHz int
	// DRAM is the memory array organisation.
	DRAM DRAM
	// ICacheBytes / ICacheLineBytes: the direct-mapped instruction
	// cache built from one column buffer per bank.
	ICacheBytes, ICacheLineBytes int
	// DCacheBytes / DCacheWays / DCacheLineBytes: the data cache built
	// from two column buffers per bank.
	DCacheBytes, DCacheWays, DCacheLineBytes int
	// VictimEntries × VictimLineBytes: the fully associative victim
	// cache (one column's worth).
	VictimEntries, VictimLineBytes int
	// DatapathBits is the width of each of the two core<->memory
	// datapaths (instruction and data).
	DatapathBits int
	// Links / LinkGbit: the serial interconnect.
	Links    int
	LinkGbit float64
	// ProtocolEngines is the number of coherence/communication engines.
	ProtocolEngines int
	// INCBytes is the default Inter-Node Cache capacity.
	INCBytes int
	// INCWays is the Inter-Node Cache associativity.
	INCWays int
	// CoherenceUnitBytes is the coherence unit (directory granularity).
	CoherenceUnitBytes int
	// ScoreboardRate is the fraction of memory accesses the scoreboard
	// can overlap with execution (Section 4.1's non-blocking loads).
	ScoreboardRate float64
	// Integrated distinguishes the merged-logic/DRAM device from a
	// conventional (reference) system built from discrete parts.
	Integrated bool
	// L2Bytes/L2Ways/L2LineBytes/L2Cycles describe the board-level
	// second-level cache of the reference system; all zero on the
	// integrated device, which has none.
	L2Bytes, L2Ways, L2LineBytes, L2Cycles int
	// Cost carries the Section 3 economics.
	Cost costmodel.Inputs
}

// Proposed returns the paper's device.
func Proposed() Device {
	return Device{
		Name:     "integrated 256Mbit PE",
		ClockMHz: 200,
		// 256 Mbit in 16 banks: 30 ns access = 6 cycles at 200 MHz;
		// 512 B column buffers, 3 per bank (one for the I-cache, two
		// for the 2-way D-cache). The precharge window is half the
		// access time, consistent with the "four free cycles" the paper
		// finds within the 6-cycle access for the victim-cache copy.
		DRAM: DRAM{
			Banks:           16,
			AccessCycles:    6,
			PrechargeCycles: 3,
			ColumnBytes:     512,
			BuffersPerBank:  3,
			CapacityBytes:   32 << 20,
			ClockMHz:        200,
		},
		ICacheBytes:     8 << 10,
		ICacheLineBytes: 512,
		DCacheBytes:     16 << 10,
		DCacheWays:      2,
		DCacheLineBytes: 512,
		VictimEntries:   16,
		VictimLineBytes: 32,
		DatapathBits:    64,
		Links:           4,
		LinkGbit:        2.5,
		ProtocolEngines: 2,
		INCBytes:        1 << 20,
		INCWays:         7,

		CoherenceUnitBytes: 32,
		ScoreboardRate:     1,
		Integrated:         true,
		Cost:               costmodel.Default(),
	}
}

// Reference returns the conventional system the paper compares against:
// a discrete processor with a 16 KB direct-mapped first-level cache, a
// 256 KB board-level second-level cache, and two-bank conventional DRAM
// (Section 5's reference CC-NUMA node and the GSPN reference config).
func Reference() Device {
	return Device{
		Name:     "reference discrete-part node",
		ClockMHz: 200,
		// Dual-banked main memory behind the second-level cache, with
		// the 60 ns access typical of external DRAM of the era (12
		// cycles at 200 MHz); the GSPN reference of Section 5.5.
		DRAM: DRAM{
			Banks:           2,
			AccessCycles:    12,
			PrechargeCycles: 6,
			ColumnBytes:     32,
			BuffersPerBank:  1,
			CapacityBytes:   64 << 20,
			ClockMHz:        200,
		},
		ICacheBytes:     16 << 10,
		ICacheLineBytes: 32,
		DCacheBytes:     16 << 10,
		DCacheWays:      1,
		DCacheLineBytes: 32,
		DatapathBits:    64,
		Links:           4,
		LinkGbit:        2.5,
		ProtocolEngines: 2,

		CoherenceUnitBytes: 32,
		ScoreboardRate:     1,
		L2Bytes:            256 << 10,
		L2Ways:             2,
		L2LineBytes:        32,
		L2Cycles:           6,
		Cost:               costmodel.Default(),
	}
}

// WithGeometry re-derives the column-buffer cache organisation for a
// different bank count / column size / victim configuration, preserving
// the structural invariants Validate() checks: the I-cache is one column
// buffer per bank, the D-cache DCacheWays buffers per bank, and the
// victim cache one column's worth of entries. victimEntries == 0 drops
// the victim cache entirely.
func (d Device) WithGeometry(banks, columnBytes, victimEntries int) Device {
	d.DRAM.Banks = banks
	d.DRAM.ColumnBytes = columnBytes
	d.ICacheBytes = banks * columnBytes
	d.ICacheLineBytes = columnBytes
	d.DCacheBytes = d.DCacheWays * banks * columnBytes
	d.DCacheLineBytes = columnBytes
	d.VictimEntries = victimEntries
	if victimEntries > 0 {
		d.VictimLineBytes = columnBytes / victimEntries
	} else {
		d.VictimLineBytes = 0
	}
	return d
}

// WithOrganisation is WithGeometry plus a data-cache associativity
// change: the D-cache becomes dataWays column buffers per bank, and the
// DRAM buffer count follows (1 I + dataWays D) so Validate() still
// holds. It is the full four-axis re-derivation the design-space search
// sweeps over.
func (d Device) WithOrganisation(banks, columnBytes, victimEntries, dataWays int) Device {
	d.DCacheWays = dataWays
	d.DRAM.BuffersPerBank = 1 + dataWays
	return d.WithGeometry(banks, columnBytes, victimEntries)
}

// AreaMM2 evaluates the die-area proxy for this device's geometry: DRAM
// cells + per-bank periphery + column-buffer SRAM + victim CAM + core.
func (d Device) AreaMM2() float64 {
	m := costmodel.DefaultArea()
	return m.DeviceAreaMM2(costmodel.AreaParams{
		CapacityMbit:       float64(d.DRAM.CapacityBytes) * 8 / (1 << 20),
		Banks:              d.DRAM.Banks,
		BufferBytesPerBank: d.DRAM.BuffersPerBank * d.DRAM.ColumnBytes,
		VictimBytes:        d.VictimEntries * d.VictimLineBytes,
		CoreAreaMM2:        d.Cost.CPUCoreAreaMM2,
	})
}

// MemoryBandwidthGBs returns one datapath's bandwidth in GB/s
// (the paper: "each provides 1.6 GBytes/sec").
func (d Device) MemoryBandwidthGBs() float64 {
	return float64(d.DatapathBits) / 8 * float64(d.ClockMHz) * 1e6 / 1e9
}

// IOBandwidthGBs returns the peak raw off-chip bandwidth in GB/s.
func (d Device) IOBandwidthGBs() float64 {
	return float64(d.Links) * d.LinkGbit / 8
}

// Validate re-derives the structural relationships of Section 4.
func (d Device) Validate() error {
	if err := d.DRAM.Validate(); err != nil {
		return err
	}
	if d.CoherenceUnitBytes < 32 || d.CoherenceUnitBytes&(d.CoherenceUnitBytes-1) != 0 {
		return fmt.Errorf("core: coherence unit %d B must be a power of two >= 32", d.CoherenceUnitBytes)
	}
	if d.ScoreboardRate < 0 || d.ScoreboardRate > 1 {
		return fmt.Errorf("core: scoreboard rate %g outside [0,1]", d.ScoreboardRate)
	}
	// Every device, the reference one included, feeds the fabric study.
	if d.Links < 1 {
		return fmt.Errorf("core: %d serial links, want at least 1", d.Links)
	}
	if !d.Integrated {
		return d.validateReference()
	}
	// The I-cache is one column buffer per bank.
	if d.ICacheBytes != d.DRAM.Banks*d.DRAM.ColumnBytes {
		return fmt.Errorf("core: I-cache %d B != banks × column (%d × %d)",
			d.ICacheBytes, d.DRAM.Banks, d.DRAM.ColumnBytes)
	}
	if d.ICacheLineBytes != d.DRAM.ColumnBytes {
		return fmt.Errorf("core: I-cache line %d != column %d",
			d.ICacheLineBytes, d.DRAM.ColumnBytes)
	}
	// The D-cache is two column buffers per bank (2-way).
	if d.DCacheWays < 1 {
		return fmt.Errorf("core: D-cache of %d ways, want at least 1", d.DCacheWays)
	}
	if d.DCacheBytes != d.DCacheWays*d.DRAM.Banks*d.DRAM.ColumnBytes {
		return fmt.Errorf("core: D-cache %d B != ways × banks × column", d.DCacheBytes)
	}
	// I + D column buffers per bank must match the DRAM's buffer count.
	if want := 1 + d.DCacheWays; d.DRAM.BuffersPerBank != want {
		return fmt.Errorf("core: %d buffers per bank, want %d (1 I + %d D)",
			d.DRAM.BuffersPerBank, want, d.DCacheWays)
	}
	// The column buffers are carved out of the array, so they cannot
	// outgrow it. The product is taken without overflow: the other
	// identities hold for a wrapped one too.
	hi, perBank := bits.Mul64(uint64(d.DRAM.BuffersPerBank), uint64(d.DRAM.ColumnBytes))
	hi2, buffers := bits.Mul64(perBank, uint64(d.DRAM.Banks))
	if hi != 0 || hi2 != 0 || buffers > d.DRAM.CapacityBytes {
		return fmt.Errorf("core: %d banks × %d buffers × %d B of column buffers exceed the %d B array",
			d.DRAM.Banks, d.DRAM.BuffersPerBank, d.DRAM.ColumnBytes, d.DRAM.CapacityBytes)
	}
	// The victim cache, when present, is exactly one column's worth.
	if d.VictimEntries != 0 && d.VictimEntries*d.VictimLineBytes != d.DRAM.ColumnBytes {
		return fmt.Errorf("core: victim %d×%d B != one %d B column",
			d.VictimEntries, d.VictimLineBytes, d.DRAM.ColumnBytes)
	}
	// Datapath bandwidth: 64 bits at 200 MHz = 1.6 GB/s.
	if bw := d.MemoryBandwidthGBs(); bw < 1.5 {
		return fmt.Errorf("core: memory datapath %.2f GB/s below the paper's 1.6", bw)
	}
	// The paper sizes the fabric to match the internal bandwidth
	// (4 × 2.5 Gbit/s ≈ 1.25 GB/s raw, "matching" at the GB/s scale).
	if io := d.IOBandwidthGBs(); io < 1.0 {
		return fmt.Errorf("core: I/O bandwidth %.2f GB/s too low to balance the datapath", io)
	}
	// The directory must fit the freed ECC bits.
	if FreedBitsPer32B() < DirEntryBits {
		return fmt.Errorf("core: directory entry does not fit the relaxed ECC budget")
	}
	// The processor must fit the 10% die budget.
	if r := costmodel.Evaluate(d.Cost); !r.CoreFitsBudget {
		return fmt.Errorf("core: CPU core exceeds the %0.f mm² area budget", r.ProcessorAreaMM2)
	}
	if d.ProtocolEngines != 2 {
		return fmt.Errorf("core: %d protocol engines, want 2 (Section 4.2)", d.ProtocolEngines)
	}
	if d.INCWays < 1 {
		return fmt.Errorf("core: INC associativity %d, want >= 1", d.INCWays)
	}
	// The INC is held in the DRAM array (Figure 6), like the column
	// buffers, so it cannot outgrow it.
	if d.INCBytes <= 0 || uint64(d.INCBytes) > d.DRAM.CapacityBytes {
		return fmt.Errorf("core: INC %d B outside 1..%d B (the DRAM array)",
			d.INCBytes, d.DRAM.CapacityBytes)
	}
	if d.INCBytes%d.DRAM.ColumnBytes != 0 {
		return fmt.Errorf("core: INC %d B not a multiple of the %d B column",
			d.INCBytes, d.DRAM.ColumnBytes)
	}
	return nil
}

// validateReference checks the (much looser) conventional system: the
// column-buffer identities do not apply to discrete SRAM caches.
func (d Device) validateReference() error {
	if d.ICacheBytes < 1 || d.ICacheLineBytes < 1 || d.DCacheBytes < 1 ||
		d.DCacheWays < 1 || d.DCacheLineBytes < 1 {
		return fmt.Errorf("core: reference device needs non-empty L1 caches")
	}
	if d.L2Bytes > 0 {
		if d.L2Ways < 1 || d.L2LineBytes < 1 || d.L2Cycles < 1 {
			return fmt.Errorf("core: reference L2 %d B needs ways/line/cycles", d.L2Bytes)
		}
		if d.L2Bytes%(d.L2Ways*d.L2LineBytes) != 0 {
			return fmt.Errorf("core: reference L2 %d B not divisible into %d-way %d B lines",
				d.L2Bytes, d.L2Ways, d.L2LineBytes)
		}
	}
	return nil
}

// DCache instantiates the device's data cache and its victim cache
// (nil when the device has none), fresh and unwired. It is the one
// builder of every replayed model of the device's data side; a caller
// that uses the victim cache wires its staging with
// cache.NewWithVictim.
func (d Device) DCache() (*cache.SetAssoc, *cache.Victim) {
	dc := cache.NewSetAssoc(
		fmt.Sprintf("%dKB %d-way %dB device D-cache", d.DCacheBytes>>10, d.DCacheWays, d.DCacheLineBytes),
		uint64(d.DCacheBytes), uint64(d.DCacheLineBytes), d.DCacheWays)
	if d.VictimEntries <= 0 {
		return dc, nil
	}
	return dc, cache.NewVictim(d.VictimEntries, uint64(d.VictimLineBytes))
}

// Fabric instantiates the device's interconnect interface: Links
// links at LinkGbit, with the paper's link coding and switching.
func (d Device) Fabric() *interconnect.Node {
	p := interconnect.Default()
	p.GbitPerSec = d.LinkGbit
	return interconnect.NewNode(d.Links, p)
}

// Datasheet renders the specification as key/value lines.
func (d Device) Datasheet() []string {
	return []string{
		fmt.Sprintf("device:            %s", d.Name),
		fmt.Sprintf("clock:             %d MHz", d.ClockMHz),
		fmt.Sprintf("DRAM:              %d MB in %d banks, %d ns access",
			d.DRAM.CapacityBytes>>20, d.DRAM.Banks, int(d.DRAM.AccessNanos())),
		fmt.Sprintf("I-cache:           %d KB direct-mapped, %d B lines (column buffers)",
			d.ICacheBytes>>10, d.ICacheLineBytes),
		fmt.Sprintf("D-cache:           %d KB %d-way, %d B lines (column buffers)",
			d.DCacheBytes>>10, d.DCacheWays, d.DCacheLineBytes),
		fmt.Sprintf("victim cache:      %d × %d B fully associative",
			d.VictimEntries, d.VictimLineBytes),
		fmt.Sprintf("memory datapaths:  2 × %d bit = %.1f GB/s each",
			d.DatapathBits, d.MemoryBandwidthGBs()),
		fmt.Sprintf("interconnect:      %d × %.1f Gbit/s serial links (%.2f GB/s)",
			d.Links, d.LinkGbit, d.IOBandwidthGBs()),
		fmt.Sprintf("protocol engines:  %d (CC-NUMA / S-COMA microcode)", d.ProtocolEngines),
		fmt.Sprintf("inter-node cache:  %d MB, %d-way, in-DRAM", d.INCBytes>>20, d.INCWays),
		fmt.Sprintf("directory:         %d bits per 32 B block, in ECC", DirEntryBits),
	}
}
