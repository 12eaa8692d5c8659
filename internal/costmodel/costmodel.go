// Package costmodel reproduces the cost and area arithmetic of
// Section 3 of the paper: the CDRAM-extrapolated cost of adding a
// processor to a 256 Mbit DRAM die, the die-area budget that the
// processor core and protocol engines must fit, and the resulting
// $/device comparison against a conventional CPU plus support chips.
package costmodel

// Inputs captures the paper's Section 3 assumptions; Default() returns
// them verbatim so deviations are visible at call sites.
type Inputs struct {
	DRAMCapacityMbit  float64 // 256 Mbit device
	DollarPerMByte    float64 // "today's DRAM prices of ~$25/Mbyte"
	CDRAMAreaIncrease float64 // CDRAM die-size increase (7%)
	CDRAMCostIncrease float64 // resulting cost increase (10%)
	ProcessorAreaFrac float64 // die fraction added for the processor (10%)
	DRAMDieAreaMM2    float64 // full 256 Mbit die area -> 10% = ~30 mm²
	CPUCoreAreaMM2    float64 // R4300i-class core at 0.25 µm
	ProtocolGates     int     // gates for the two protocol engines
	ECCOverheadWords  float64 // check bits per 64-bit word (8/64)
}

// Default returns the paper's numbers.
func Default() Inputs {
	return Inputs{
		DRAMCapacityMbit:  256,
		DollarPerMByte:    25,
		CDRAMAreaIncrease: 0.07,
		CDRAMCostIncrease: 0.10,
		ProcessorAreaFrac: 0.10,
		DRAMDieAreaMM2:    300, // 10% ≈ 30 mm² per the paper
		CPUCoreAreaMM2:    27,  // R4300i shrunk to 0.25 µm (< 30 mm²)
		ProtocolGates:     60000,
		ECCOverheadWords:  8.0 / 64.0,
	}
}

// Result is the derived cost breakdown.
type Result struct {
	PlainDRAMDollars   float64 // 256 Mbit device at $/MB
	IntegratedDollars  float64 // with the processor area added
	ProcessorPremium   float64 // the delta — what the CPU "costs"
	CostPerAreaFactor  float64 // cost growth per area growth (CDRAM)
	ProcessorAreaMM2   float64 // area budget for the processor
	CoreFitsBudget     bool    // CPU core fits the 10% budget
	ECCOverheadPercent float64
}

// AreaModel is the die-area proxy for the design-space search: a
// first-order decomposition of an integrated device into DRAM cell
// array, per-bank periphery, column-buffer SRAM, victim-cache CAM, and
// the processor core. It deliberately stays at the fidelity of the
// paper's own Section 3 arithmetic — good enough to rank geometries
// against each other (more banks and wider columns cost real silicon),
// not a layout tool. Default() calibrates the coefficients so the
// paper's device (256 Mbit, 16 banks x 3 x 512 B buffers, 512 B victim,
// 27 mm^2 core) lands on the ~300 mm^2 die of Section 3.
type AreaModel struct {
	CellMM2PerMbit float64 // DRAM cell array density
	BankFixedMM2   float64 // per-bank decoder/control stripe
	BufferMM2PerKB float64 // column-buffer SRAM (sense-amp latches)
	VictimMM2PerKB float64 // fully-associative victim array (CAM tags)
}

// DefaultArea returns the calibrated coefficients.
func DefaultArea() AreaModel {
	return AreaModel{
		CellMM2PerMbit: 1.0,
		BankFixedMM2:   0.35,
		BufferMM2PerKB: 0.40,
		VictimMM2PerKB: 0.80,
	}
}

// AreaParams describes one device geometry for the proxy.
type AreaParams struct {
	CapacityMbit       float64 // DRAM capacity
	Banks              int     // independent banks
	BufferBytesPerBank int     // column-buffer bytes per bank (all buffers)
	VictimBytes        int     // victim-cache capacity (0 = none)
	CoreAreaMM2        float64 // processor core
}

// DeviceAreaMM2 evaluates the proxy for one geometry.
func (m AreaModel) DeviceAreaMM2(p AreaParams) float64 {
	cells := m.CellMM2PerMbit * p.CapacityMbit
	banks := m.BankFixedMM2 * float64(p.Banks)
	buffers := m.BufferMM2PerKB * float64(p.Banks*p.BufferBytesPerBank) / 1024
	victim := m.VictimMM2PerKB * float64(p.VictimBytes) / 1024
	return cells + banks + buffers + victim + p.CoreAreaMM2
}

// Evaluate computes the Section 3 arithmetic.
func Evaluate(in Inputs) Result {
	mbytes := in.DRAMCapacityMbit / 8
	plain := mbytes * in.DollarPerMByte
	// CDRAM precedent: 7% area -> 10% cost. Scale to the processor's
	// area fraction.
	costPerArea := in.CDRAMCostIncrease / in.CDRAMAreaIncrease
	premiumFrac := in.ProcessorAreaFrac * costPerArea
	integrated := plain * (1 + premiumFrac)
	budget := in.DRAMDieAreaMM2 * in.ProcessorAreaFrac
	return Result{
		PlainDRAMDollars:   plain,
		IntegratedDollars:  integrated,
		ProcessorPremium:   integrated - plain,
		CostPerAreaFactor:  costPerArea,
		ProcessorAreaMM2:   budget,
		CoreFitsBudget:     in.CPUCoreAreaMM2 <= budget,
		ECCOverheadPercent: in.ECCOverheadWords * 100,
	}
}
