package costmodel

import "testing"

// TestPaperArithmetic pins the Section 3 numbers: a 256 Mbit device at
// $25/MB is an $800 part, the CDRAM precedent prices area at ~1.43x,
// and the R4300i-class core fits the 10% (30 mm²) budget.
func TestPaperArithmetic(t *testing.T) {
	r := Evaluate(Default())
	if r.PlainDRAMDollars != 800 {
		t.Errorf("plain device = $%v, want $800", r.PlainDRAMDollars)
	}
	if r.CostPerAreaFactor < 1.42 || r.CostPerAreaFactor > 1.44 {
		t.Errorf("cost/area = %v, want ~1.43", r.CostPerAreaFactor)
	}
	// The integrated device lands between the plain $800 and the
	// paper's rounded-up $1000.
	if r.IntegratedDollars <= 800 || r.IntegratedDollars > 1000 {
		t.Errorf("integrated device = $%v, want (800, 1000]", r.IntegratedDollars)
	}
	if r.ProcessorPremium <= 0 || r.ProcessorPremium > 200 {
		t.Errorf("processor premium = $%v, want (0, 200]", r.ProcessorPremium)
	}
	if r.ProcessorAreaMM2 != 30 {
		t.Errorf("area budget = %v mm², want 30", r.ProcessorAreaMM2)
	}
	if !r.CoreFitsBudget {
		t.Error("the R4300i-class core must fit the 10% budget")
	}
	if r.ECCOverheadPercent != 12.5 {
		t.Errorf("ECC overhead = %v%%, want 12.5", r.ECCOverheadPercent)
	}
}

func TestOversizedCoreDoesNotFit(t *testing.T) {
	in := Default()
	in.CPUCoreAreaMM2 = 100 // a superscalar monster
	if Evaluate(in).CoreFitsBudget {
		t.Error("a 100 mm² core must not fit a 30 mm² budget")
	}
}

func TestPremiumScalesWithArea(t *testing.T) {
	small := Default()
	big := Default()
	big.ProcessorAreaFrac = 0.2
	if Evaluate(big).ProcessorPremium <= Evaluate(small).ProcessorPremium {
		t.Error("doubling the area fraction must raise the premium")
	}
}

// TestAreaProxyCalibration pins the proxy at the paper's device: a
// 256 Mbit array, 16 banks of 3 × 512 B buffers, a 512 B victim cache,
// and a 27 mm² core should land on the ~300 mm² Section 3 die.
func TestAreaProxyCalibration(t *testing.T) {
	m := DefaultArea()
	got := m.DeviceAreaMM2(AreaParams{
		CapacityMbit:       256,
		Banks:              16,
		BufferBytesPerBank: 3 * 512,
		VictimBytes:        512,
		CoreAreaMM2:        27,
	})
	if got < 290 || got > 310 {
		t.Errorf("paper device area = %.1f mm², want ~300", got)
	}
}

// TestAreaProxyMonotone checks that every axis costs silicon: more
// banks, wider columns (more buffer bytes), and a victim cache each
// strictly grow the proxy.
func TestAreaProxyMonotone(t *testing.T) {
	m := DefaultArea()
	base := AreaParams{CapacityMbit: 256, Banks: 16, BufferBytesPerBank: 3 * 512, VictimBytes: 0, CoreAreaMM2: 27}
	a0 := m.DeviceAreaMM2(base)

	more := base
	more.Banks = 32
	if m.DeviceAreaMM2(more) <= a0 {
		t.Error("doubling banks must grow the die")
	}
	more = base
	more.BufferBytesPerBank = 3 * 1024
	if m.DeviceAreaMM2(more) <= a0 {
		t.Error("doubling column buffers must grow the die")
	}
	more = base
	more.VictimBytes = 512
	if m.DeviceAreaMM2(more) <= a0 {
		t.Error("adding a victim cache must grow the die")
	}
}
