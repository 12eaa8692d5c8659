package selftest

import (
	"errors"
	"testing"

	"repro/internal/vm"
)

func TestHealthyDevicePasses(t *testing.T) {
	r, err := Run(Config{WindowBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("healthy device failed in phase %q", r.Phase)
	}
	if r.Phase != "complete" {
		t.Errorf("phase = %q", r.Phase)
	}
	if r.Instructions < int64(16<<10/8*3) {
		t.Errorf("suspiciously few instructions: %d", r.Instructions)
	}
	if r.CacheFills == 0 {
		t.Error("the march never touched the column buffers")
	}
}

// runWithFault runs the self-test with a stuck-at-zero byte at the
// given offset inside the window: it runs the CPU one instruction at a
// time and forces the byte back to zero after every instruction.
func runWithFault(cfg Config, faultAddr uint64) (*Result, error) {
	cpu, dcache, err := load(&cfg)
	if err != nil {
		return nil, err
	}
	faulty := windowBase + faultAddr
	for i := 0; i < maxInstructions && !cpu.Halted(); i++ {
		if err := cpu.Run(cpu.Instructions + 1); err != nil && !errors.Is(err, vm.ErrBudget) {
			return nil, err
		}
		if cpu.Mem.Load8(faulty) != 0 {
			cpu.Mem.Store8(faulty, 0)
		}
	}
	return summarise(cpu, cfg, dcache), nil
}

func TestStuckAtFaultDetected(t *testing.T) {
	r, err := runWithFault(Config{WindowBytes: 16 << 10}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if r.Passed {
		t.Fatal("stuck-at-zero cell went undetected")
	}
	verifyPhases := map[string]bool{
		"march-down": true, "checksum": true, "checkerboard": true, "walking-ones": true,
	}
	if !verifyPhases[r.Phase] {
		t.Errorf("fault detected in phase %q, want a verify phase", r.Phase)
	}
}

func TestFaultAtWindowEdge(t *testing.T) {
	r, err := runWithFault(Config{WindowBytes: 16 << 10}, 16<<10-8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Passed {
		t.Error("edge fault went undetected")
	}
}

func TestBadWindowRejected(t *testing.T) {
	if _, err := Run(Config{WindowBytes: 13}); err == nil {
		t.Error("unaligned window accepted")
	}
}

func TestDefaultWindow(t *testing.T) {
	r, err := Run(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.MemoryBytes != 64<<10 || !r.Passed {
		t.Errorf("default run: %+v", r)
	}
}

func TestWalkingOnesCoversColumns(t *testing.T) {
	r, err := Run(Config{WindowBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("failed in %q", r.Phase)
	}
	// 6 phases over 8 KiB: the walking-ones phase alone is 64 writes ×
	// 16 columns, so the total must comfortably exceed the march cost.
	if r.Instructions < 8<<10/8*6 {
		t.Errorf("only %d instructions for the full phase set", r.Instructions)
	}
}
