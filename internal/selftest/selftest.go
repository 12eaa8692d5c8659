// Package selftest implements the paper's Section 3 testability
// argument: because the integrated device is a complete system, it can
// be tested by downloading a self-test program over its serial links —
// "this requires just two signal connections in addition to the power
// supply" — instead of a CPU-style or DRAM-style external tester.
//
// The self-test is a real program for the simulated device, assembled
// from generated source: a classic march-C style memory test over a
// configurable window, an ALU/branch verification block, a cache
// exerciser that pushes lines through the column buffers and the
// victim cache, and a checksum that the host verifies. A fault is
// reported with the failing phase.
package selftest

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/vm"
)

// Result reports a self-test run.
type Result struct {
	Passed       bool
	Phase        string // failing phase when !Passed
	Instructions int64
	MemoryBytes  uint64 // memory window exercised
	CacheFills   int64  // column-buffer fills observed
}

// Config sizes the self-test.
type Config struct {
	// WindowBytes is the memory window marched over (default 64 KiB —
	// a full tester pass over 32 MB is the same loop with a larger
	// constant, exactly as on the real device).
	WindowBytes uint64
}

// phase result codes written by the program into r28.
const (
	codeOK         = 0
	codeALU        = 1
	codeMarchUp    = 2
	codeMarchDn    = 3
	codeChecksum   = 4
	codeChecker    = 5
	codeWalkingOne = 6
)

// windowBase is the address of the window's first byte.
const windowBase = 0x1000000

// source generates the self-test program.
func source(windowBytes uint64) string {
	return fmt.Sprintf(`
	.text 0x1000
main:	li r28, %d              # presumed-failing phase: ALU
	# --- phase 1: ALU and branch verification -------------------
	li r1, 41
	addi r1, r1, 1
	li r2, 42
	bne r1, r2, fail
	muli r3, r1, 3
	li r4, 126
	bne r3, r4, fail
	slli r5, r2, 4
	srli r5, r5, 4
	bne r5, r2, fail
	not r6, r0
	addi r6, r6, 1           # -1 + 1 = 0
	bne r6, zero, fail

	# --- phase 2: march up (write address-derived pattern) ------
	li r28, %d
	li r10, 0x%x             # window base
	li r11, %d               # window bytes
	add r12, r10, r11        # end
up:	xori r4, r10, 0x5a5a
	sd r4, 0(r10)
	addi r10, r10, 8
	bne r10, r12, up

	# --- phase 3: march down (verify, then invert) --------------
	li r28, %d
	mv r10, r12
	li r14, 0x%x             # window base
down:	addi r10, r10, -8
	ld r4, 0(r10)
	xori r5, r10, 0x5a5a
	bne r4, r5, fail
	not r4, r4
	sd r4, 0(r10)
	bne r10, r14, down

	# --- phase 4: checksum of the inverted window ---------------
	li r28, %d
	li r10, 0x%x
	li r7, 0
cksum:	ld r4, 0(r10)
	xori r5, r10, 0x5a5a
	not r5, r5
	bne r4, r5, fail
	add r7, r7, r4
	addi r10, r10, 8
	bne r10, r12, cksum

	# --- phase 5: checkerboard (alternating bit pattern) ---------
	li r28, %d
	li r10, 0x%x
	li r20, 0x5555
	muli r20, r20, 0x10001           # 0x55555555
	muli r20, r20, 0x100000001       # 0x5555555555555555
	not r21, r20                     # 0xaaaa...
chkw:	sd r20, 0(r10)
	sd r21, 8(r10)
	addi r10, r10, 16
	bne r10, r12, chkw
	li r10, 0x%x
chkr:	ld r4, 0(r10)
	bne r4, r20, fail
	ld r4, 8(r10)
	bne r4, r21, fail
	addi r10, r10, 16
	bne r10, r12, chkr

	# --- phase 6: walking ones through one word per column -------
	li r28, %d
	li r10, 0x%x
wcol:	li r5, 1
	li r6, 0
wbit:	sd r5, 0(r10)
	ld r4, 0(r10)
	bne r4, r5, fail
	slli r5, r5, 1
	addi r6, r6, 1
	slti r4, r6, 64
	bne r4, zero, wbit
	addi r10, r10, 512               # next column
	bltu r10, r12, wcol

	li r28, %d               # all phases passed
	halt
fail:	halt
`, codeALU, codeMarchUp, windowBase, windowBytes, codeMarchDn, windowBase,
		codeChecksum, windowBase, codeChecker, windowBase, windowBase,
		codeWalkingOne, windowBase, codeOK)
}

// maxInstructions bounds a self-test run.
const maxInstructions = 200_000_000

// Run executes the self-test against the device model.
func Run(cfg Config) (*Result, error) {
	cpu, dcache, err := load(&cfg)
	if err != nil {
		return nil, err
	}
	if err := cpu.Run(maxInstructions); err != nil {
		return nil, err
	}
	return summarise(cpu, cfg, dcache), nil
}

// load defaults cfg's window and loads the self-test program for it
// into a CPU whose data references feed the proposed D-cache.
func load(cfg *Config) (*vm.CPU, *cache.WithVictim, error) {
	if cfg.WindowBytes == 0 {
		cfg.WindowBytes = 64 << 10
	}
	if cfg.WindowBytes%8 != 0 {
		return nil, nil, fmt.Errorf("selftest: window must be a multiple of 8 bytes")
	}
	prog, err := asm.Assemble(source(cfg.WindowBytes))
	if err != nil {
		return nil, nil, fmt.Errorf("selftest: generator bug: %w", err)
	}
	dcache := cache.NewWithVictim(core.Proposed().DCache())
	return vm.New(prog, cache.Replay{dcache}), dcache, nil
}

func summarise(cpu *vm.CPU, cfg Config, dcache *cache.WithVictim) *Result {
	code := cpu.Regs[28]
	r := &Result{
		Passed:       code == codeOK,
		Instructions: cpu.Instructions,
		MemoryBytes:  cfg.WindowBytes,
		CacheFills:   dcache.Main.Fills,
	}
	switch code {
	case codeOK:
		r.Phase = "complete"
	case codeALU:
		r.Phase = "alu/branch"
	case codeMarchUp:
		r.Phase = "march-up"
	case codeMarchDn:
		r.Phase = "march-down"
	case codeChecksum:
		r.Phase = "checksum"
	case codeChecker:
		r.Phase = "checkerboard"
	case codeWalkingOne:
		r.Phase = "walking-ones"
	default:
		r.Phase = fmt.Sprintf("unknown(%d)", code)
	}
	return r
}
