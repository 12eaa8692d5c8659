package vm

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/trace"
)

func run(t *testing.T, src string) *CPU {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p, trace.Discard)
	if err := c.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !c.Halted() {
		t.Fatal("program did not halt")
	}
	return c
}

func TestArithmetic(t *testing.T) {
	c := run(t, `
	main:	li  r1, 7
		li  r2, 5
		add r3, r1, r2
		sub r4, r1, r2
		mul r5, r1, r2
		div r6, r1, r2
		rem r7, r1, r2
		halt
	`)
	want := map[int]uint64{3: 12, 4: 2, 5: 35, 6: 1, 7: 2}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, c.Regs[r], v)
		}
	}
}

func TestSignedOps(t *testing.T) {
	c := run(t, `
	main:	li   r1, -8
		li   r2, 3
		div  r3, r1, r2
		srai r4, r1, 1
		slt  r5, r1, r2
		sltu r6, r1, r2
		halt
	`)
	if got := int64(c.Regs[3]); got != -2 {
		t.Errorf("div -8/3 = %d, want -2", got)
	}
	if got := int64(c.Regs[4]); got != -4 {
		t.Errorf("srai -8>>1 = %d, want -4", got)
	}
	if c.Regs[5] != 1 {
		t.Errorf("slt(-8,3) = %d, want 1", c.Regs[5])
	}
	if c.Regs[6] != 0 {
		t.Errorf("sltu(big,3) = %d, want 0", c.Regs[6])
	}
}

func TestRegisterZeroImmutable(t *testing.T) {
	c := run(t, `
	main:	li  r0, 99
		add r1, r0, r0
		halt
	`)
	if c.Regs[0] != 0 || c.Regs[1] != 0 {
		t.Errorf("r0 = %d, r1 = %d; r0 must stay 0", c.Regs[0], c.Regs[1])
	}
}

func TestLoadsStoresAllWidths(t *testing.T) {
	c := run(t, `
	main:	la  r1, buf
		li  r2, -1
		sb  r2, 0(r1)
		lbu r3, 0(r1)
		lb  r4, 0(r1)
		li  r5, 0x1234
		sh  r5, 8(r1)
		lhu r6, 8(r1)
		li  r7, 0x12345678
		sw  r7, 16(r1)
		lw  r8, 16(r1)
		sd  r7, 24(r1)
		ld  r9, 24(r1)
		halt
		.data
	buf:	.space 64
	`)
	if c.Regs[3] != 0xff {
		t.Errorf("lbu = %#x, want 0xff", c.Regs[3])
	}
	if int64(c.Regs[4]) != -1 {
		t.Errorf("lb = %d, want -1", int64(c.Regs[4]))
	}
	if c.Regs[6] != 0x1234 {
		t.Errorf("lhu = %#x", c.Regs[6])
	}
	if c.Regs[8] != 0x12345678 {
		t.Errorf("lw = %#x", c.Regs[8])
	}
	if c.Regs[9] != 0x12345678 {
		t.Errorf("ld = %#x", c.Regs[9])
	}
}

func TestSignExtensionLoadWord(t *testing.T) {
	c := run(t, `
	main:	la r1, buf
		li r2, -2
		sw r2, 0(r1)
		lw r3, 0(r1)
		lwu r4, 0(r1)
		halt
		.data
	buf:	.space 8
	`)
	if int64(c.Regs[3]) != -2 {
		t.Errorf("lw sign extension: %d, want -2", int64(c.Regs[3]))
	}
	if c.Regs[4] != 0xfffffffe {
		t.Errorf("lwu zero extension: %#x, want 0xfffffffe", c.Regs[4])
	}
}

func TestLoop(t *testing.T) {
	c := run(t, `
	main:	li r1, 0
		li r2, 0
	loop:	add r2, r2, r1
		addi r1, r1, 1
		slti r3, r1, 101
		bne r3, zero, loop
		halt
	`)
	if c.Regs[2] != 5050 {
		t.Errorf("sum 0..100 = %d, want 5050", c.Regs[2])
	}
	if c.Branches == 0 || c.TakenBranches == 0 {
		t.Error("branch counters not maintained")
	}
}

func TestCallRet(t *testing.T) {
	c := run(t, `
	main:	li r1, 10
		call double
		call double
		halt
	double:	add r1, r1, r1
		ret
	`)
	if c.Regs[1] != 40 {
		t.Errorf("after two calls r1 = %d, want 40", c.Regs[1])
	}
}

func TestFloatOps(t *testing.T) {
	c := run(t, `
	main:	la r1, vals
		ld r2, 0(r1)
		ld r3, 8(r1)
		fadd r4, r2, r3
		fmul r5, r2, r3
		fdiv r6, r2, r3
		fsqrt r7, r5
		cvtfi r8, r4
		li  r9, 7
		cvtif r10, r9
		halt
		.data
	vals:	.double 6.0, 1.5
	`)
	if f := math.Float64frombits(c.Regs[4]); f != 7.5 {
		t.Errorf("fadd = %v, want 7.5", f)
	}
	if f := math.Float64frombits(c.Regs[5]); f != 9.0 {
		t.Errorf("fmul = %v, want 9", f)
	}
	if f := math.Float64frombits(c.Regs[6]); f != 4.0 {
		t.Errorf("fdiv = %v, want 4", f)
	}
	if f := math.Float64frombits(c.Regs[7]); f != 3.0 {
		t.Errorf("fsqrt = %v, want 3", f)
	}
	if c.Regs[8] != 7 {
		t.Errorf("cvtfi = %d, want 7", c.Regs[8])
	}
	if f := math.Float64frombits(c.Regs[10]); f != 7.0 {
		t.Errorf("cvtif = %v, want 7", f)
	}
	if c.FloatOps != 6 {
		t.Errorf("FloatOps = %d, want 6", c.FloatOps)
	}
}

func TestTraceEvents(t *testing.T) {
	p := asm.MustAssemble(`
	main:	la r1, buf
		lw r2, 0(r1)
		sw r2, 4(r1)
		halt
		.data
	buf:	.space 16
	`)
	var counts trace.Counts
	var refs []trace.Ref
	sink := trace.Tee{&counts, trace.SinkFunc(func(r trace.Ref) { refs = append(refs, r) })}
	c := New(p, sink)
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if counts.Ifetches != 4 {
		t.Errorf("ifetches = %d, want 4", counts.Ifetches)
	}
	if counts.Loads != 1 || counts.Stores != 1 {
		t.Errorf("loads/stores = %d/%d, want 1/1", counts.Loads, counts.Stores)
	}
	// The load must be to buf, size 4.
	base := p.Symbols["buf"]
	var sawLoad bool
	for _, r := range refs {
		if r.Kind == trace.Load {
			sawLoad = true
			if r.Addr != base || r.Size != 4 {
				t.Errorf("load ref = %+v, want addr %#x size 4", r, base)
			}
		}
	}
	if !sawLoad {
		t.Error("no load event observed")
	}
}

func TestBudget(t *testing.T) {
	p := asm.MustAssemble(`
	main:	j main
	`)
	c := New(p, trace.Discard)
	err := c.Run(1000)
	if !errors.Is(err, ErrBudget) {
		t.Errorf("Run = %v, want ErrBudget", err)
	}
	if c.Instructions != 1000 {
		t.Errorf("instructions = %d, want 1000", c.Instructions)
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	p := asm.MustAssemble(`
	main:	li r1, 1
		div r2, r1, r0
		halt
	`)
	c := New(p, trace.Discard)
	err := c.Run(0)
	if err == nil || !strings.Contains(err.Error(), "divide by zero") {
		t.Errorf("Run = %v, want divide-by-zero fault", err)
	}
}

func TestFetchOutsideCodeFaults(t *testing.T) {
	p := asm.MustAssemble(`
	main:	jalr r0, r0, 0x9000000
	`)
	c := New(p, trace.Discard)
	err := c.Run(0)
	if err == nil || !strings.Contains(err.Error(), "outside code segment") {
		t.Errorf("Run = %v, want fetch fault", err)
	}
}

func TestSparseMemory(t *testing.T) {
	m := NewMemory()
	m.Write(0x12345678, 8, 0xdeadbeefcafef00d)
	if got := m.Read(0x12345678, 8); got != 0xdeadbeefcafef00d {
		t.Errorf("read back %#x", got)
	}
	// Cross-page access (pages are 64 KiB).
	m.Write(0xFFFC, 8, 0x1122334455667788)
	if got := m.Read(0xFFFC, 8); got != 0x1122334455667788 {
		t.Errorf("cross-page read back %#x", got)
	}
	if got := m.Read(0x999999999, 4); got != 0 {
		t.Errorf("untouched memory = %#x, want 0", got)
	}
	if len(m.pages) > 3 {
		t.Errorf("pages allocated = %d, want sparse (<=3)", len(m.pages))
	}
}

func TestMemoryLittleEndian(t *testing.T) {
	m := NewMemory()
	m.Write(100, 4, 0x04030201)
	for i, want := range []byte{1, 2, 3, 4} {
		if got := m.Load8(100 + uint64(i)); got != want {
			t.Errorf("byte %d = %d, want %d", i, got, want)
		}
	}
}

func TestDataSegmentLoaded(t *testing.T) {
	p := asm.MustAssemble(`
	main:	la r1, tab
		lw r2, 8(r1)
		halt
		.data
	tab:	.word 10, 20, 30
	`)
	c := New(p, trace.Discard)
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if c.Regs[2] != 30 {
		t.Errorf("loaded %d, want 30", c.Regs[2])
	}
}

func TestJalLinksCorrectAddress(t *testing.T) {
	p := asm.MustAssemble(`
		.text 0x1000
	main:	call fn
		halt
	fn:	ret
	`)
	c := New(p, trace.Discard)
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	// After return, ra should hold main+4 = 0x1004.
	if c.Regs[isa.RegRA] != 0x1004 {
		t.Errorf("ra = %#x, want 0x1004", c.Regs[isa.RegRA])
	}
}

func TestLuiAndJalr(t *testing.T) {
	c := run(t, `
	main:	lui r1, 0x1234
		srli r2, r1, 16
		la r3, fn
		jalr ra, r3, 0
		halt
	fn:	li r4, 9
		ret
	`)
	if c.Regs[1] != 0x12340000 || c.Regs[2] != 0x1234 {
		t.Errorf("lui: r1=%#x r2=%#x", c.Regs[1], c.Regs[2])
	}
	if c.Regs[4] != 9 {
		t.Error("indirect call did not run")
	}
}

func TestCrossPageStore(t *testing.T) {
	m := NewMemory()
	// Write straddling the 64 KiB page boundary.
	m.Write(0xFFFE, 4, 0xAABBCCDD)
	if got := m.Read(0xFFFE, 4); got != 0xAABBCCDD {
		t.Errorf("cross-page read = %#x", got)
	}
	// Little-endian: 0xDD 0xCC 0xBB 0xAA from 0xFFFE.
	if m.Load8(0x10001) != 0xAA {
		t.Errorf("byte past the boundary = %#x, want 0xAA", m.Load8(0x10001))
	}
}

func TestRunToHaltUnbounded(t *testing.T) {
	p := asm.MustAssemble("main: li r1, 3\nhalt")
	c := New(p, trace.Discard)
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Error("did not halt")
	}
}

func TestRemByZeroFaults(t *testing.T) {
	p := asm.MustAssemble("main: li r1, 5\nrem r2, r1, r0\nhalt")
	c := New(p, trace.Discard)
	if err := c.Run(0); err == nil || !strings.Contains(err.Error(), "remainder by zero") {
		t.Errorf("err = %v", err)
	}
}
