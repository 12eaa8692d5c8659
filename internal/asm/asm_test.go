package asm

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestAssembleBasic(t *testing.T) {
	p, err := Assemble(`
		.text 0x1000
	main:	li   r1, 5
		addi r2, r1, 3
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 0x1000 {
		t.Errorf("entry = %#x, want 0x1000", p.Entry)
	}
	if len(p.Code) != 3 {
		t.Fatalf("code length = %d, want 3", len(p.Code))
	}
	if p.Code[0].Op != isa.OpAddi || p.Code[0].Rd != 1 || p.Code[0].Imm != 5 {
		t.Errorf("li expansion wrong: %v", p.Code[0])
	}
	if p.Code[2].Op != isa.OpHalt {
		t.Errorf("instruction 2 = %v, want halt", p.Code[2])
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p, err := Assemble(`
		.text 0x2000
	main:	li r1, 0
	loop:	addi r1, r1, 1
		slti r2, r1, 10
		bne  r2, zero, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	// loop is the second instruction: 0x2000 + 4.
	if got := p.Symbols["loop"]; got != 0x2004 {
		t.Errorf("loop = %#x, want 0x2004", got)
	}
	br := p.Code[3]
	if br.Op != isa.OpBne || uint64(br.Imm) != 0x2004 {
		t.Errorf("branch = %v, want bne to 0x2004", br)
	}
}

func TestMemOperands(t *testing.T) {
	p, err := Assemble(`
		.text
	main:	lw  r1, 8(r2)
		sw  r3, -4(sp)
		ld  r4, 0(r5)
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if ins := p.Code[0]; ins.Op != isa.OpLw || ins.Rd != 1 || ins.Rs1 != 2 || ins.Imm != 8 {
		t.Errorf("lw = %+v", ins)
	}
	if ins := p.Code[1]; ins.Op != isa.OpSw || ins.Rs2 != 3 || ins.Rs1 != isa.RegSP || ins.Imm != -4 {
		t.Errorf("sw = %+v", ins)
	}
}

func TestDataDirectives(t *testing.T) {
	p, err := Assemble(`
		.text
	main:	la r1, arr
		halt
		.data 0x100000
	arr:	.word 1, 2, 3
	vals:	.dword 0x1122334455667788
	pi:	.double 3.25
	buf:	.space 16, 0xff
	`)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Symbols["arr"]; got != 0x100000 {
		t.Errorf("arr = %#x, want 0x100000", got)
	}
	if got := p.Symbols["vals"]; got != 0x10000c {
		t.Errorf("vals = %#x, want 0x10000c", got)
	}
	if got := p.Symbols["buf"]; got != 0x10001c {
		t.Errorf("buf = %#x, want 0x10001c", got)
	}
	if len(p.Data) != 1 {
		t.Fatalf("segments = %d, want 1 merged segment", len(p.Data))
	}
	b := p.Data[0].Bytes
	if b[0] != 1 || b[4] != 2 || b[8] != 3 {
		t.Errorf("words wrong: % x", b[:12])
	}
	if b[12] != 0x88 || b[19] != 0x11 {
		t.Errorf("dword wrong: % x", b[12:20])
	}
	if b[28] != 0xff || b[43] != 0xff {
		t.Errorf("space fill wrong: % x", b[28:44])
	}
}

func TestAlignAndOrg(t *testing.T) {
	p, err := Assemble(`
		.text 0x1000
	main:	nop
		.org 0x1100
	func:	halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Symbols["func"]; got != 0x1100 {
		t.Errorf("func = %#x, want 0x1100", got)
	}
	// Padding must be nops.
	if ins, ok := p.InstrAt(0x1050); !ok || ins.Op != isa.OpNop {
		t.Errorf("padding at 0x1050 = %v, %v; want nop", ins, ok)
	}
	if ins, ok := p.InstrAt(0x1100); !ok || ins.Op != isa.OpHalt {
		t.Errorf("func instr = %v, %v; want halt", ins, ok)
	}
}

func TestDataAlign(t *testing.T) {
	p, err := Assemble(`
		.text
	main:	halt
		.data 0x100000
	a:	.byte 1
		.align 64
	b:	.byte 2
	`)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Symbols["b"]; got != 0x100040 {
		t.Errorf("b = %#x, want 0x100040", got)
	}
}

func TestLabelArithmetic(t *testing.T) {
	p, err := Assemble(`
		.text
	main:	la r1, arr+8
		la r2, arr-4
		halt
		.data 0x200000
	arr:	.space 64
	`)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Code[0].Imm; got != 0x200008 {
		t.Errorf("arr+8 = %#x", got)
	}
	if got := p.Code[1].Imm; got != 0x1ffffc {
		t.Errorf("arr-4 = %#x", got)
	}
}

func TestPseudoOps(t *testing.T) {
	p, err := Assemble(`
		.text
	main:	mv r1, r2
		not r3, r4
		neg r5, r6
		j end
		call fn
	fn:	ret
		ble r1, r2, fn
		bgt r3, r4, end
	end:	halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		i  int
		op isa.Op
	}{
		{0, isa.OpAdd}, {1, isa.OpXori}, {2, isa.OpSub},
		{3, isa.OpJal}, {4, isa.OpJal}, {5, isa.OpJalr}, {6, isa.OpBge},
		{7, isa.OpBlt}, {8, isa.OpHalt},
	}
	for _, c := range checks {
		if p.Code[c.i].Op != c.op {
			t.Errorf("instr %d op = %v, want %v", c.i, p.Code[c.i].Op, c.op)
		}
	}
	if p.Code[4].Rd != isa.RegRA {
		t.Errorf("call must link ra, got r%d", p.Code[4].Rd)
	}
	if p.Code[3].Rd != isa.RegZero {
		t.Errorf("j must not link, got r%d", p.Code[3].Rd)
	}
	// ble a, b, l is bge b, a, l; bgt a, b, l is blt b, a, l.
	if ins, want := p.Code[6], (isa.Instr{Op: isa.OpBge, Rs1: 2, Rs2: 1, Imm: int64(p.Symbols["fn"])}); ins != want {
		t.Errorf("ble = %+v, want %+v", ins, want)
	}
	if ins, want := p.Code[7], (isa.Instr{Op: isa.OpBlt, Rs1: 4, Rs2: 3, Imm: int64(p.Symbols["end"])}); ins != want {
		t.Errorf("bgt = %+v, want %+v", ins, want)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown instr", "main: frobnicate r1, r2", "unknown instruction"},
		{"invalid opcode name", "main: invalid", "unknown instruction"},
		{"bad register", "main: add r1, r2, r99\nhalt", "bad register"},
		{"undefined label", "main: j nowhere", "undefined symbol"},
		{"duplicate label", "a: nop\na: nop", "duplicate label"},
		{"wrong arity", "main: add r1, r2", "expects 3 operands"},
		{"instr in data", ".data\nmain: add r1, r2, r3", "in data section"},
		{"word in text", ".text\n.word 5", "outside data section"},
		{"bad align", ".text\n.align 3", "power of two"},
		{"org backwards", ".text 0x1000\nnop\n.org 0x500", "moves backwards"},
		{"bad mem operand", "main: lw r1, r2", "memory operand"},
		{"byte above range", ".data\nb: .byte 300", ".byte value 300 out of range -128..255"},
		{"byte below range", ".data\nb: .byte 1, -129", ".byte value -129 out of range"},
		{"space fill above range", ".data\ns: .space 4, 256", ".space fill 256 out of range -128..255"},
		{"space fill below range", ".data\ns: .space 4, -200", ".space fill -200 out of range"},
		{"word above range", ".data\nw: .word 0x100000000", ".word value 4294967296 out of range -2147483648..4294967295"},
		{"word below range", ".data\nw: .word -2147483649", ".word value -2147483649 out of range"},
		{"word label above range", ".data 0x100000000\nw: .word w", ".word value 4294967296 out of range"},
		{"negative literal below -2^63", "main: li r1, -9223372036854775809", "literal -9223372036854775809 out of range"},
		{"negative literal of 2^64-1", "main: li r1, -18446744073709551615", "out of range"},
		{"negative dword below -2^63", ".data\nd: .dword -0x8000000000000001", "out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if err == nil {
				t.Fatalf("Assemble accepted %q", c.src)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestErrorHasLineNumber(t *testing.T) {
	_, err := Assemble("nop\nnop\nbogus r1\nnop")
	if err == nil {
		t.Fatal("expected error")
	}
	var ae *Error
	if !asError(err, &ae) {
		t.Fatalf("error type %T, want *Error", err)
	}
	if ae.Line != 3 {
		t.Errorf("error line = %d, want 3", ae.Line)
	}
}

func asError(err error, target **Error) bool {
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}

func TestCommentsAndBlankLines(t *testing.T) {
	p, err := Assemble(`
	# full-line comment
	main:	nop    ; trailing comment
		; another
		halt   # done
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 2 {
		t.Errorf("code length = %d, want 2", len(p.Code))
	}
}

func TestMultipleLabelsSameAddress(t *testing.T) {
	p, err := Assemble("main: start: nop\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if p.Symbols["main"] != p.Symbols["start"] {
		t.Errorf("stacked labels differ: %#x vs %#x", p.Symbols["main"], p.Symbols["start"])
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble did not panic on bad source")
		}
	}()
	MustAssemble("bogus instruction here")
}

func TestMuliAndNestedParens(t *testing.T) {
	p, err := Assemble(`
	main:	li r1, 7
		muli r2, r1, -3
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[1].Op != isa.OpMuli || p.Code[1].Imm != -3 {
		t.Errorf("muli = %+v", p.Code[1])
	}
}

func TestSplitArgsNestedParens(t *testing.T) {
	got := splitArgs("r1, 8(r2), label+4")
	if len(got) != 3 || got[1] != "8(r2)" || got[2] != "label+4" {
		t.Errorf("splitArgs = %q", got)
	}
	if got := splitArgs("   "); got != nil {
		t.Errorf("blank args = %q", got)
	}
}

func TestDoubleDirectiveBadFloat(t *testing.T) {
	_, err := Assemble(".data\nx: .double notanumber")
	if err == nil {
		t.Error("bad float accepted")
	}
}

func TestSpaceBadSize(t *testing.T) {
	_, err := Assemble(".data\nx: .space lots")
	if err == nil {
		t.Error("bad .space size accepted")
	}
}

func TestTextBaseRedefinitionRejected(t *testing.T) {
	_, err := Assemble(".text 0x1000\nnop\n.text 0x2000\nnop")
	if err == nil {
		t.Error("text base redefinition accepted")
	}
	// Re-entering .text without an address is fine.
	if _, err := Assemble(".text 0x1000\nnop\n.data\nx: .word 1\n.text\nhalt"); err != nil {
		t.Errorf("re-entering .text rejected: %v", err)
	}
}

func TestNegativeHexImmediate(t *testing.T) {
	p, err := Assemble("main: li r1, -0x10\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Imm != -16 {
		t.Errorf("imm = %d, want -16", p.Code[0].Imm)
	}
}

// TestLiteralLimits: every value at the edge of its field assembles to
// its two's-complement bytes; TestErrors has the values just past them.
func TestLiteralLimits(t *testing.T) {
	p, err := Assemble(`
	main:	li r1, -9223372036854775808
		li r2, 0xFFFFFFFFFFFFFFFF
		li r3, 18446744073709551615
		halt
		.data
	d:	.byte -128, 255
		.space 2, -1
		.word -2147483648, 4294967295
		.dword -9223372036854775808, 0xFFFFFFFFFFFFFFFF
	`)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{math.MinInt64, -1, -1} {
		if got := p.Code[i].Imm; got != want {
			t.Errorf("li r%d imm = %d, want %d", i+1, got, want)
		}
	}
	want := []byte{0x80, 0xff, 0xff, 0xff, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff,
		0, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	if got := p.Data[0].Bytes; !bytes.Equal(got, want) {
		t.Errorf("data = % x, want % x", got, want)
	}
}

func TestEntryDefaultsToTextBase(t *testing.T) {
	p, err := Assemble(".text 0x3000\nstart: halt")
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 0x3000 {
		t.Errorf("entry = %#x, want text base when no main label", p.Entry)
	}
}
