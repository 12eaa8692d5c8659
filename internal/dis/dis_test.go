package dis

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/workload"
)

// TestRoundTripAllWorkloads is the tentpole property: every registered
// workload's image disassembles to source that reassembles to a
// byte-identical image. CI repeats this through the actual CLIs.
func TestRoundTripAllWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if err := RoundTrip(w.Build()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRoundTripHandwritten covers assembler features the generated
// workloads may not exercise: ragged .byte data, negative offsets,
// every pseudo-op, interior data labels, and symbols past segment end.
func TestRoundTripHandwritten(t *testing.T) {
	srcs := map[string]string{
		"pseudo-ops": `
	main:	li r1, -12345678901
		la r2, buf
		mv r3, r1
		not r4, r3
		neg r5, r4
		call fn
		j out
	fn:	ret
		ble r1, r2, fn
		bgt r3, r4, out
	out:	halt
	.data
	buf:	.space 16, 0xab
	`,
		"every class": `
	main:	add r1, r2, r3
		addi r4, r5, -6
		lui r6, 123
		fsqrt r7, r8
		cvtif r9, r10
		cvtfi r11, r12
		fslt r13, r14, r15
		lb r1, -1(r2)
		lhu r3, 2(r4)
		sd r5, 8(r6)
		sb r7, -3(r8)
		beq r1, r2, main
		bltu r3, r4, 0x1000
		jal r9, main
		jalr r10, r11, 44
		nop
		halt
	`,
		"ragged data": `
	main:	halt
	.data 0x20001
	x:	.byte 1, 2, 3
	y:	.word 0xdeadbeef
	z:	.dword 0xffffffffffffffff
	tail:	.byte 9
	end:
	`,
		"org gaps and align": `
	.text 0x4000
	main:	j tgt
	.org 0x4010
	tgt:	halt
	.data 0x100000
	a:	.dword 1
	.org 0x100100
	b:	.dword 2
	.align 64
	c:	.byte 7
	`,
	}
	for name, src := range srcs {
		src := src
		t.Run(name, func(t *testing.T) {
			p, err := asm.Assemble(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := RoundTrip(p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDisassembleRecoversLabels: branch and call targets render by
// label name when the symbol exists.
func TestDisassembleRecoversLabels(t *testing.T) {
	p := asm.MustAssemble(`
	main:	li r1, 3
	loop:	addi r1, r1, -1
		bne r1, zero, loop
		call helper
		halt
	helper:	ret
	`)
	src, err := Disassemble(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"loop:", "bne r1, r0, loop", "jal r31, helper", "helper:"} {
		if !strings.Contains(src, want) {
			t.Errorf("disassembly missing %q:\n%s", want, src)
		}
	}
}

// TestNonCanonicalRejected: images the assembler could never have
// produced are errors, not lossy output.
func TestNonCanonicalRejected(t *testing.T) {
	base := func() *isa.Program {
		return &isa.Program{
			Entry:    0x1000,
			CodeBase: 0x1000,
			Code:     []isa.Instr{{Op: isa.OpHalt}},
			Symbols:  map[string]uint64{},
		}
	}
	cases := map[string]func(p *isa.Program){
		"unaligned code base": func(p *isa.Program) { p.CodeBase = 0x1002; p.Entry = 0x1002 },
		"unrepresentable entry": func(p *isa.Program) {
			p.Entry = 0x2000 // no "main" symbol and not the code base
		},
		"entry contradicts main": func(p *isa.Program) { p.Symbols["main"] = 0x1004 },
		"bad symbol name":        func(p *isa.Program) { p.Symbols["no spaces"] = 0x1000 },
		"register out of range": func(p *isa.Program) { // add r200, r31, r31
			p.Code[0] = isa.Instr{Op: isa.OpAdd, Rd: 200, Rs1: 31, Rs2: 31}
		},
		"imm on rrr op": func(p *isa.Program) {
			p.Code[0] = isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 2, Rs2: 3, Imm: 7}
		},
		"rs2 on load": func(p *isa.Program) {
			p.Code[0] = isa.Instr{Op: isa.OpLd, Rd: 1, Rs1: 2, Rs2: 3}
		},
		"rd on store": func(p *isa.Program) {
			p.Code[0] = isa.Instr{Op: isa.OpSd, Rd: 1, Rs1: 2, Rs2: 3}
		},
		"operands on halt": func(p *isa.Program) {
			p.Code[0] = isa.Instr{Op: isa.OpHalt, Rd: 1}
		},
		"empty data segment": func(p *isa.Program) {
			p.Data = []isa.Segment{{Base: 0x2000}}
		},
		"adjacent data segments": func(p *isa.Program) {
			p.Data = []isa.Segment{
				{Base: 0x2000, Bytes: []byte{1}},
				{Base: 0x2001, Bytes: []byte{2}},
			}
		},
		"unsorted data segments": func(p *isa.Program) {
			p.Data = []isa.Segment{
				{Base: 0x3000, Bytes: []byte{1}},
				{Base: 0x2000, Bytes: []byte{2}},
			}
		},
		"data span over cap": func(p *isa.Program) {
			p.Data = []isa.Segment{
				{Base: 0x2000, Bytes: []byte{1}},
				{Base: 0x2000 + (1 << 31), Bytes: []byte{2}},
			}
		},
	}
	for name, mutate := range cases {
		mutate := mutate
		t.Run(name, func(t *testing.T) {
			p := base()
			mutate(p)
			if _, err := Disassemble(p); err == nil {
				t.Error("non-canonical program disassembled without error")
			}
		})
	}
}

// TestRoundTripSyntheticSymbols: symbols at arbitrary addresses (end
// of text, inside segments, unaligned, far past all data) survive.
func TestRoundTripSyntheticSymbols(t *testing.T) {
	p := asm.MustAssemble(`
	main:	halt
	.data 0x2000
	x:	.dword 1, 2, 3
	`)
	p.Symbols["text_end"] = p.CodeBase + uint64(len(p.Code))*isa.WordSize
	p.Symbols["interior"] = 0x2008
	p.Symbols["odd"] = 0x2003
	p.Symbols["far"] = 0x90000
	p.Symbols["below"] = 0x10
	if err := RoundTrip(p); err != nil {
		t.Fatal(err)
	}
}
