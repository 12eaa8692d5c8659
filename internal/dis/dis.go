// Package dis disassembles an assembled isa.Program back into
// canonical assembly source for internal/asm — the inverse of the
// assembler, mirroring the asm/dis tool split of classic toolchains.
//
// The output is *canonical*: reassembling it produces a Program whose
// serialized image (isa.WriteImage) is byte-for-byte identical to the
// input's. That round-trip property is the correctness proof for both
// tools, and CI enforces it for every registered workload. Programs
// that cannot be represented that way (non-zero operand fields the
// assembler never emits, unsorted or adjacent data segments, an entry
// point that is neither "main" nor the code base, symbol names the
// assembler would reject) are reported as errors rather than
// disassembled lossily.
//
// Layout of the generated source:
//
//	.text 0x<CodeBase>          every instruction, including the nops
//	label:	insn                the assembler uses for .org padding;
//	...                         labels from Symbols within the code
//	                            range annotate their instruction
//	.data 0x<min data address>  segments and out-of-text symbols in
//	...                         ascending address order, with .org
//	                            marking the gaps
//
// Branch and jal targets render as a label when one exists at exactly
// the target address, else as a numeric absolute address.
package dis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Disassemble renders p as canonical assembly source.
func Disassemble(p *isa.Program) (string, error) {
	if err := validate(p); err != nil {
		return "", err
	}
	textEnd := p.CodeBase + uint64(len(p.Code))*isa.WordSize

	// Partition symbols: labels inside the code range (aligned) go in
	// the text listing; everything else is placed by the data walk.
	textSyms := map[uint64][]string{} // instruction address → names
	var dataSyms []symbol
	for name, addr := range p.Symbols {
		if addr >= p.CodeBase && addr < textEnd && addr%isa.WordSize == 0 {
			textSyms[addr] = append(textSyms[addr], name)
		} else {
			dataSyms = append(dataSyms, symbol{name, addr})
		}
	}
	for _, names := range textSyms {
		sort.Strings(names)
	}
	sort.Slice(dataSyms, func(i, j int) bool {
		if dataSyms[i].addr != dataSyms[j].addr {
			return dataSyms[i].addr < dataSyms[j].addr
		}
		return dataSyms[i].name < dataSyms[j].name
	})

	// Branch/jal targets prefer a label; the alphabetically first name
	// at the target address is the canonical choice.
	labelAt := func(addr uint64) (string, bool) {
		if names := textSyms[addr]; len(names) > 0 {
			return names[0], true
		}
		// Control transfers into the data space are legal (the VM
		// faults at runtime, not the assembler); honour data symbols
		// too so the rendering stays symbolic where possible.
		i := sort.Search(len(dataSyms), func(i int) bool { return dataSyms[i].addr >= addr })
		if i < len(dataSyms) && dataSyms[i].addr == addr {
			return dataSyms[i].name, true
		}
		return "", false
	}

	var b strings.Builder
	fmt.Fprintf(&b, ".text 0x%x\n", p.CodeBase)
	for i, ins := range p.Code {
		addr := p.CodeBase + uint64(i)*isa.WordSize
		for _, name := range textSyms[addr] {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		s, err := renderInstr(ins, labelAt)
		if err != nil {
			return "", fmt.Errorf("dis: instruction %d at 0x%x: %w", i, addr, err)
		}
		fmt.Fprintf(&b, "\t%s\n", s)
	}

	if len(p.Data) > 0 || len(dataSyms) > 0 {
		if err := renderData(&b, p.Data, dataSyms); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

type symbol struct {
	name string
	addr uint64
}

// validate rejects programs the canonical rendering cannot represent.
func validate(p *isa.Program) error {
	if p.CodeBase%isa.WordSize != 0 {
		return fmt.Errorf("dis: code base 0x%x not %d-byte aligned", p.CodeBase, isa.WordSize)
	}
	if p.CodeBase > isa.MaxBaseAddr {
		return fmt.Errorf("dis: code base 0x%x exceeds the assembler's base cap", p.CodeBase)
	}
	if len(p.Code) > isa.MaxInstrs {
		return fmt.Errorf("dis: %d instructions exceeds the assembler's text cap", len(p.Code))
	}
	for i, in := range p.Code {
		if in.Rd >= isa.NumRegs || in.Rs1 >= isa.NumRegs || in.Rs2 >= isa.NumRegs {
			return fmt.Errorf("dis: instruction at 0x%x names a register above r%d",
				p.CodeBase+uint64(i)*isa.WordSize, isa.NumRegs-1)
		}
	}
	if main, ok := p.Symbols["main"]; ok {
		if p.Entry != main {
			return fmt.Errorf("dis: entry 0x%x does not match the \"main\" symbol 0x%x", p.Entry, main)
		}
	} else if p.Entry != p.CodeBase {
		return fmt.Errorf("dis: entry 0x%x is neither a \"main\" symbol nor the code base 0x%x",
			p.Entry, p.CodeBase)
	}
	for name := range p.Symbols {
		if !asm.IsIdent(name) {
			return fmt.Errorf("dis: symbol name %q is not an assembler identifier", name)
		}
	}
	var prevEnd uint64
	for i, seg := range p.Data {
		if len(seg.Bytes) == 0 {
			return fmt.Errorf("dis: data segment %d at 0x%x is empty", i, seg.Base)
		}
		if seg.Base > isa.MaxBaseAddr {
			return fmt.Errorf("dis: data segment %d base 0x%x exceeds the assembler's base cap", i, seg.Base)
		}
		if i > 0 && seg.Base <= prevEnd {
			// Adjacent segments would coalesce on reassembly and
			// overlapping ones cannot be emitted in address order;
			// the assembler produces neither.
			return fmt.Errorf("dis: data segment %d at 0x%x is not strictly after previous end 0x%x",
				i, seg.Base, prevEnd)
		}
		prevEnd = seg.Base + uint64(len(seg.Bytes))
	}
	return nil
}

// renderInstr produces the canonical operand syntax for one
// instruction, erroring on operand fields its class's operands do not
// name: the assembler never sets them, so reassembly would lose them.
func renderInstr(ins isa.Instr, labelAt func(uint64) (string, bool)) (string, error) {
	if !ins.Op.Valid() {
		return "", fmt.Errorf("opcode %d is not disassemblable", uint8(ins.Op))
	}
	named := isa.Instr{Op: ins.Op}
	for _, opd := range ins.Op.Class().Operands() {
		switch opd {
		case isa.OpdRd:
			named.Rd = ins.Rd
		case isa.OpdRs1:
			named.Rs1 = ins.Rs1
		case isa.OpdRs2:
			named.Rs2 = ins.Rs2
		case isa.OpdImm, isa.OpdTarget:
			named.Imm = ins.Imm
		case isa.OpdMem:
			named.Imm, named.Rs1 = ins.Imm, ins.Rs1
		}
	}
	if named != ins {
		return "", fmt.Errorf("%s has non-canonical operand fields (rd %d, rs1 %d, rs2 %d, imm %d)",
			ins.Op, ins.Rd, ins.Rs1, ins.Rs2, ins.Imm)
	}
	return ins.Format(labelAt), nil
}

// renderData walks segments and out-of-text symbols in ascending
// address order, moving the location counter with .org across gaps.
// Contiguous byte directives coalesce back into one segment on
// reassembly, so emitting a segment as many lines (and splitting it at
// interior symbol addresses) preserves the exact segment structure.
func renderData(b *strings.Builder, segs []isa.Segment, syms []symbol) error {
	start := uint64(1) << 63
	if len(segs) > 0 {
		start = segs[0].Base
	}
	if len(syms) > 0 && syms[0].addr < start {
		start = syms[0].addr
	}
	end := start
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		end = last.Base + uint64(len(last.Bytes))
	}
	if len(syms) > 0 && syms[len(syms)-1].addr > end {
		end = syms[len(syms)-1].addr
	}
	if start > isa.MaxBaseAddr {
		return fmt.Errorf("dis: data start 0x%x exceeds the assembler's base cap", start)
	}
	if end-start > isa.MaxDataBytes {
		return fmt.Errorf("dis: data spans 0x%x bytes (assembler cap 0x%x)", end-start, uint64(isa.MaxDataBytes))
	}
	fmt.Fprintf(b, ".data 0x%x\n", start)
	loc := start
	org := func(to uint64) error {
		if to < loc {
			// Sorted inputs make this impossible for segments; a
			// symbol can only trip it if it precedes `start`, which
			// the start computation rules out.
			return fmt.Errorf("dis: data walk moved backwards from 0x%x to 0x%x", loc, to)
		}
		if to > loc {
			fmt.Fprintf(b, "\t.org 0x%x\n", to)
			loc = to
		}
		return nil
	}
	si := 0
	for _, seg := range segs {
		for si < len(syms) && syms[si].addr < seg.Base {
			if err := org(syms[si].addr); err != nil {
				return err
			}
			fmt.Fprintf(b, "%s:\n", syms[si].name)
			si++
		}
		if err := org(seg.Base); err != nil {
			return err
		}
		end := seg.Base + uint64(len(seg.Bytes))
		cur := seg.Base
		for si < len(syms) && syms[si].addr <= end {
			emitBytes(b, cur, seg.Bytes[cur-seg.Base:syms[si].addr-seg.Base])
			cur = syms[si].addr
			loc = cur
			fmt.Fprintf(b, "%s:\n", syms[si].name)
			si++
		}
		emitBytes(b, cur, seg.Bytes[cur-seg.Base:])
		loc = end
	}
	for si < len(syms) {
		if err := org(syms[si].addr); err != nil {
			return err
		}
		fmt.Fprintf(b, "%s:\n", syms[si].name)
		si++
	}
	return nil
}

// emitBytes renders a byte run starting at addr as .dword directives
// where 8-aligned and .byte directives for the ragged edges.
func emitBytes(b *strings.Builder, addr uint64, bytes []byte) {
	const dwordsPerLine = 4
	const bytesPerLine = 8
	emitByteRun := func(run []byte) {
		for len(run) > 0 {
			n := len(run)
			if n > bytesPerLine {
				n = bytesPerLine
			}
			parts := make([]string, n)
			for i := 0; i < n; i++ {
				parts[i] = fmt.Sprintf("0x%02x", run[i])
			}
			fmt.Fprintf(b, "\t.byte %s\n", strings.Join(parts, ", "))
			run = run[n:]
		}
	}
	// Leading ragged bytes up to 8-byte alignment.
	if r := int(addr % 8); r != 0 {
		n := 8 - r
		if n > len(bytes) {
			n = len(bytes)
		}
		emitByteRun(bytes[:n])
		bytes = bytes[n:]
	}
	for len(bytes) >= 8 {
		n := len(bytes) / 8
		if n > dwordsPerLine {
			n = dwordsPerLine
		}
		parts := make([]string, n)
		for i := 0; i < n; i++ {
			var v uint64
			for j := 7; j >= 0; j-- {
				v = v<<8 | uint64(bytes[i*8+j])
			}
			parts[i] = fmt.Sprintf("0x%x", v)
		}
		fmt.Fprintf(b, "\t.dword %s\n", strings.Join(parts, ", "))
		bytes = bytes[n*8:]
	}
	emitByteRun(bytes)
}
