// Package asm implements a two-pass assembler for the ISA defined in
// internal/isa. Workload kernels (internal/workload) are written in —
// or generated as — this assembly language, assembled to a Program, and
// executed by the functional simulator to produce reference streams.
//
// Syntax summary (one statement per line, '#' or ';' start a comment):
//
//	.text [addr]          switch to code emission (default base 0x1000)
//	.data [addr]          switch to data emission (default base 0x100000)
//	.org addr             advance the location counter (nop/zero padding)
//	.align n              align location counter to n bytes
//	.word v, v, ...       emit 32-bit little-endian values
//	.dword v, ...         emit 64-bit little-endian values
//	.double f, ...        emit IEEE-754 float64 values
//	.byte v, ...          emit bytes
//	.space n [, fill]     emit n fill bytes (default 0)
//	label:                define a label at the current location
//
// Instructions use the mnemonics from internal/isa plus pseudo-ops:
//
//	li rd, imm            addi rd, zero, imm
//	la rd, label          addi rd, zero, addr(label)
//	mv rd, rs             add rd, rs, zero
//	not rd, rs            xori rd, rs, -1
//	neg rd, rs            sub rd, zero, rs
//	j label               jal zero, label
//	call label            jal ra, label
//	ret                   jalr zero, ra, 0
//	ble/bgt rs1,rs2,l     bge/blt with operands swapped
//
// Registers are r0..r31 with aliases zero (r0), sp (r30), ra (r31).
// Immediates are decimal or 0x-hex, optionally negative, or a label
// name (which resolves to its address), or label+offset / label-offset.
package asm

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Default segment bases, overridable by .text/.data arguments.
const (
	DefaultTextBase = 0x1000
	DefaultDataBase = 0x100000
)

// Section limits. A single assembled program may not span more than the
// image format's decode limits (isa.ReadImage refuses larger inputs),
// and bases are kept well below 2^64 so that every location-counter
// computation (.org spans, .align padding, .space sizes) stays wrap-free:
// base ≤ maxBaseAddr and span ≤ maxTextSpan/maxDataSpan means base+span
// cannot overflow uint64 and every span fits in an int.
const (
	maxTextSpan = (16 << 20) * isa.WordSize // 16M instructions
	maxDataSpan = 1 << 30                   // 1 GiB
	maxBaseAddr = 1 << 62
)

// Error describes an assembly failure with its source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type section int

const (
	secText section = iota
	secData
)

// item is a parsed source statement retained between passes.
type item struct {
	line  int
	sec   section
	addr  uint64
	op    string   // instruction or directive (without '.')
	args  []string // raw operand strings
	isDir bool
}

type assembler struct {
	items   []item
	symbols map[string]uint64

	textBase, textLoc uint64
	dataBase, dataLoc uint64
	textBaseSet       bool
	cur               section
}

// Assemble translates source text into a Program. The entry point is
// the label "main" if present, otherwise the start of the text segment.
func Assemble(src string) (*isa.Program, error) {
	a := &assembler{
		symbols:  make(map[string]uint64),
		textBase: DefaultTextBase,
		textLoc:  DefaultTextBase,
		dataBase: DefaultDataBase,
		dataLoc:  DefaultDataBase,
	}
	if err := a.pass1(src); err != nil {
		return nil, err
	}
	return a.pass2()
}

// MustAssemble is Assemble that panics on error; intended for workload
// generators whose source is produced programmatically and therefore
// must be valid by construction.
func MustAssemble(src string) *isa.Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func (a *assembler) errf(line int, format string, args ...interface{}) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) loc() *uint64 {
	if a.cur == secText {
		return &a.textLoc
	}
	return &a.dataLoc
}

// checkSpan rejects a new location-counter value that would put the
// current section over its size cap. Every location-counter advance
// funnels through this, which is what keeps the address arithmetic in
// pass1/pass2 overflow-free.
func (a *assembler) checkSpan(line int, newLoc uint64) error {
	base, span, what := a.dataBase, uint64(maxDataSpan), "data"
	if a.cur == secText {
		base, span, what = a.textBase, maxTextSpan, "text"
	}
	if newLoc-base > span {
		return a.errf(line, "%s section spans 0x%x bytes from base 0x%x (max 0x%x)",
			what, newLoc-base, base, span)
	}
	return nil
}

// pass1 tokenises, defines labels, and sizes every statement.
func (a *assembler) pass1(src string) error {
	for ln, raw := range strings.Split(src, "\n") {
		line := ln + 1
		s := raw
		if i := strings.IndexAny(s, "#;"); i >= 0 {
			s = s[:i]
		}
		s = strings.TrimSpace(s)
		// Peel off any leading labels.
		for {
			i := strings.Index(s, ":")
			if i < 0 {
				break
			}
			name := strings.TrimSpace(s[:i])
			if !IsIdent(name) {
				break
			}
			if _, dup := a.symbols[name]; dup {
				return a.errf(line, "duplicate label %q", name)
			}
			a.symbols[name] = *a.loc()
			s = strings.TrimSpace(s[i+1:])
		}
		if s == "" {
			continue
		}
		op, rest := splitOp(s)
		args := splitArgs(rest)
		if strings.HasPrefix(op, ".") {
			if err := a.directive1(line, op[1:], args); err != nil {
				return err
			}
			continue
		}
		n, err := expansionSize(op, args)
		if err != nil {
			return a.errf(line, "%v", err)
		}
		if a.cur != secText {
			return a.errf(line, "instruction %q in data section", op)
		}
		if err := a.checkSpan(line, a.textLoc+uint64(n*isa.WordSize)); err != nil {
			return err
		}
		a.items = append(a.items, item{
			line: line, sec: secText, addr: a.textLoc,
			op: op, args: args,
		})
		a.textLoc += uint64(n * isa.WordSize)
	}
	return nil
}

// directive1 handles a directive during pass 1 (sizing + label math).
func (a *assembler) directive1(line int, dir string, args []string) error {
	switch dir {
	case "text", "data":
		sec := secText
		base := &a.textBase
		loc := &a.textLoc
		if dir == "data" {
			sec = secData
			base = &a.dataBase
			loc = &a.dataLoc
		}
		a.cur = sec
		if len(args) == 1 {
			v, err := parseUint(args[0])
			if err != nil {
				return a.errf(line, "bad %s address %q", dir, args[0])
			}
			if v > maxBaseAddr {
				return a.errf(line, ".%s address 0x%x too large (max 0x%x)", dir, v, uint64(maxBaseAddr))
			}
			if sec == secText {
				if v%isa.WordSize != 0 {
					return a.errf(line, ".text address 0x%x not %d-byte aligned", v, isa.WordSize)
				}
				if a.textBaseSet && v != a.textBase {
					return a.errf(line, "text base redefined; use .org to move within text")
				}
				a.textBaseSet = true
			}
			*base = v
			*loc = v
		} else if len(args) > 1 {
			return a.errf(line, ".%s takes at most one address", dir)
		}
		if sec == secText {
			a.textBaseSet = true
		}
		return nil
	case "org":
		if len(args) != 1 {
			return a.errf(line, ".org needs one address")
		}
		v, err := parseUint(args[0])
		if err != nil {
			return a.errf(line, "bad .org address %q", args[0])
		}
		if v < *a.loc() {
			return a.errf(line, ".org 0x%x moves backwards from 0x%x", v, *a.loc())
		}
		if a.cur == secText && v%isa.WordSize != 0 {
			return a.errf(line, ".org 0x%x not instruction-aligned in text", v)
		}
		// The location counter never precedes the section base, so with
		// the span check here v-base (and hence every later size and
		// index computation) is bounded and cannot wrap.
		if err := a.checkSpan(line, v); err != nil {
			return err
		}
		a.items = append(a.items, item{line: line, sec: a.cur, addr: *a.loc(),
			op: "org", args: args, isDir: true})
		*a.loc() = v
		return nil
	case "align":
		if len(args) != 1 {
			return a.errf(line, ".align needs one argument")
		}
		n, err := parseUint(args[0])
		if err != nil || n == 0 || n&(n-1) != 0 {
			return a.errf(line, ".align needs a power of two, got %q", args[0])
		}
		cur := *a.loc()
		pad := (n - cur%n) % n
		// cur ≤ maxBaseAddr+span, pad < n ≤ 2^63: cur+pad cannot wrap,
		// but the padded address can still blow the section cap.
		if err := a.checkSpan(line, cur+pad); err != nil {
			return err
		}
		a.items = append(a.items, item{line: line, sec: a.cur, addr: cur,
			op: "align", args: args, isDir: true})
		*a.loc() = cur + pad
		return nil
	case "word", "dword", "double", "byte", "space":
		if a.cur != secData {
			return a.errf(line, ".%s outside data section", dir)
		}
		size, err := dataSize(dir, args)
		if err != nil {
			return a.errf(line, "%v", err)
		}
		if err := a.checkSpan(line, a.dataLoc+uint64(size)); err != nil {
			return err
		}
		a.items = append(a.items, item{line: line, sec: secData, addr: a.dataLoc,
			op: dir, args: args, isDir: true})
		a.dataLoc += uint64(size)
		return nil
	default:
		return a.errf(line, "unknown directive .%s", dir)
	}
}

func dataSize(dir string, args []string) (int, error) {
	switch dir {
	case "word":
		return 4 * len(args), nil
	case "dword", "double":
		return 8 * len(args), nil
	case "byte":
		return len(args), nil
	case "space":
		if len(args) < 1 || len(args) > 2 {
			return 0, fmt.Errorf(".space needs a size and optional fill")
		}
		n, err := parseUint(args[0])
		if err != nil {
			return 0, fmt.Errorf("bad .space size %q", args[0])
		}
		if n > maxDataSpan {
			return 0, fmt.Errorf(".space size %d exceeds data section limit", n)
		}
		return int(n), nil
	}
	return 0, fmt.Errorf("unknown data directive %q", dir)
}

// expansionSize returns how many machine instructions a mnemonic
// expands to, validating the operand count.
func expansionSize(op string, args []string) (int, error) {
	spec, ok := instrSpecs[op]
	if !ok {
		return 0, fmt.Errorf("unknown instruction %q", op)
	}
	if len(args) != spec.nargs {
		return 0, fmt.Errorf("%s expects %d operands, got %d", op, spec.nargs, len(args))
	}
	return 1, nil
}

// pass2 emits instructions and data with all symbols resolved.
func (a *assembler) pass2() (*isa.Program, error) {
	nInstr := int((a.textLoc - a.textBase) / isa.WordSize)
	code := make([]isa.Instr, nInstr)
	for i := range code {
		code[i] = isa.Instr{Op: isa.OpNop} // .org padding in text is nops
	}
	var data []isa.Segment

	for _, it := range a.items {
		if it.sec == secText && !it.isDir {
			ins, err := a.encode(it)
			if err != nil {
				return nil, err
			}
			idx := (it.addr - a.textBase) / isa.WordSize
			code[idx] = ins
			continue
		}
		if it.sec == secData && it.isDir && it.op != "org" && it.op != "align" {
			b, err := a.emitData(it)
			if err != nil {
				return nil, err
			}
			if len(b) > 0 {
				data = append(data, isa.Segment{Base: it.addr, Bytes: b})
			}
		}
	}

	entry := a.textBase
	if m, ok := a.symbols["main"]; ok {
		entry = m
	}
	return &isa.Program{
		Entry:    entry,
		CodeBase: a.textBase,
		Code:     code,
		Data:     mergeSegments(data),
		Symbols:  a.symbols,
	}, nil
}

// mergeSegments coalesces adjacent data segments to keep Program.Data
// small when many directives emit consecutively.
func mergeSegments(segs []isa.Segment) []isa.Segment {
	var out []isa.Segment
	for _, s := range segs {
		if n := len(out); n > 0 && out[n-1].Base+uint64(len(out[n-1].Bytes)) == s.Base {
			out[n-1].Bytes = append(out[n-1].Bytes, s.Bytes...)
		} else {
			out = append(out, s)
		}
	}
	return out
}

func (a *assembler) emitData(it item) ([]byte, error) {
	var b []byte
	switch it.op {
	case "word":
		for _, s := range it.args {
			v, err := a.evalImm(it.line, s)
			if err != nil {
				return nil, err
			}
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	case "dword":
		for _, s := range it.args {
			v, err := a.evalImm(it.line, s)
			if err != nil {
				return nil, err
			}
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	case "double":
		for _, s := range it.args {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, a.errf(it.line, "bad float %q", s)
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	case "byte":
		for _, s := range it.args {
			v, err := a.evalImm(it.line, s)
			if err != nil {
				return nil, err
			}
			b = append(b, byte(v))
		}
	case "space":
		n, _ := parseUint(it.args[0])
		fill := byte(0)
		if len(it.args) == 2 {
			v, err := a.evalImm(it.line, it.args[1])
			if err != nil {
				return nil, err
			}
			fill = byte(v)
		}
		b = make([]byte, n)
		if fill != 0 {
			for i := range b {
				b[i] = fill
			}
		}
	}
	return b, nil
}

// operand kinds for instruction encoding.
type argKind int

const (
	akReg argKind = iota
	akImm
	akMem   // imm(reg)
	akLabel // label or immediate used as an absolute address
)

type spec struct {
	nargs int
	kinds []argKind
	enc   func(a *assembler, it item, ops []operand) (isa.Instr, error)
}

type operand struct {
	reg uint8
	imm int64
}

func regArg(r uint8) operand { return operand{reg: r} }
func immArg(v int64) operand { return operand{imm: v} }
func memArg(v int64, r uint8) operand {
	return operand{reg: r, imm: v}
}

func rrr(op isa.Op) func(*assembler, item, []operand) (isa.Instr, error) {
	return func(_ *assembler, _ item, o []operand) (isa.Instr, error) {
		return isa.Instr{Op: op, Rd: o[0].reg, Rs1: o[1].reg, Rs2: o[2].reg}, nil
	}
}

func rri(op isa.Op) func(*assembler, item, []operand) (isa.Instr, error) {
	return func(_ *assembler, _ item, o []operand) (isa.Instr, error) {
		return isa.Instr{Op: op, Rd: o[0].reg, Rs1: o[1].reg, Imm: o[2].imm}, nil
	}
}

func loadEnc(op isa.Op) func(*assembler, item, []operand) (isa.Instr, error) {
	return func(_ *assembler, _ item, o []operand) (isa.Instr, error) {
		return isa.Instr{Op: op, Rd: o[0].reg, Rs1: o[1].reg, Imm: o[1].imm}, nil
	}
}

func storeEnc(op isa.Op) func(*assembler, item, []operand) (isa.Instr, error) {
	return func(_ *assembler, _ item, o []operand) (isa.Instr, error) {
		return isa.Instr{Op: op, Rs2: o[0].reg, Rs1: o[1].reg, Imm: o[1].imm}, nil
	}
}

func branchEnc(op isa.Op, swap bool) func(*assembler, item, []operand) (isa.Instr, error) {
	return func(_ *assembler, _ item, o []operand) (isa.Instr, error) {
		r1, r2 := o[0].reg, o[1].reg
		if swap {
			r1, r2 = r2, r1
		}
		return isa.Instr{Op: op, Rs1: r1, Rs2: r2, Imm: o[2].imm}, nil
	}
}

var instrSpecs map[string]spec

func init() {
	rrrOps := map[string]isa.Op{
		"add": isa.OpAdd, "sub": isa.OpSub, "and": isa.OpAnd, "or": isa.OpOr,
		"xor": isa.OpXor, "sll": isa.OpSll, "srl": isa.OpSrl, "sra": isa.OpSra,
		"mul": isa.OpMul, "div": isa.OpDiv, "rem": isa.OpRem,
		"slt": isa.OpSlt, "sltu": isa.OpSltu,
		"fadd": isa.OpFAdd, "fsub": isa.OpFSub, "fmul": isa.OpFMul,
		"fdiv": isa.OpFDiv, "fslt": isa.OpFSlt,
	}
	rriOps := map[string]isa.Op{
		"addi": isa.OpAddi, "andi": isa.OpAndi, "ori": isa.OpOri,
		"xori": isa.OpXori, "slli": isa.OpSlli, "srli": isa.OpSrli,
		"srai": isa.OpSrai, "slti": isa.OpSlti, "muli": isa.OpMuli,
	}
	loadOps := map[string]isa.Op{
		"lb": isa.OpLb, "lbu": isa.OpLbu, "lh": isa.OpLh, "lhu": isa.OpLhu,
		"lw": isa.OpLw, "lwu": isa.OpLwu, "ld": isa.OpLd,
	}
	storeOps := map[string]isa.Op{
		"sb": isa.OpSb, "sh": isa.OpSh, "sw": isa.OpSw, "sd": isa.OpSd,
	}
	branchOps := map[string]isa.Op{
		"beq": isa.OpBeq, "bne": isa.OpBne, "blt": isa.OpBlt,
		"bge": isa.OpBge, "bltu": isa.OpBltu, "bgeu": isa.OpBgeu,
	}

	instrSpecs = map[string]spec{
		"nop":  {0, nil, func(*assembler, item, []operand) (isa.Instr, error) { return isa.Instr{Op: isa.OpNop}, nil }},
		"halt": {0, nil, func(*assembler, item, []operand) (isa.Instr, error) { return isa.Instr{Op: isa.OpHalt}, nil }},
		"ret": {0, nil, func(*assembler, item, []operand) (isa.Instr, error) {
			return isa.Instr{Op: isa.OpJalr, Rd: isa.RegZero, Rs1: isa.RegRA}, nil
		}},
		"lui": {2, []argKind{akReg, akImm}, func(_ *assembler, _ item, o []operand) (isa.Instr, error) {
			return isa.Instr{Op: isa.OpLui, Rd: o[0].reg, Imm: o[1].imm}, nil
		}},
		"li": {2, []argKind{akReg, akImm}, func(_ *assembler, _ item, o []operand) (isa.Instr, error) {
			return isa.Instr{Op: isa.OpAddi, Rd: o[0].reg, Rs1: isa.RegZero, Imm: o[1].imm}, nil
		}},
		"la": {2, []argKind{akReg, akLabel}, func(_ *assembler, _ item, o []operand) (isa.Instr, error) {
			return isa.Instr{Op: isa.OpAddi, Rd: o[0].reg, Rs1: isa.RegZero, Imm: o[1].imm}, nil
		}},
		"mv": {2, []argKind{akReg, akReg}, func(_ *assembler, _ item, o []operand) (isa.Instr, error) {
			return isa.Instr{Op: isa.OpAdd, Rd: o[0].reg, Rs1: o[1].reg, Rs2: isa.RegZero}, nil
		}},
		"not": {2, []argKind{akReg, akReg}, func(_ *assembler, _ item, o []operand) (isa.Instr, error) {
			return isa.Instr{Op: isa.OpXori, Rd: o[0].reg, Rs1: o[1].reg, Imm: -1}, nil
		}},
		"neg": {2, []argKind{akReg, akReg}, func(_ *assembler, _ item, o []operand) (isa.Instr, error) {
			return isa.Instr{Op: isa.OpSub, Rd: o[0].reg, Rs1: isa.RegZero, Rs2: o[1].reg}, nil
		}},
		"fsqrt": {2, []argKind{akReg, akReg}, func(_ *assembler, _ item, o []operand) (isa.Instr, error) {
			return isa.Instr{Op: isa.OpFSqrt, Rd: o[0].reg, Rs1: o[1].reg}, nil
		}},
		"cvtif": {2, []argKind{akReg, akReg}, func(_ *assembler, _ item, o []operand) (isa.Instr, error) {
			return isa.Instr{Op: isa.OpCvtIF, Rd: o[0].reg, Rs1: o[1].reg}, nil
		}},
		"cvtfi": {2, []argKind{akReg, akReg}, func(_ *assembler, _ item, o []operand) (isa.Instr, error) {
			return isa.Instr{Op: isa.OpCvtFI, Rd: o[0].reg, Rs1: o[1].reg}, nil
		}},
		"j": {1, []argKind{akLabel}, func(_ *assembler, _ item, o []operand) (isa.Instr, error) {
			return isa.Instr{Op: isa.OpJal, Rd: isa.RegZero, Imm: o[0].imm}, nil
		}},
		"call": {1, []argKind{akLabel}, func(_ *assembler, _ item, o []operand) (isa.Instr, error) {
			return isa.Instr{Op: isa.OpJal, Rd: isa.RegRA, Imm: o[0].imm}, nil
		}},
		"jal": {2, []argKind{akReg, akLabel}, func(_ *assembler, _ item, o []operand) (isa.Instr, error) {
			return isa.Instr{Op: isa.OpJal, Rd: o[0].reg, Imm: o[1].imm}, nil
		}},
		"jalr": {3, []argKind{akReg, akReg, akImm}, func(_ *assembler, _ item, o []operand) (isa.Instr, error) {
			return isa.Instr{Op: isa.OpJalr, Rd: o[0].reg, Rs1: o[1].reg, Imm: o[2].imm}, nil
		}},
		"ble": {3, []argKind{akReg, akReg, akLabel}, branchEnc(isa.OpBge, true)},
		"bgt": {3, []argKind{akReg, akReg, akLabel}, branchEnc(isa.OpBlt, true)},
	}
	for name, op := range rrrOps {
		instrSpecs[name] = spec{3, []argKind{akReg, akReg, akReg}, rrr(op)}
	}
	for name, op := range rriOps {
		instrSpecs[name] = spec{3, []argKind{akReg, akReg, akImm}, rri(op)}
	}
	for name, op := range loadOps {
		instrSpecs[name] = spec{2, []argKind{akReg, akMem}, loadEnc(op)}
	}
	for name, op := range storeOps {
		instrSpecs[name] = spec{2, []argKind{akReg, akMem}, storeEnc(op)}
	}
	for name, op := range branchOps {
		instrSpecs[name] = spec{3, []argKind{akReg, akReg, akLabel}, branchEnc(op, false)}
	}
}

// encode translates one parsed instruction item into an isa.Instr.
func (a *assembler) encode(it item) (isa.Instr, error) {
	sp := instrSpecs[it.op]
	ops := make([]operand, len(it.args))
	for i, s := range it.args {
		kind := akImm
		if i < len(sp.kinds) {
			kind = sp.kinds[i]
		}
		o, err := a.parseOperand(it.line, s, kind)
		if err != nil {
			return isa.Instr{}, err
		}
		ops[i] = o
	}
	return sp.enc(a, it, ops)
}

func (a *assembler) parseOperand(line int, s string, kind argKind) (operand, error) {
	switch kind {
	case akReg:
		r, ok := parseReg(s)
		if !ok {
			return operand{}, a.errf(line, "bad register %q", s)
		}
		return regArg(r), nil
	case akImm, akLabel:
		v, err := a.evalImm(line, s)
		if err != nil {
			return operand{}, err
		}
		return immArg(v), nil
	case akMem:
		open := strings.Index(s, "(")
		if open < 0 || !strings.HasSuffix(s, ")") {
			return operand{}, a.errf(line, "bad memory operand %q (want off(reg))", s)
		}
		offStr := strings.TrimSpace(s[:open])
		regStr := strings.TrimSpace(s[open+1 : len(s)-1])
		var off int64
		if offStr != "" {
			v, err := a.evalImm(line, offStr)
			if err != nil {
				return operand{}, err
			}
			off = v
		}
		r, ok := parseReg(regStr)
		if !ok {
			return operand{}, a.errf(line, "bad base register %q", regStr)
		}
		return memArg(off, r), nil
	}
	return operand{}, a.errf(line, "internal: unknown operand kind")
}

// evalImm evaluates an immediate: a number, a label, or label±number.
func (a *assembler) evalImm(line int, s string) (int64, error) {
	s = strings.TrimSpace(s)
	if v, err := parseInt(s); err == nil {
		return v, nil
	}
	// label, label+off, label-off
	for _, sep := range []byte{'+', '-'} {
		if i := strings.LastIndexByte(s, sep); i > 0 {
			base, err1 := a.evalImm(line, s[:i])
			off, err2 := parseInt(s[i+1:])
			if err1 == nil && err2 == nil {
				if sep == '-' {
					return base - off, nil
				}
				return base + off, nil
			}
		}
	}
	if v, ok := a.symbols[s]; ok {
		return int64(v), nil
	}
	return 0, a.errf(line, "undefined symbol or bad immediate %q", s)
}

var regAliases = map[string]uint8{
	"zero": isa.RegZero,
	"sp":   isa.RegSP,
	"ra":   isa.RegRA,
}

func parseReg(s string) (uint8, bool) {
	s = strings.TrimSpace(strings.ToLower(s))
	if r, ok := regAliases[s]; ok {
		return r, true
	}
	if len(s) >= 2 && s[0] == 'r' {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < isa.NumRegs {
			return uint8(n), true
		}
	}
	return 0, false
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, err
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

func parseUint(s string) (uint64, error) {
	v, err := parseInt(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad unsigned value %q", s)
	}
	return uint64(v), nil
}

// IsIdent reports whether s is a label the assembler accepts: letters,
// digits, '_' and '.', not starting with a digit.
func IsIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func splitOp(s string) (op, rest string) {
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return strings.ToLower(s), ""
	}
	return strings.ToLower(s[:i]), strings.TrimSpace(s[i+1:])
}

// splitArgs splits on commas that are not inside parentheses.
func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var args []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				args = append(args, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	args = append(args, strings.TrimSpace(s[start:]))
	return args
}
