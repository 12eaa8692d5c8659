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
// Instructions use isa's mnemonics (isa.OpByName), each followed by
// its operand class's operands (isa.OperandClass.Operands), plus ten
// pseudo-ops, each a native instruction with operands reordered or
// fields fixed:
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
	"errors"
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
// funnels through this, which with isa's base cap is what keeps the
// address arithmetic in pass1/pass2 overflow-free.
func (a *assembler) checkSpan(line int, newLoc uint64) error {
	base, span, what := a.dataBase, uint64(isa.MaxDataBytes), "data"
	if a.cur == secText {
		base, span, what = a.textBase, isa.MaxInstrs*isa.WordSize, "text"
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
		f, ok := lookup(op)
		if !ok {
			return a.errf(line, "unknown instruction %q", op)
		}
		if len(args) != len(f.operands) {
			return a.errf(line, "%s expects %d operands, got %d", op, len(f.operands), len(args))
		}
		if a.cur != secText {
			return a.errf(line, "instruction %q in data section", op)
		}
		if err := a.checkSpan(line, a.textLoc+isa.WordSize); err != nil {
			return err
		}
		a.items = append(a.items, item{
			line: line, sec: secText, addr: a.textLoc,
			op: op, args: args,
		})
		a.textLoc += isa.WordSize
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
			if v > isa.MaxBaseAddr {
				return a.errf(line, ".%s address 0x%x too large (max 0x%x)", dir, v, uint64(isa.MaxBaseAddr))
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
		if n > isa.MaxDataBytes {
			return 0, fmt.Errorf(".space size %d exceeds data section limit", n)
		}
		return int(n), nil
	}
	return 0, fmt.Errorf("unknown data directive %q", dir)
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
			if v < math.MinInt32 || v > math.MaxUint32 {
				return nil, a.errf(it.line, ".word value %d out of range %d..%d", v, math.MinInt32, math.MaxUint32)
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
			v, err := a.evalByte(it.line, ".byte value", s)
			if err != nil {
				return nil, err
			}
			b = append(b, v)
		}
	case "space":
		n, _ := parseUint(it.args[0])
		fill := byte(0)
		if len(it.args) == 2 {
			v, err := a.evalByte(it.line, ".space fill", it.args[1])
			if err != nil {
				return nil, err
			}
			fill = v
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

// evalByte evaluates a byte-sized data value, signed or unsigned.
func (a *assembler) evalByte(line int, what, s string) (byte, error) {
	v, err := a.evalImm(line, s)
	if err != nil {
		return 0, err
	}
	if v < math.MinInt8 || v > math.MaxUint8 {
		return 0, a.errf(line, "%s %d out of range %d..%d", what, v, math.MinInt8, math.MaxUint8)
	}
	return byte(v), nil
}

// form is how one mnemonic assembles: the instruction's fixed fields,
// its opcode among them, and the operands its source names, in order.
type form struct {
	fixed    isa.Instr
	operands []isa.Operand
}

// pseudoOps are the mnemonics the assembler adds to isa's.
var pseudoOps = map[string]form{
	"li":   {isa.Instr{Op: isa.OpAddi}, []isa.Operand{isa.OpdRd, isa.OpdImm}},
	"la":   {isa.Instr{Op: isa.OpAddi}, []isa.Operand{isa.OpdRd, isa.OpdImm}},
	"mv":   {isa.Instr{Op: isa.OpAdd}, []isa.Operand{isa.OpdRd, isa.OpdRs1}},
	"not":  {isa.Instr{Op: isa.OpXori, Imm: -1}, []isa.Operand{isa.OpdRd, isa.OpdRs1}},
	"neg":  {isa.Instr{Op: isa.OpSub}, []isa.Operand{isa.OpdRd, isa.OpdRs2}},
	"j":    {isa.Instr{Op: isa.OpJal}, []isa.Operand{isa.OpdTarget}},
	"call": {isa.Instr{Op: isa.OpJal, Rd: isa.RegRA}, []isa.Operand{isa.OpdTarget}},
	"ret":  {isa.Instr{Op: isa.OpJalr, Rs1: isa.RegRA}, nil},
	"ble":  {isa.Instr{Op: isa.OpBge}, []isa.Operand{isa.OpdRs2, isa.OpdRs1, isa.OpdTarget}},
	"bgt":  {isa.Instr{Op: isa.OpBlt}, []isa.Operand{isa.OpdRs2, isa.OpdRs1, isa.OpdTarget}},
}

// lookup returns how a mnemonic assembles: as a pseudo-op, or as an
// opcode of isa with its class's operands.
func lookup(mnemonic string) (form, bool) {
	if f, ok := pseudoOps[mnemonic]; ok {
		return f, true
	}
	op, ok := isa.OpByName(mnemonic)
	return form{isa.Instr{Op: op}, op.Class().Operands()}, ok
}

// encode translates one parsed instruction item, which pass1 checked
// against its form, into an isa.Instr: the form's fixed fields, plus
// each operand parsed into the fields it names.
func (a *assembler) encode(it item) (isa.Instr, error) {
	f, _ := lookup(it.op)
	ins := f.fixed
	for i, opd := range f.operands {
		s := it.args[i]
		var err error
		switch opd {
		case isa.OpdRd:
			ins.Rd, err = a.reg(it.line, s)
		case isa.OpdRs1:
			ins.Rs1, err = a.reg(it.line, s)
		case isa.OpdRs2:
			ins.Rs2, err = a.reg(it.line, s)
		case isa.OpdImm, isa.OpdTarget:
			ins.Imm, err = a.evalImm(it.line, s)
		case isa.OpdMem:
			ins.Imm, ins.Rs1, err = a.mem(it.line, s)
		}
		if err != nil {
			return isa.Instr{}, err
		}
	}
	return ins, nil
}

func (a *assembler) reg(line int, s string) (uint8, error) {
	r, ok := parseReg(s)
	if !ok {
		return 0, a.errf(line, "bad register %q", s)
	}
	return r, nil
}

// mem parses a memory operand, off(reg), where off may be omitted.
func (a *assembler) mem(line int, s string) (int64, uint8, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, a.errf(line, "bad memory operand %q (want off(reg))", s)
	}
	var off int64
	if offStr := strings.TrimSpace(s[:open]); offStr != "" {
		v, err := a.evalImm(line, offStr)
		if err != nil {
			return 0, 0, err
		}
		off = v
	}
	regStr := strings.TrimSpace(s[open+1 : len(s)-1])
	r, ok := parseReg(regStr)
	if !ok {
		return 0, 0, a.errf(line, "bad base register %q", regStr)
	}
	return off, r, nil
}

// evalImm evaluates an immediate: a number, a label, or label±number.
func (a *assembler) evalImm(line int, s string) (int64, error) {
	s = strings.TrimSpace(s)
	v, err := parseInt(s)
	if err == nil {
		return v, nil
	}
	if errors.Is(err, errLiteralRange) {
		return 0, a.errf(line, "%v", err)
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

// errLiteralRange is parseInt's error for a negative literal below
// -2^63, which no 64-bit field can hold.
var errLiteralRange = errors.New("out of range")

// parseInt parses a decimal or 0x-hexadecimal literal with an optional
// minus sign. A literal from 2^63 to 2^64-1 is its 64-bit two's
// complement, so 0xFFFFFFFFFFFFFFFF is -1.
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
		if v > 1<<63 {
			return 0, fmt.Errorf("literal -%s %w -%d..%d", s, errLiteralRange, uint64(1<<63), uint64(math.MaxUint64))
		}
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
