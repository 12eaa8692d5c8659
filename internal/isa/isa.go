// Package isa defines the instruction set of the simulated processor.
//
// The paper (Saulsbury et al., ISCA'96) evaluates a standard 5-stage
// single-issue pipeline running the SPARC V8 ISA, and is explicit that
// the ISA itself is orthogonal to the processor/memory-integration
// proposal ("an ordinary, general-purpose, commodity ISA is assumed").
// We therefore define a conventional 32-register load/store RISC ISA —
// close in spirit to SPARC V8 or MIPS — sufficient to express real
// workload kernels whose instruction-fetch and data-reference streams
// drive the cache and CPI models.
//
// Instructions are held in decoded form (one struct per instruction)
// rather than as encoded 32-bit words; every instruction still occupies
// exactly 4 bytes of the simulated address space so that instruction
// fetch addresses, cache line mappings, and code footprints are exact.
package isa

import (
	"fmt"
	"strings"
)

// WordSize is the size of one instruction in the simulated address
// space, in bytes.
const WordSize = 4

// NumRegs is the number of general-purpose registers. Register 0 is
// hard-wired to zero, as on SPARC (%g0) and MIPS ($zero).
const NumRegs = 32

// Conventional register assignments used by the assembler's aliases.
const (
	RegZero = 0  // always zero
	RegSP   = 30 // stack pointer
	RegRA   = 31 // return address (link register)
)

// Op enumerates the instruction opcodes.
type Op uint8

// Opcode space. The groups matter to the VM's dispatch and to the
// pipeline model's instruction classification (IsLoad/IsStore/IsBranch).
const (
	OpInvalid Op = iota

	// ALU register-register: rd = rs1 op rs2.
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra
	OpMul
	OpDiv
	OpRem
	OpSlt  // set if less than, signed
	OpSltu // set if less than, unsigned

	// ALU register-immediate: rd = rs1 op imm.
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpSlli
	OpSrli
	OpSrai
	OpSlti
	OpMuli
	OpLui // rd = imm << 16

	// Floating-point arithmetic. Operands live in the general register
	// file (the pipeline model charges their latency separately via the
	// base-CPI component, exactly as the paper does); values are IEEE
	// bit patterns manipulated with math.Float64bits in the VM.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFSqrt // rd = sqrt(rs1)
	OpCvtIF // rd = float64(int64(rs1))
	OpCvtFI // rd = int64(float64 bits in rs1)
	OpFSlt  // rd = 1 if rs1 < rs2 as float64

	// Loads: rd = mem[rs1+imm]. L* sign-extend, L*u zero-extend.
	OpLb
	OpLbu
	OpLh
	OpLhu
	OpLw
	OpLwu
	OpLd // 8 bytes

	// Stores: mem[rs1+imm] = rs2.
	OpSb
	OpSh
	OpSw
	OpSd

	// Control transfer.
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpBltu
	OpBgeu
	OpJal  // rd = pc+4; pc = imm (absolute target resolved by assembler)
	OpJalr // rd = pc+4; pc = rs1 + imm

	// Misc.
	OpNop
	OpHalt

	numOps // sentinel
)

var opNames = [numOps]string{
	OpInvalid: "invalid",
	OpAdd:     "add", OpSub: "sub", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpSll: "sll", OpSrl: "srl", OpSra: "sra", OpMul: "mul", OpDiv: "div",
	OpRem: "rem", OpSlt: "slt", OpSltu: "sltu",
	OpAddi: "addi", OpAndi: "andi", OpOri: "ori", OpXori: "xori",
	OpSlli: "slli", OpSrli: "srli", OpSrai: "srai", OpSlti: "slti",
	OpMuli: "muli", OpLui: "lui",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFSqrt: "fsqrt", OpCvtIF: "cvtif", OpCvtFI: "cvtfi", OpFSlt: "fslt",
	OpLb: "lb", OpLbu: "lbu", OpLh: "lh", OpLhu: "lhu", OpLw: "lw",
	OpLwu: "lwu", OpLd: "ld",
	OpSb: "sb", OpSh: "sh", OpSw: "sw", OpSd: "sd",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge",
	OpBltu: "bltu", OpBgeu: "bgeu", OpJal: "jal", OpJalr: "jalr",
	OpNop: "nop", OpHalt: "halt",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is an opcode of the instruction set.
func (o Op) Valid() bool { return o > OpInvalid && o < numOps }

var opsByName = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for o := OpInvalid + 1; o < numOps; o++ {
		m[opNames[o]] = o
	}
	return m
}()

// OpByName returns the opcode whose mnemonic is name. OpInvalid's name
// is not a mnemonic.
func OpByName(name string) (Op, bool) {
	o, ok := opsByName[name]
	return o, ok
}

// OperandClass describes which operand fields an opcode uses and how
// the assembler writes them: Operands lists them in assembly order. The
// assembler parses native mnemonics with it, the disassembler and
// Instr.String render with it, and the VM's Step dispatch is consistent
// with it by construction.
type OperandClass uint8

const (
	ClassNone   OperandClass = iota // no operands (nop, halt) or invalid
	ClassRRR                        // op rd, rs1, rs2
	ClassRRI                        // op rd, rs1, imm
	ClassRR                         // op rd, rs1 (fsqrt, cvtif, cvtfi)
	ClassRI                         // op rd, imm (lui)
	ClassLoad                       // op rd, imm(rs1)
	ClassStore                      // op rs2, imm(rs1)  (value register first)
	ClassBranch                     // op rs1, rs2, target
	ClassJal                        // jal rd, target
	ClassJalr                       // jalr rd, rs1, imm
)

// Operand is one operand as the assembler writes it, naming the
// instruction fields it sets.
type Operand uint8

const (
	OpdRd     Operand = iota // register rd
	OpdRs1                   // register rs1
	OpdRs2                   // register rs2
	OpdImm                   // immediate
	OpdTarget                // branch or jump target: an absolute address in imm
	OpdMem                   // imm(rs1)
)

var classOperands = [...][]Operand{
	ClassNone:   nil,
	ClassRRR:    {OpdRd, OpdRs1, OpdRs2},
	ClassRRI:    {OpdRd, OpdRs1, OpdImm},
	ClassRR:     {OpdRd, OpdRs1},
	ClassRI:     {OpdRd, OpdImm},
	ClassLoad:   {OpdRd, OpdMem},
	ClassStore:  {OpdRs2, OpdMem},
	ClassBranch: {OpdRs1, OpdRs2, OpdTarget},
	ClassJal:    {OpdRd, OpdTarget},
	ClassJalr:   {OpdRd, OpdRs1, OpdImm},
}

// Operands returns the class's operands in assembly order. Every field
// they do not name is zero in an assembled instruction.
func (c OperandClass) Operands() []Operand { return classOperands[c] }

// Class returns the operand class of the opcode.
func (o Op) Class() OperandClass {
	switch {
	case o >= OpAdd && o <= OpSltu, o == OpFAdd, o == OpFSub, o == OpFMul,
		o == OpFDiv, o == OpFSlt:
		return ClassRRR
	case o >= OpAddi && o <= OpMuli:
		return ClassRRI
	case o == OpFSqrt, o == OpCvtIF, o == OpCvtFI:
		return ClassRR
	case o == OpLui:
		return ClassRI
	case o.IsLoad():
		return ClassLoad
	case o.IsStore():
		return ClassStore
	case o.IsBranch():
		return ClassBranch
	case o == OpJal:
		return ClassJal
	case o == OpJalr:
		return ClassJalr
	default:
		return ClassNone
	}
}

// IsLoad reports whether the opcode reads data memory.
func (o Op) IsLoad() bool { return o >= OpLb && o <= OpLd }

// IsStore reports whether the opcode writes data memory.
func (o Op) IsStore() bool { return o >= OpSb && o <= OpSd }

// IsBranch reports whether the opcode is a conditional branch.
func (o Op) IsBranch() bool { return o >= OpBeq && o <= OpBgeu }

// Instr is one decoded instruction.
type Instr struct {
	Op       Op
	Rd       uint8
	Rs1, Rs2 uint8
	Imm      int64
}

// String renders the instruction in assembler syntax, with a branch or
// jump target as a number.
func (i Instr) String() string { return i.Format(nil) }

// Format renders the instruction in assembler syntax, writing each
// operand of its class in order. A branch or jump target is written as
// the name label returns for it, when label is non-nil and has one;
// otherwise as a hex address, or in decimal when negative.
func (i Instr) Format(label func(addr uint64) (string, bool)) string {
	var b strings.Builder
	b.WriteString(i.Op.String())
	for n, opd := range i.Op.Class().Operands() {
		if n == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		switch opd {
		case OpdRd:
			fmt.Fprintf(&b, "r%d", i.Rd)
		case OpdRs1:
			fmt.Fprintf(&b, "r%d", i.Rs1)
		case OpdRs2:
			fmt.Fprintf(&b, "r%d", i.Rs2)
		case OpdImm:
			fmt.Fprintf(&b, "%d", i.Imm)
		case OpdMem:
			fmt.Fprintf(&b, "%d(r%d)", i.Imm, i.Rs1)
		case OpdTarget:
			name, ok := "", false
			if label != nil && i.Imm >= 0 {
				name, ok = label(uint64(i.Imm))
			}
			switch {
			case ok:
				b.WriteString(name)
			case i.Imm < 0:
				fmt.Fprintf(&b, "%d", i.Imm)
			default:
				fmt.Fprintf(&b, "0x%x", i.Imm)
			}
		}
	}
	return b.String()
}

// Program limits, for ReadImage, the assembler and the disassembler.
// ReadImage refuses an image with more instructions or data bytes. The
// assembler refuses a text or data section that spans more, or a base
// above MaxBaseAddr; with both caps, base+span cannot overflow uint64
// and every span fits in an int. The disassembler refuses a program the
// assembler would.
const (
	MaxInstrs    = 16 << 20 // instructions in one program
	MaxDataBytes = 1 << 30  // an image's data bytes; a data section's span
	MaxBaseAddr  = 1 << 62  // highest text or data base address
)

// Program is an assembled program: instructions at a base address plus
// initialised data segments.
type Program struct {
	Entry    uint64  // address of the first instruction to execute
	CodeBase uint64  // address of Code[0]
	Code     []Instr // instruction at CodeBase + 4*i
	Data     []Segment
	Symbols  map[string]uint64 // label → address (for tests and tooling)
}

// Segment is a contiguous initialised region of the data address space.
type Segment struct {
	Base  uint64
	Bytes []byte
}

// InstrAt returns the instruction at the given address.
// ok is false if the address is outside the code segment or unaligned.
func (p *Program) InstrAt(addr uint64) (Instr, bool) {
	if addr < p.CodeBase || addr%WordSize != 0 {
		return Instr{}, false
	}
	i := (addr - p.CodeBase) / WordSize
	if i >= uint64(len(p.Code)) {
		return Instr{}, false
	}
	return p.Code[i], true
}
