package vm

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/trace"
)

// refCPU is the reference interpreter CPU.Run is checked against: one
// instruction per step call, each reference delivered to the sink as it
// is made, over a plain byte map with no pages, page cache or zero
// page. It follows the ISA as directly as it can, not quickly.
type refCPU struct {
	Regs [isa.NumRegs]uint64
	PC   uint64
	mem  map[uint64]byte

	prog *isa.Program
	sink trace.Sink

	Instructions  int64
	Branches      int64
	TakenBranches int64
	FloatOps      int64
	halted        bool
}

// newRefCPU loads p as New does.
func newRefCPU(p *isa.Program, sink trace.Sink) *refCPU {
	c := &refCPU{mem: map[uint64]byte{}, prog: p, sink: sink, PC: p.Entry}
	for _, seg := range p.Data {
		for i, b := range seg.Bytes {
			c.mem[seg.Base+uint64(i)] = b
		}
	}
	c.Regs[isa.RegSP] = asmStackTop
	return c
}

// read returns size little-endian bytes at addr.
func (c *refCPU) read(addr uint64, size int) uint64 {
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(c.mem[addr+uint64(i)])
	}
	return v
}

// write stores size little-endian bytes of v at addr.
func (c *refCPU) write(addr uint64, size int, v uint64) {
	for i := 0; i < size; i++ {
		c.mem[addr+uint64(i)] = byte(v)
		v >>= 8
	}
}

// run has CPU.Run's contract.
func (c *refCPU) run(budget int64) error {
	for budget <= 0 || c.Instructions < budget {
		if c.halted {
			return nil
		}
		if err := c.step(); err != nil {
			return err
		}
	}
	if c.halted {
		return nil
	}
	return ErrBudget
}

// step executes a single instruction.
func (c *refCPU) step() error {
	ins, ok := c.prog.InstrAt(c.PC)
	if !ok {
		return fmt.Errorf("vm: instruction fetch outside code segment at 0x%x", c.PC)
	}
	c.sink.Ref(trace.Ref{Kind: trace.Ifetch, Addr: c.PC, Size: isa.WordSize})
	c.Instructions++
	nextPC := c.PC + isa.WordSize

	r := &c.Regs
	rs1 := r[ins.Rs1]
	rs2 := r[ins.Rs2]
	var rd uint64
	writeRd := true

	switch ins.Op {
	case isa.OpAdd:
		rd = rs1 + rs2
	case isa.OpSub:
		rd = rs1 - rs2
	case isa.OpAnd:
		rd = rs1 & rs2
	case isa.OpOr:
		rd = rs1 | rs2
	case isa.OpXor:
		rd = rs1 ^ rs2
	case isa.OpSll:
		rd = rs1 << (rs2 & 63)
	case isa.OpSrl:
		rd = rs1 >> (rs2 & 63)
	case isa.OpSra:
		rd = uint64(int64(rs1) >> (rs2 & 63))
	case isa.OpMul:
		rd = rs1 * rs2
	case isa.OpDiv:
		if rs2 == 0 {
			return fmt.Errorf("vm: divide by zero at 0x%x", c.PC)
		}
		rd = uint64(int64(rs1) / int64(rs2))
	case isa.OpRem:
		if rs2 == 0 {
			return fmt.Errorf("vm: remainder by zero at 0x%x", c.PC)
		}
		rd = uint64(int64(rs1) % int64(rs2))
	case isa.OpSlt:
		rd = b2u(int64(rs1) < int64(rs2))
	case isa.OpSltu:
		rd = b2u(rs1 < rs2)

	case isa.OpAddi:
		rd = rs1 + uint64(ins.Imm)
	case isa.OpAndi:
		rd = rs1 & uint64(ins.Imm)
	case isa.OpOri:
		rd = rs1 | uint64(ins.Imm)
	case isa.OpXori:
		rd = rs1 ^ uint64(ins.Imm)
	case isa.OpSlli:
		rd = rs1 << (uint64(ins.Imm) & 63)
	case isa.OpSrli:
		rd = rs1 >> (uint64(ins.Imm) & 63)
	case isa.OpSrai:
		rd = uint64(int64(rs1) >> (uint64(ins.Imm) & 63))
	case isa.OpSlti:
		rd = b2u(int64(rs1) < ins.Imm)
	case isa.OpMuli:
		rd = rs1 * uint64(ins.Imm)
	case isa.OpLui:
		rd = uint64(ins.Imm) << 16

	case isa.OpFAdd:
		c.FloatOps++
		rd = math.Float64bits(math.Float64frombits(rs1) + math.Float64frombits(rs2))
	case isa.OpFSub:
		c.FloatOps++
		rd = math.Float64bits(math.Float64frombits(rs1) - math.Float64frombits(rs2))
	case isa.OpFMul:
		c.FloatOps++
		rd = math.Float64bits(math.Float64frombits(rs1) * math.Float64frombits(rs2))
	case isa.OpFDiv:
		c.FloatOps++
		rd = math.Float64bits(math.Float64frombits(rs1) / math.Float64frombits(rs2))
	case isa.OpFSqrt:
		c.FloatOps++
		rd = math.Float64bits(math.Sqrt(math.Float64frombits(rs1)))
	case isa.OpCvtIF:
		c.FloatOps++
		rd = math.Float64bits(float64(int64(rs1)))
	case isa.OpCvtFI:
		c.FloatOps++
		rd = uint64(int64(math.Float64frombits(rs1)))
	case isa.OpFSlt:
		c.FloatOps++
		rd = b2u(math.Float64frombits(rs1) < math.Float64frombits(rs2))

	case isa.OpLb, isa.OpLbu, isa.OpLh, isa.OpLhu, isa.OpLw, isa.OpLwu, isa.OpLd:
		addr := rs1 + uint64(ins.Imm)
		size := memSize(ins.Op)
		c.sink.Ref(trace.Ref{Kind: trace.Load, Addr: addr, Size: uint8(size)})
		v := c.read(addr, size)
		switch ins.Op {
		case isa.OpLb:
			v = uint64(int64(int8(v)))
		case isa.OpLh:
			v = uint64(int64(int16(v)))
		case isa.OpLw:
			v = uint64(int64(int32(v)))
		}
		rd = v

	case isa.OpSb, isa.OpSh, isa.OpSw, isa.OpSd:
		addr := rs1 + uint64(ins.Imm)
		size := memSize(ins.Op)
		c.sink.Ref(trace.Ref{Kind: trace.Store, Addr: addr, Size: uint8(size)})
		c.write(addr, size, rs2)
		writeRd = false

	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu:
		c.Branches++
		var taken bool
		switch ins.Op {
		case isa.OpBeq:
			taken = rs1 == rs2
		case isa.OpBne:
			taken = rs1 != rs2
		case isa.OpBlt:
			taken = int64(rs1) < int64(rs2)
		case isa.OpBge:
			taken = int64(rs1) >= int64(rs2)
		case isa.OpBltu:
			taken = rs1 < rs2
		case isa.OpBgeu:
			taken = rs1 >= rs2
		}
		if taken {
			c.TakenBranches++
			nextPC = uint64(ins.Imm)
		}
		writeRd = false

	case isa.OpJal:
		rd = c.PC + isa.WordSize
		nextPC = uint64(ins.Imm)
	case isa.OpJalr:
		rd = c.PC + isa.WordSize
		nextPC = rs1 + uint64(ins.Imm)

	case isa.OpNop:
		writeRd = false
	case isa.OpHalt:
		c.halted = true
		writeRd = false

	default:
		return fmt.Errorf("vm: invalid opcode %v at 0x%x", ins.Op, c.PC)
	}

	if writeRd && ins.Rd != isa.RegZero {
		r[ins.Rd] = rd
	}
	r[isa.RegZero] = 0
	c.PC = nextPC
	return nil
}

// memSize returns the access width in bytes of a load or store opcode.
func memSize(o isa.Op) int {
	switch o {
	case isa.OpLb, isa.OpLbu, isa.OpSb:
		return 1
	case isa.OpLh, isa.OpLhu, isa.OpSh:
		return 2
	case isa.OpLw, isa.OpLwu, isa.OpSw:
		return 4
	case isa.OpLd, isa.OpSd:
		return 8
	}
	panic(fmt.Sprintf("vm: %v is neither a load nor a store", o))
}
