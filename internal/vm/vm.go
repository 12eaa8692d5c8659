// Package vm is the functional simulator that executes assembled
// programs and emits their memory-reference streams. It corresponds to
// the SHADE-derived execution-driven simulator in the paper's
// uniprocessor methodology (Section 5.1): the program really executes
// (registers and memory change), and every instruction fetch, load, and
// store is pushed into a trace.Sink consumed online by cache models.
//
// Memory is a sparse, demand-paged byte store so workloads can touch
// tens of megabytes (the Synopsys-like workload exceeds 50 MB) without
// preallocating them.
package vm

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/trace"
)

// ErrBudget is returned by Run when the instruction budget expires
// before the program halts. This is the normal way workload simulations
// end, so callers usually treat it as success.
var ErrBudget = errors.New("vm: instruction budget exhausted")

const (
	pageShift = 16 // 64 KiB pages
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Memory is a sparse byte-addressable memory.
type Memory struct {
	pages map[uint64]*[pageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Memory) page(addr uint64) *[pageSize]byte {
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	return p
}

// Load8 returns the byte at addr (0 for untouched memory).
func (m *Memory) Load8(addr uint64) byte {
	if p := m.pages[addr>>pageShift]; p != nil {
		return p[addr&pageMask]
	}
	return 0
}

// Store8 stores one byte.
func (m *Memory) Store8(addr uint64, v byte) {
	m.page(addr)[addr&pageMask] = v
}

// checkSize panics on an access width the ISA cannot produce. Step()
// only ever passes isa.Op.MemSize() results (1, 2, 4 or 8 for every
// load/store opcode), so this guards direct Memory users: a bad width
// would otherwise silently read or write a garbage-sized value.
func checkSize(size int) {
	switch size {
	case 1, 2, 4, 8:
	default:
		panic(fmt.Sprintf("vm: invalid memory access size %d (must be 1, 2, 4 or 8)", size))
	}
}

// Read returns size bytes at addr as a little-endian unsigned integer.
// size must be 1, 2, 4 or 8. Accesses may span pages.
func (m *Memory) Read(addr uint64, size int) uint64 {
	checkSize(size)
	// Fast path: within one page.
	off := addr & pageMask
	if off+uint64(size) <= pageSize {
		p := m.pages[addr>>pageShift]
		if p == nil {
			return 0
		}
		var v uint64
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(p[off+uint64(i)])
		}
		return v
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(m.Load8(addr+uint64(i)))
	}
	return v
}

// Write stores size bytes at addr, little-endian.
// size must be 1, 2, 4 or 8. Accesses may span pages.
func (m *Memory) Write(addr uint64, size int, v uint64) {
	checkSize(size)
	off := addr & pageMask
	if off+uint64(size) <= pageSize {
		p := m.page(addr)
		for i := 0; i < size; i++ {
			p[off+uint64(i)] = byte(v)
			v >>= 8
		}
		return
	}
	for i := 0; i < size; i++ {
		m.Store8(addr+uint64(i), byte(v))
		v >>= 8
	}
}

// CPU executes one program.
type CPU struct {
	Regs [isa.NumRegs]uint64
	PC   uint64
	Mem  *Memory

	prog *isa.Program
	sink trace.Sink

	// Batched emission (active only inside Run): when the sink supports
	// trace.BatchSink, references are staged in batch and handed over in
	// slices, eliminating one interface call per reference.
	bsink    trace.BatchSink
	batch    []trace.Ref
	batching bool

	// Instructions counts retired instructions (including nops).
	Instructions int64
	// Branches and TakenBranches count conditional branches.
	Branches      int64
	TakenBranches int64
	// FloatOps counts floating-point arithmetic instructions.
	FloatOps int64
	halted   bool
}

// New creates a CPU for the program, loading its data segments, with
// references delivered to sink (which may be trace.Discard).
func New(p *isa.Program, sink trace.Sink) *CPU {
	c := &CPU{Mem: NewMemory(), prog: p, sink: sink, PC: p.Entry}
	for _, seg := range p.Data {
		for i, b := range seg.Bytes {
			if b != 0 {
				c.Mem.Store8(seg.Base+uint64(i), b)
			}
		}
	}
	// A stack for workloads that use call/ret with spills: grows down
	// from just below the data base.
	c.Regs[isa.RegSP] = asmStackTop
	return c
}

// asmStackTop is where the simulated stack starts (grows down).
const asmStackTop = 0xF0000

// Halted reports whether the program executed a halt instruction.
func (c *CPU) Halted() bool { return c.halted }

// refBatchLen is the Run-loop staging buffer size. Large enough to
// amortise the batched-sink call, small enough to stay cache-resident.
const refBatchLen = 256

// emit delivers one reference, staging it when batching is active.
func (c *CPU) emit(r trace.Ref) {
	if !c.batching {
		c.sink.Ref(r)
		return
	}
	c.batch = append(c.batch, r)
	if len(c.batch) == cap(c.batch) {
		c.bsink.Refs(c.batch)
		c.batch = c.batch[:0]
	}
}

// flushBatch drains any staged references to the batched sink.
func (c *CPU) flushBatch() {
	if len(c.batch) > 0 {
		c.bsink.Refs(c.batch)
		c.batch = c.batch[:0]
	}
}

// Run executes up to budget instructions (or forever if budget <= 0,
// until halt). It returns nil if the program halted, ErrBudget if the
// budget expired first, or an execution error (bad opcode, divide by
// zero, fetch outside the code segment).
//
// When the sink implements trace.BatchSink, Run stages references in a
// reusable buffer and delivers them in slices; the stream content and
// order are identical, and the buffer is drained before Run returns.
// Direct Step callers always get per-reference delivery.
func (c *CPU) Run(budget int64) error {
	if b, ok := c.sink.(trace.BatchSink); ok && !c.batching {
		c.bsink = b
		if c.batch == nil {
			c.batch = make([]trace.Ref, 0, refBatchLen)
		}
		c.batching = true
		defer func() {
			c.flushBatch()
			c.batching = false
		}()
	}
	for budget <= 0 || c.Instructions < budget {
		if c.halted {
			return nil
		}
		if err := c.Step(); err != nil {
			return err
		}
	}
	if c.halted {
		return nil
	}
	return ErrBudget
}

// Step executes a single instruction.
func (c *CPU) Step() error {
	ins, ok := c.prog.InstrAt(c.PC)
	if !ok {
		return fmt.Errorf("vm: instruction fetch outside code segment at 0x%x", c.PC)
	}
	c.emit(trace.Ref{Kind: trace.Ifetch, Addr: c.PC, Size: isa.WordSize})
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
		size := ins.Op.MemSize()
		c.emit(trace.Ref{Kind: trace.Load, Addr: addr, Size: uint8(size)})
		v := c.Mem.Read(addr, size)
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
		size := ins.Op.MemSize()
		c.emit(trace.Ref{Kind: trace.Store, Addr: addr, Size: uint8(size)})
		c.Mem.Write(addr, size, rs2)
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

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// RunProgram is a convenience wrapper: assemble-free execution of a
// prepared program for up to budget instructions, returning the CPU for
// inspection. An ErrBudget result is mapped to nil since budget
// expiry is the expected outcome for workload simulation.
func RunProgram(p *isa.Program, sink trace.Sink, budget int64) (*CPU, error) {
	c := New(p, sink)
	err := c.Run(budget)
	if errors.Is(err, ErrBudget) {
		err = nil
	}
	return c, err
}
