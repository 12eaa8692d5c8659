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
	"encoding/binary"
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

	// tlbSize is the page cache's entry count. Page number pn lives in
	// entry pn % tlbSize, so pages tlbSize apart share an entry.
	tlbSize = 64
	// noPage marks an empty page-cache entry: page numbers are at most
	// 64-pageShift bits wide, so no address has it.
	noPage = ^uint64(0)
)

// zeroPage stands in, in the page cache, for every page that was never
// written, so reading such a page allocates nothing and costs one map
// lookup per page-cache miss. Nothing writes it: page replaces its
// entry with a private page first.
var zeroPage [pageSize]byte

// Memory is a sparse byte-addressable memory: 64 KiB pages, allocated
// on first write, in a map behind a direct-mapped page cache.
type Memory struct {
	pages map[uint64]*[pageSize]byte
	tlb   [tlbSize]tlbEntry
}

// tlbEntry caches page number pn: p is its page, or &zeroPage while it
// was never written.
type tlbEntry struct {
	pn uint64
	p  *[pageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	m := &Memory{pages: make(map[uint64]*[pageSize]byte)}
	for i := range m.tlb {
		m.tlb[i].pn = noPage
	}
	return m
}

// readPage returns the page holding addr for reading: the zero page
// if it was never written.
func (m *Memory) readPage(addr uint64) *[pageSize]byte {
	pn := addr >> pageShift
	e := &m.tlb[pn%tlbSize]
	if e.pn != pn {
		p := m.pages[pn]
		if p == nil {
			p = &zeroPage
		}
		*e = tlbEntry{pn, p}
	}
	return e.p
}

// page returns the page holding addr for writing, allocating it on its
// first write.
func (m *Memory) page(addr uint64) *[pageSize]byte {
	pn := addr >> pageShift
	e := &m.tlb[pn%tlbSize]
	if e.pn != pn || e.p == &zeroPage {
		p := m.pages[pn]
		if p == nil {
			p = new([pageSize]byte)
			m.pages[pn] = p
		}
		*e = tlbEntry{pn, p}
	}
	return e.p
}

// Load8 returns the byte at addr (0 for untouched memory).
func (m *Memory) Load8(addr uint64) byte {
	return m.readPage(addr)[addr&pageMask]
}

// Store8 stores one byte.
func (m *Memory) Store8(addr uint64, v byte) {
	m.page(addr)[addr&pageMask] = v
}

// checkSize panics on an access width the ISA cannot produce. Run
// only ever passes 1, 2, 4 or 8, the width of a load or store opcode,
// so this guards direct Memory users: a bad width would otherwise
// silently read or write a garbage-sized value.
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
	off := addr & pageMask
	if off+uint64(size) <= pageSize {
		p := m.readPage(addr)[off:]
		switch size {
		case 1:
			return uint64(p[0])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p))
		}
		return binary.LittleEndian.Uint64(p)
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
		p := m.page(addr)[off:]
		switch size {
		case 1:
			p[0] = byte(v)
		case 2:
			binary.LittleEndian.PutUint16(p, uint16(v))
		case 4:
			binary.LittleEndian.PutUint32(p, uint32(v))
		default:
			binary.LittleEndian.PutUint64(p, v)
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
	// batch stages Run's references for the sink.
	batch [refBatchLen]trace.Ref

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

// refBatchLen is the Run loop's staging buffer size. Large enough to
// amortise the sink call, small enough to stay cache-resident.
const refBatchLen = 256

// Run executes instructions until the cumulative instruction count
// reaches budget (forever if budget <= 0) or the program halts. It
// returns nil if the program halted, ErrBudget if the budget expired
// first, or an execution error (bad opcode, divide by zero, fetch
// outside the code segment). A fault leaves the references before it
// delivered and, unless the fetch itself faulted, the faulting
// instruction counted in Instructions with PC still at it.
//
// Run is the VM's only execution path: to single-step, call
// Run(c.Instructions+1). It stages references in a buffer and hands
// them over with trace.EmitAll, in slices to a trace.BatchSink and one
// at a time to a plain Sink, in program order, draining the buffer
// before it returns. A sink may therefore receive a reference up to a
// batch after the instruction that made it, so no sink may read the
// CPU's state; none does.
func (c *CPU) Run(budget int64) error {
	if c.halted {
		return nil
	}
	if budget <= 0 {
		budget = math.MaxInt64
	}
	code, base := c.prog.Code, c.prog.CodeBase
	mem, r, refs := c.Mem, &c.Regs, &c.batch
	pc, n, nb := c.PC, c.Instructions, 0
	for n < budget {
		// An instruction makes at most two references.
		if nb > refBatchLen-2 {
			trace.EmitAll(c.sink, refs[:nb])
			nb = 0
		}
		// A PC below base wraps to an index past the end.
		i := (pc - base) / isa.WordSize
		if pc%isa.WordSize != 0 || i >= uint64(len(code)) {
			return c.stop(pc, n, nb, fmt.Errorf("vm: instruction fetch outside code segment at 0x%x", pc))
		}
		ins := &code[i]
		refs[nb] = trace.Ref{Kind: trace.Ifetch, Addr: pc, Size: isa.WordSize}
		nb++
		n++
		next := pc + isa.WordSize

		switch ins.Op {
		case isa.OpAdd:
			r[ins.Rd] = r[ins.Rs1] + r[ins.Rs2]
		case isa.OpSub:
			r[ins.Rd] = r[ins.Rs1] - r[ins.Rs2]
		case isa.OpAnd:
			r[ins.Rd] = r[ins.Rs1] & r[ins.Rs2]
		case isa.OpOr:
			r[ins.Rd] = r[ins.Rs1] | r[ins.Rs2]
		case isa.OpXor:
			r[ins.Rd] = r[ins.Rs1] ^ r[ins.Rs2]
		case isa.OpSll:
			r[ins.Rd] = r[ins.Rs1] << (r[ins.Rs2] & 63)
		case isa.OpSrl:
			r[ins.Rd] = r[ins.Rs1] >> (r[ins.Rs2] & 63)
		case isa.OpSra:
			r[ins.Rd] = uint64(int64(r[ins.Rs1]) >> (r[ins.Rs2] & 63))
		case isa.OpMul:
			r[ins.Rd] = r[ins.Rs1] * r[ins.Rs2]
		case isa.OpDiv:
			d := int64(r[ins.Rs2])
			if d == 0 {
				return c.stop(pc, n, nb, fmt.Errorf("vm: divide by zero at 0x%x", pc))
			}
			r[ins.Rd] = uint64(int64(r[ins.Rs1]) / d)
		case isa.OpRem:
			d := int64(r[ins.Rs2])
			if d == 0 {
				return c.stop(pc, n, nb, fmt.Errorf("vm: remainder by zero at 0x%x", pc))
			}
			r[ins.Rd] = uint64(int64(r[ins.Rs1]) % d)
		case isa.OpSlt:
			r[ins.Rd] = b2u(int64(r[ins.Rs1]) < int64(r[ins.Rs2]))
		case isa.OpSltu:
			r[ins.Rd] = b2u(r[ins.Rs1] < r[ins.Rs2])

		case isa.OpAddi:
			r[ins.Rd] = r[ins.Rs1] + uint64(ins.Imm)
		case isa.OpAndi:
			r[ins.Rd] = r[ins.Rs1] & uint64(ins.Imm)
		case isa.OpOri:
			r[ins.Rd] = r[ins.Rs1] | uint64(ins.Imm)
		case isa.OpXori:
			r[ins.Rd] = r[ins.Rs1] ^ uint64(ins.Imm)
		case isa.OpSlli:
			r[ins.Rd] = r[ins.Rs1] << (uint64(ins.Imm) & 63)
		case isa.OpSrli:
			r[ins.Rd] = r[ins.Rs1] >> (uint64(ins.Imm) & 63)
		case isa.OpSrai:
			r[ins.Rd] = uint64(int64(r[ins.Rs1]) >> (uint64(ins.Imm) & 63))
		case isa.OpSlti:
			r[ins.Rd] = b2u(int64(r[ins.Rs1]) < ins.Imm)
		case isa.OpMuli:
			r[ins.Rd] = r[ins.Rs1] * uint64(ins.Imm)
		case isa.OpLui:
			r[ins.Rd] = uint64(ins.Imm) << 16

		case isa.OpFAdd:
			c.FloatOps++
			r[ins.Rd] = math.Float64bits(math.Float64frombits(r[ins.Rs1]) + math.Float64frombits(r[ins.Rs2]))
		case isa.OpFSub:
			c.FloatOps++
			r[ins.Rd] = math.Float64bits(math.Float64frombits(r[ins.Rs1]) - math.Float64frombits(r[ins.Rs2]))
		case isa.OpFMul:
			c.FloatOps++
			r[ins.Rd] = math.Float64bits(math.Float64frombits(r[ins.Rs1]) * math.Float64frombits(r[ins.Rs2]))
		case isa.OpFDiv:
			c.FloatOps++
			r[ins.Rd] = math.Float64bits(math.Float64frombits(r[ins.Rs1]) / math.Float64frombits(r[ins.Rs2]))
		case isa.OpFSqrt:
			c.FloatOps++
			r[ins.Rd] = math.Float64bits(math.Sqrt(math.Float64frombits(r[ins.Rs1])))
		case isa.OpCvtIF:
			c.FloatOps++
			r[ins.Rd] = math.Float64bits(float64(int64(r[ins.Rs1])))
		case isa.OpCvtFI:
			c.FloatOps++
			r[ins.Rd] = uint64(int64(math.Float64frombits(r[ins.Rs1])))
		case isa.OpFSlt:
			c.FloatOps++
			r[ins.Rd] = b2u(math.Float64frombits(r[ins.Rs1]) < math.Float64frombits(r[ins.Rs2]))

		case isa.OpLb:
			addr := r[ins.Rs1] + uint64(ins.Imm)
			refs[nb] = trace.Ref{Kind: trace.Load, Addr: addr, Size: 1}
			nb++
			r[ins.Rd] = uint64(int64(int8(mem.Read(addr, 1))))
		case isa.OpLbu:
			addr := r[ins.Rs1] + uint64(ins.Imm)
			refs[nb] = trace.Ref{Kind: trace.Load, Addr: addr, Size: 1}
			nb++
			r[ins.Rd] = mem.Read(addr, 1)
		case isa.OpLh:
			addr := r[ins.Rs1] + uint64(ins.Imm)
			refs[nb] = trace.Ref{Kind: trace.Load, Addr: addr, Size: 2}
			nb++
			r[ins.Rd] = uint64(int64(int16(mem.Read(addr, 2))))
		case isa.OpLhu:
			addr := r[ins.Rs1] + uint64(ins.Imm)
			refs[nb] = trace.Ref{Kind: trace.Load, Addr: addr, Size: 2}
			nb++
			r[ins.Rd] = mem.Read(addr, 2)
		case isa.OpLw:
			addr := r[ins.Rs1] + uint64(ins.Imm)
			refs[nb] = trace.Ref{Kind: trace.Load, Addr: addr, Size: 4}
			nb++
			r[ins.Rd] = uint64(int64(int32(mem.Read(addr, 4))))
		case isa.OpLwu:
			addr := r[ins.Rs1] + uint64(ins.Imm)
			refs[nb] = trace.Ref{Kind: trace.Load, Addr: addr, Size: 4}
			nb++
			r[ins.Rd] = mem.Read(addr, 4)
		case isa.OpLd:
			addr := r[ins.Rs1] + uint64(ins.Imm)
			refs[nb] = trace.Ref{Kind: trace.Load, Addr: addr, Size: 8}
			nb++
			r[ins.Rd] = mem.Read(addr, 8)

		case isa.OpSb:
			addr := r[ins.Rs1] + uint64(ins.Imm)
			refs[nb] = trace.Ref{Kind: trace.Store, Addr: addr, Size: 1}
			nb++
			mem.Write(addr, 1, r[ins.Rs2])
		case isa.OpSh:
			addr := r[ins.Rs1] + uint64(ins.Imm)
			refs[nb] = trace.Ref{Kind: trace.Store, Addr: addr, Size: 2}
			nb++
			mem.Write(addr, 2, r[ins.Rs2])
		case isa.OpSw:
			addr := r[ins.Rs1] + uint64(ins.Imm)
			refs[nb] = trace.Ref{Kind: trace.Store, Addr: addr, Size: 4}
			nb++
			mem.Write(addr, 4, r[ins.Rs2])
		case isa.OpSd:
			addr := r[ins.Rs1] + uint64(ins.Imm)
			refs[nb] = trace.Ref{Kind: trace.Store, Addr: addr, Size: 8}
			nb++
			mem.Write(addr, 8, r[ins.Rs2])

		case isa.OpBeq:
			c.Branches++
			if r[ins.Rs1] == r[ins.Rs2] {
				c.TakenBranches++
				next = uint64(ins.Imm)
			}
		case isa.OpBne:
			c.Branches++
			if r[ins.Rs1] != r[ins.Rs2] {
				c.TakenBranches++
				next = uint64(ins.Imm)
			}
		case isa.OpBlt:
			c.Branches++
			if int64(r[ins.Rs1]) < int64(r[ins.Rs2]) {
				c.TakenBranches++
				next = uint64(ins.Imm)
			}
		case isa.OpBge:
			c.Branches++
			if int64(r[ins.Rs1]) >= int64(r[ins.Rs2]) {
				c.TakenBranches++
				next = uint64(ins.Imm)
			}
		case isa.OpBltu:
			c.Branches++
			if r[ins.Rs1] < r[ins.Rs2] {
				c.TakenBranches++
				next = uint64(ins.Imm)
			}
		case isa.OpBgeu:
			c.Branches++
			if r[ins.Rs1] >= r[ins.Rs2] {
				c.TakenBranches++
				next = uint64(ins.Imm)
			}

		case isa.OpJal:
			r[ins.Rd] = next
			next = uint64(ins.Imm)
		case isa.OpJalr:
			target := r[ins.Rs1] + uint64(ins.Imm)
			r[ins.Rd] = next
			next = target

		case isa.OpNop:
		case isa.OpHalt:
			c.halted = true
			r[isa.RegZero] = 0
			return c.stop(next, n, nb, nil)

		default:
			return c.stop(pc, n, nb, fmt.Errorf("vm: invalid opcode %v at 0x%x", ins.Op, pc))
		}
		r[isa.RegZero] = 0
		pc = next
	}
	return c.stop(pc, n, nb, ErrBudget)
}

// stop ends a Run: it writes the loop's PC and instruction count back,
// delivers the nb staged references and returns err.
func (c *CPU) stop(pc uint64, n int64, nb int, err error) error {
	c.PC, c.Instructions = pc, n
	if nb > 0 {
		trace.EmitAll(c.sink, c.batch[:nb])
	}
	return err
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
