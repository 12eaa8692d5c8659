package vm

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// fuzzCodeBase is where FuzzRunMatchesReference's programs start.
const fuzzCodeBase = 0x1000

// fuzzImms are the immediates a fuzzed instruction picks from: small
// offsets and shifts, offsets that end an access just short of or
// across a page boundary, pages 64 apart (which share a page-cache
// entry), branch and jalr targets below, inside, unaligned in and past
// the code, and upper immediates that reach those pages through lui.
var fuzzImms = [...]int64{
	0, 1, -1, 3, 4, 8, -8, 63,
	pageSize - 1, pageSize - 2, pageSize - 4, pageSize - 8, -pageSize,
	2 * pageSize, 64 * pageSize, 64*pageSize - 3, 128*pageSize + 5,
	fuzzCodeBase - 4, fuzzCodeBase + 2, 0x9000000,
	64, 128, 1 << 15,
}

// fuzzRegs preset registers 20-24 to addresses near a page boundary, in
// pages 64 and 128 apart from those the data segment and the stack use,
// and in the code, so that loads and stores through them reach every
// page-cache case.
var fuzzRegs = map[int]uint64{
	20: pageSize - 4,
	21: 65*pageSize - 2,
	22: 64*pageSize + 8,
	23: 128 * pageSize,
	24: fuzzCodeBase,
}

// fuzzProgram builds the program FuzzRunMatchesReference runs: the
// instruction (op, rd, rs1, rs2, imm), then one instruction per five
// bytes of more (opcode, rd, rs1, rs2 and an immediate selector that
// picks from fuzzImms or, with its top bit set, a branch target in or
// just past the code), then halt. A data segment straddles the first
// page boundary.
func fuzzProgram(op, rd, rs1, rs2 uint8, imm int64, more []byte) *isa.Program {
	code := []isa.Instr{{Op: isa.Op(op), Rd: rd % isa.NumRegs, Rs1: rs1 % isa.NumRegs,
		Rs2: rs2 % isa.NumRegs, Imm: imm}}
	for ; len(more) >= 5 && len(code) < 32; more = more[5:] {
		ins := isa.Instr{Op: isa.Op(more[0] % 56), Rd: more[1] % isa.NumRegs,
			Rs1: more[2] % isa.NumRegs, Rs2: more[3] % isa.NumRegs}
		if sel := more[4]; sel&0x80 != 0 {
			ins.Imm = fuzzCodeBase + isa.WordSize*int64(sel&0x3f)
		} else {
			ins.Imm = fuzzImms[int(sel)%len(fuzzImms)]
		}
		code = append(code, ins)
	}
	code = append(code, isa.Instr{Op: isa.OpHalt})
	data := make([]byte, 16)
	for i := range data {
		data[i] = byte(0xf1 + i)
	}
	return &isa.Program{
		Entry:    fuzzCodeBase,
		CodeBase: fuzzCodeBase,
		Code:     code,
		Data:     []isa.Segment{{Base: pageSize - 8, Bytes: data}},
		Symbols:  map[string]uint64{},
	}
}

// refRecorder is a trace.BatchSink that keeps every reference.
type refRecorder []trace.Ref

func (r *refRecorder) Ref(x trace.Ref)     { *r = append(*r, x) }
func (r *refRecorder) Refs(xs []trace.Ref) { *r = append(*r, xs...) }

// FuzzRunMatchesReference runs short programs on CPU.Run and on the
// reference interpreter refCPU and requires the same reference stream,
// registers, PC, counters, halt state, errors and memory. Execution
// must never panic (every failure mode is a returned error), r0 must
// stay zero, the zero page must stay zero and every page-cache entry
// must hold its page's current page. The budget (1 + budget
// instructions) is split over 1 + (mode>>1)&7 Run calls, and the sink
// is a trace.BatchSink when mode&1 is set, a plain trace.Sink
// otherwise.
func FuzzRunMatchesReference(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(2), uint8(3), int64(4), uint64(7), uint64(9), []byte(nil), uint8(15), uint8(0))
	f.Add(uint8(30), uint8(2), uint8(1), uint8(1), int64(0x100000), uint64(0), uint64(0), []byte(nil), uint8(15), uint8(1))
	f.Add(uint8(255), uint8(0), uint8(0), uint8(0), int64(-1), uint64(1), uint64(2), []byte(nil), uint8(15), uint8(0))
	// ld r1, pageSize-4(r0) spans the data segment's page boundary; sd
	// then writes a never-written page 64 pages on, in the same entry,
	// and ld reads it back, over four Run calls into a plain sink.
	f.Add(uint8(isa.OpLd), uint8(1), uint8(0), uint8(0), int64(pageSize-4), uint64(0), uint64(0),
		[]byte{byte(isa.OpLd), 2, 22, 0, 0, byte(isa.OpSd), 0, 22, 1, 0, byte(isa.OpLd), 3, 22, 0, 0,
			byte(isa.OpLd), 4, 20, 0, 0}, uint8(63), uint8(6))
	// A counted loop: addi, then bne back to it, with a division by zero
	// once the count is spent, batched over two Run calls.
	f.Add(uint8(isa.OpAddi), uint8(5), uint8(0), uint8(0), int64(40), uint64(0), uint64(0),
		[]byte{byte(isa.OpAddi), 5, 5, 0, 2, byte(isa.OpSw), 0, 21, 5, 0, byte(isa.OpBne), 0, 5, 0, 0x81,
			byte(isa.OpDiv), 6, 5, 0, 0}, uint8(255), uint8(3))
	// jalr into the code, then out of it.
	f.Add(uint8(isa.OpJalr), uint8(31), uint8(24), uint8(0), int64(8), uint64(0), uint64(0),
		[]byte{byte(isa.OpNop), 0, 0, 0, 0, byte(isa.OpJalr), 0, 0, 0, 19}, uint8(7), uint8(1))
	f.Fuzz(func(t *testing.T, op, rd, rs1, rs2 uint8, imm int64, v1, v2 uint64, more []byte, budget, mode uint8) {
		prog := fuzzProgram(op, rd, rs1, rs2, imm, more)
		var got, want refRecorder
		var sink trace.Sink = &got
		if mode&1 == 0 {
			sink = trace.SinkFunc(got.Ref)
		}
		c, ref := New(prog, sink), newRefCPU(prog, &want)
		for r, v := range fuzzRegs {
			c.Regs[r], ref.Regs[r] = v, v
		}
		if r := rs1 % isa.NumRegs; r != isa.RegZero {
			c.Regs[r], ref.Regs[r] = v1, v1
		}
		if r := rs2 % isa.NumRegs; r != isa.RegZero {
			c.Regs[r], ref.Regs[r] = v2, v2
		}

		total, calls := 1+int64(budget), 1+int64(mode>>1&7)
		for k := int64(1); k <= calls; k++ {
			b := max(1, total*k/calls)
			err, refErr := c.Run(b), ref.run(b)
			if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
				t.Fatalf("Run(%d) = %v, reference %v", b, err, refErr)
			}
		}

		if !reflect.DeepEqual([]trace.Ref(got), []trace.Ref(want)) {
			t.Fatalf("references differ:\n got  %v\n want %v", got, want)
		}
		if c.Regs != ref.Regs || c.PC != ref.PC || c.Halted() != ref.halted {
			t.Fatalf("state: regs %x pc %#x halted %v; reference regs %x pc %#x halted %v",
				c.Regs, c.PC, c.Halted(), ref.Regs, ref.PC, ref.halted)
		}
		if c.Instructions != ref.Instructions || c.Branches != ref.Branches ||
			c.TakenBranches != ref.TakenBranches || c.FloatOps != ref.FloatOps {
			t.Fatalf("counters %d/%d/%d/%d, reference %d/%d/%d/%d",
				c.Instructions, c.Branches, c.TakenBranches, c.FloatOps,
				ref.Instructions, ref.Branches, ref.TakenBranches, ref.FloatOps)
		}
		if c.Regs[isa.RegZero] != 0 {
			t.Fatal("r0 modified")
		}
		checkMemory(t, c.Mem, ref.mem)
	})
}

// checkMemory requires m to hold exactly the bytes of ref, its page
// cache to agree with its pages, and the zero page to be zero. Every
// byte of ref reads back from m, so m holds no other byte when both
// hold as many nonzero bytes.
func checkMemory(t *testing.T, m *Memory, ref map[uint64]byte) {
	t.Helper()
	nonzero := 0
	for addr, b := range ref {
		if got := m.Load8(addr); got != b {
			t.Fatalf("byte at %#x = %#x, reference %#x", addr, got, b)
		}
		if b != 0 {
			nonzero++
		}
	}
	zero := []byte{0}
	for _, p := range m.pages {
		nonzero -= pageSize - bytes.Count(p[:], zero)
	}
	if nonzero != 0 {
		t.Fatalf("memory and reference differ by %d nonzero bytes", nonzero)
	}
	for i, e := range m.tlb {
		if e.pn == noPage {
			continue
		}
		want := m.pages[e.pn]
		if want == nil {
			want = &zeroPage
		}
		if e.pn%tlbSize != uint64(i) || e.p != want {
			t.Fatalf("page-cache entry %d holds page %#x at %p, want %p", i, e.pn, e.p, want)
		}
	}
	if bytes.Count(zeroPage[:], zero) != pageSize {
		t.Fatal("the zero page was written")
	}
}
