package vm

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Property tests cross-checking the simulator's instruction semantics
// against Go's own arithmetic, using testing/quick to generate operand
// values.

// evalBinary runs "op r3, r1, r2" with the given operand values and
// returns r3.
func evalBinary(t *testing.T, op string, a, b uint64) uint64 {
	t.Helper()
	src := fmt.Sprintf(`
	main:	%s r3, r1, r2
		halt
	`, op)
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p, trace.Discard)
	c.Regs[1] = a
	c.Regs[2] = b
	if err := c.Run(0); err != nil {
		t.Fatalf("%s(%#x, %#x): %v", op, a, b, err)
	}
	return c.Regs[3]
}

func TestALUSemanticsProperty(t *testing.T) {
	ops := map[string]func(a, b uint64) uint64{
		"add": func(a, b uint64) uint64 { return a + b },
		"sub": func(a, b uint64) uint64 { return a - b },
		"and": func(a, b uint64) uint64 { return a & b },
		"or":  func(a, b uint64) uint64 { return a | b },
		"xor": func(a, b uint64) uint64 { return a ^ b },
		"mul": func(a, b uint64) uint64 { return a * b },
		"sll": func(a, b uint64) uint64 { return a << (b & 63) },
		"srl": func(a, b uint64) uint64 { return a >> (b & 63) },
		"sra": func(a, b uint64) uint64 { return uint64(int64(a) >> (b & 63)) },
		"slt": func(a, b uint64) uint64 {
			if int64(a) < int64(b) {
				return 1
			}
			return 0
		},
		"sltu": func(a, b uint64) uint64 {
			if a < b {
				return 1
			}
			return 0
		},
	}
	for op, want := range ops {
		op, want := op, want
		t.Run(op, func(t *testing.T) {
			f := func(a, b uint64) bool {
				return evalBinary(t, op, a, b) == want(a, b)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestDivRemSemanticsProperty(t *testing.T) {
	f := func(a uint64, b uint64) bool {
		if b == 0 {
			b = 1
		}
		// Avoid the INT64_MIN / -1 overflow trap, which Go panics on.
		if int64(a) == math.MinInt64 && int64(b) == -1 {
			return true
		}
		q := evalBinary(t, "div", a, b)
		r := evalBinary(t, "rem", a, b)
		return int64(q) == int64(a)/int64(b) && int64(r) == int64(a)%int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFloatSemanticsProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		got := evalBinary(t, "fadd", math.Float64bits(a), math.Float64bits(b))
		want := math.Float64bits(a + b)
		gotM := evalBinary(t, "fmul", math.Float64bits(a), math.Float64bits(b))
		wantM := math.Float64bits(a * b)
		return got == want && gotM == wantM
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMemoryRoundTripProperty: Write then Read returns the value for
// every size, at arbitrary (page-crossing) addresses.
func TestMemoryRoundTripProperty(t *testing.T) {
	f := func(addr uint64, v uint64, szSel uint8) bool {
		addr %= 1 << 30
		size := []int{1, 2, 4, 8}[szSel%4]
		m := NewMemory()
		m.Write(addr, size, v)
		want := v
		if size < 8 {
			want = v & (1<<uint(8*size) - 1)
		}
		return m.Read(addr, size) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMemoryRejectsBadSizeProperty: every access width outside
// {1,2,4,8} panics with a clear message instead of silently reading or
// writing a garbage-sized value. Run can never produce such a width
// (it passes 1, 2, 4 or 8, the width of a load or store opcode), so
// this guards direct Memory users.
func TestMemoryRejectsBadSizeProperty(t *testing.T) {
	valid := map[int]bool{1: true, 2: true, 4: true, 8: true}
	mustPanic := func(fn func()) (panicked bool) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		fn()
		return false
	}
	f := func(addr uint64, v uint64, size int16) bool {
		sz := int(size)
		m := NewMemory()
		wantPanic := !valid[sz]
		gotR := mustPanic(func() { m.Read(addr%(1<<30), sz) })
		gotW := mustPanic(func() { m.Write(addr%(1<<30), sz, v) })
		return gotR == wantPanic && gotW == wantPanic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	for _, sz := range []int{0, -1, 3, 5, 7, 9, 16, 1 << 20} {
		if !mustPanic(func() { NewMemory().Read(0, sz) }) {
			t.Errorf("Read with size %d did not panic", sz)
		}
	}
}

// TestMemoryDisjointWritesProperty: writes to disjoint ranges do not
// interfere.
func TestMemoryDisjointWritesProperty(t *testing.T) {
	f := func(a, b uint64, va, vb uint64) bool {
		a %= 1 << 20
		b %= 1 << 20
		if a/8 == b/8 {
			return true // overlapping, skip
		}
		a, b = a&^7, b&^7
		m := NewMemory()
		m.Write(a, 8, va)
		m.Write(b, 8, vb)
		return m.Read(a, 8) == va && m.Read(b, 8) == vb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestInstructionCountMatchesIfetches: the VM's retired-instruction
// counter always equals the number of ifetch events emitted.
func TestInstructionCountMatchesIfetches(t *testing.T) {
	f := func(n uint16) bool {
		iters := int64(n%500) + 1
		src := fmt.Sprintf(`
	main:	li r1, %d
	loop:	addi r1, r1, -1
		bne r1, zero, loop
		halt
	`, iters)
		var counts trace.Counts
		p := asm.MustAssemble(src)
		c := New(p, &counts)
		if err := c.Run(0); err != nil {
			return false
		}
		return c.Instructions == counts.Ifetches &&
			c.Instructions == 1+2*iters+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBranchSemantics: every branch opcode agrees with the Go
// comparison it models.
func TestBranchSemantics(t *testing.T) {
	cases := map[string]func(a, b uint64) bool{
		"beq":  func(a, b uint64) bool { return a == b },
		"bne":  func(a, b uint64) bool { return a != b },
		"blt":  func(a, b uint64) bool { return int64(a) < int64(b) },
		"bge":  func(a, b uint64) bool { return int64(a) >= int64(b) },
		"bltu": func(a, b uint64) bool { return a < b },
		"bgeu": func(a, b uint64) bool { return a >= b },
	}
	for op, want := range cases {
		op, want := op, want
		t.Run(op, func(t *testing.T) {
			f := func(a, b uint64) bool {
				src := fmt.Sprintf(`
	main:	%s r1, r2, taken
		li r3, 0
		halt
	taken:	li r3, 1
		halt
	`, op)
				p := asm.MustAssemble(src)
				c := New(p, trace.Discard)
				c.Regs[1] = a
				c.Regs[2] = b
				if err := c.Run(0); err != nil {
					return false
				}
				return (c.Regs[3] == 1) == want(a, b)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestProgramsAreDeterministic: the same program and budget produce
// identical final machine state.
func TestProgramsAreDeterministic(t *testing.T) {
	src := `
	main:	li r3, 12345
	loop:	muli r4, r3, 1103515245
		addi r4, r4, 12345
		andi r3, r4, 0x7fffffff
		andi r9, r3, 0xfff8
		addi r9, r9, 0x100000
		sd r3, 0(r9)
		ld r5, 0(r9)
		add r7, r7, r5
		j loop
	`
	run := func() [isa.NumRegs]uint64 {
		c := New(asm.MustAssemble(src), trace.Discard)
		_ = c.Run(50_000)
		return c.Regs
	}
	if run() != run() {
		t.Error("identical runs diverged")
	}
}
