package isa

import (
	"bytes"
	"testing"
)

func TestOpClassification(t *testing.T) {
	cases := []struct {
		op              Op
		load, store, br bool
		memSize         int
	}{
		{OpAdd, false, false, false, 0},
		{OpLb, true, false, false, 1},
		{OpLh, true, false, false, 2},
		{OpLw, true, false, false, 4},
		{OpLd, true, false, false, 8},
		{OpSb, false, true, false, 1},
		{OpSd, false, true, false, 8},
		{OpBeq, false, false, true, 0},
		{OpBgeu, false, false, true, 0},
		{OpJal, false, false, false, 0},
		{OpJalr, false, false, false, 0},
		{OpFAdd, false, false, false, 0},
		{OpFSlt, false, false, false, 0},
		{OpHalt, false, false, false, 0},
	}
	for _, c := range cases {
		if c.op.IsLoad() != c.load || c.op.IsStore() != c.store ||
			c.op.IsBranch() != c.br || c.op.MemSize() != c.memSize {
			t.Errorf("%v classification wrong", c.op)
		}
	}
}

func TestOpStringsComplete(t *testing.T) {
	for op := OpInvalid; op < numOps; op++ {
		if op.String() == "" {
			t.Errorf("opcode %d has empty name", op)
		}
	}
	if Op(200).String() == "" {
		t.Error("out-of-range opcode must still format")
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		ins  Instr
		want string
	}{
		{Instr{Op: OpNop}, "nop"},
		{Instr{Op: OpLw, Rd: 1, Rs1: 2, Imm: 8}, "lw r1, 8(r2)"},
		{Instr{Op: OpSw, Rs2: 3, Rs1: 30, Imm: -4}, "sw r3, -4(r30)"},
		{Instr{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Instr{Op: OpAddi, Rd: 1, Rs1: 2, Imm: 5}, "addi r1, r2, 5"},
		{Instr{Op: OpJal, Rd: 31, Imm: 0x1000}, "jal r31, 0x1000"},
	}
	for _, c := range cases {
		if got := c.ins.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestProgramInstrAt(t *testing.T) {
	p := &Program{
		CodeBase: 0x1000,
		Code:     []Instr{{Op: OpNop}, {Op: OpHalt}},
	}
	if ins, ok := p.InstrAt(0x1004); !ok || ins.Op != OpHalt {
		t.Error("InstrAt(0x1004) wrong")
	}
	if _, ok := p.InstrAt(0x1008); ok {
		t.Error("InstrAt past end should fail")
	}
	if _, ok := p.InstrAt(0xffc); ok {
		t.Error("InstrAt before base should fail")
	}
	if _, ok := p.InstrAt(0x1002); ok {
		t.Error("unaligned InstrAt should fail")
	}
}

func sampleProgram() *Program {
	return &Program{
		Entry:    0x1004,
		CodeBase: 0x1000,
		Code: []Instr{
			{Op: OpNop},
			{Op: OpAddi, Rd: 1, Rs1: 0, Imm: -42},
			{Op: OpLd, Rd: 2, Rs1: 1, Imm: 0x1000000},
			{Op: OpHalt},
		},
		Data: []Segment{
			{Base: 0x100000, Bytes: []byte{1, 2, 3, 4, 5}},
			{Base: 0x200000, Bytes: []byte{0xff}},
		},
		Symbols: map[string]uint64{"main": 0x1004, "loop": 0x1008},
	}
}

func TestImageRoundTrip(t *testing.T) {
	p := sampleProgram()
	var buf bytes.Buffer
	if err := WriteImage(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entry != p.Entry || got.CodeBase != p.CodeBase {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Code) != len(p.Code) {
		t.Fatalf("code length %d != %d", len(got.Code), len(p.Code))
	}
	for i := range p.Code {
		if got.Code[i] != p.Code[i] {
			t.Errorf("instr %d: %+v != %+v", i, got.Code[i], p.Code[i])
		}
	}
	if len(got.Data) != 2 || got.Data[0].Base != 0x100000 ||
		!bytes.Equal(got.Data[0].Bytes, p.Data[0].Bytes) {
		t.Errorf("data mismatch: %+v", got.Data)
	}
	if got.Symbols["loop"] != 0x1008 {
		t.Errorf("symbols: %+v", got.Symbols)
	}
}

func TestImageDeterministic(t *testing.T) {
	p := sampleProgram()
	var a, b bytes.Buffer
	if err := WriteImage(&a, p); err != nil {
		t.Fatal(err)
	}
	if err := WriteImage(&b, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("image encoding not deterministic")
	}
}

func TestImageRejectsCorruption(t *testing.T) {
	p := sampleProgram()
	var buf bytes.Buffer
	if err := WriteImage(&buf, p); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	if _, err := ReadImage(bytes.NewReader([]byte("garbagegarbage"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadImage(bytes.NewReader(full[:len(full)-4])); err == nil {
		t.Error("truncated image accepted")
	}
	// Corrupt an opcode byte to an invalid value.
	bad := append([]byte(nil), full...)
	// Find the first instruction's opcode: after magic(8)+3 varints
	// (entry/codeBase/nCode, each small here = 2,2,1 bytes... locate by
	// decoding offsets is brittle; instead corrupt every byte position
	// and require that no corruption panics (errors are fine).
	for i := 8; i < len(bad); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ReadImage panicked on corruption at byte %d: %v", i, r)
				}
			}()
			_, _ = ReadImage(bytes.NewReader(mut))
		}()
	}
	_ = bad
}
