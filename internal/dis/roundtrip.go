package dis

import (
	"bytes"
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
)

// RoundTrip proves the disassembly of p is exact: it disassembles,
// reassembles, and compares the serialized images byte for byte. A nil
// return means `iramasm dis` then `iramasm build` reproduces the input
// image exactly.
func RoundTrip(p *isa.Program) error {
	var orig bytes.Buffer
	if err := isa.WriteImage(&orig, p); err != nil {
		return fmt.Errorf("dis: serializing input: %w", err)
	}
	src, err := Disassemble(p)
	if err != nil {
		return err
	}
	p2, err := asm.Assemble(src)
	if err != nil {
		return fmt.Errorf("dis: reassembly failed: %w", err)
	}
	var re bytes.Buffer
	if err := isa.WriteImage(&re, p2); err != nil {
		return fmt.Errorf("dis: serializing reassembly: %w", err)
	}
	if !bytes.Equal(orig.Bytes(), re.Bytes()) {
		return fmt.Errorf("dis: round trip diverged: %s", describeDiff(p, p2))
	}
	return nil
}

// describeDiff pinpoints the first structural difference between the
// original and reassembled programs for the round-trip error message.
func describeDiff(a, b *isa.Program) string {
	switch {
	case a.Entry != b.Entry:
		return fmt.Sprintf("entry 0x%x != 0x%x", a.Entry, b.Entry)
	case a.CodeBase != b.CodeBase:
		return fmt.Sprintf("code base 0x%x != 0x%x", a.CodeBase, b.CodeBase)
	case len(a.Code) != len(b.Code):
		return fmt.Sprintf("%d instructions != %d", len(a.Code), len(b.Code))
	case len(a.Data) != len(b.Data):
		return fmt.Sprintf("%d data segments != %d", len(a.Data), len(b.Data))
	case len(a.Symbols) != len(b.Symbols):
		return fmt.Sprintf("%d symbols != %d", len(a.Symbols), len(b.Symbols))
	}
	for i := range a.Code {
		if a.Code[i] != b.Code[i] {
			return fmt.Sprintf("instruction %d: %v != %v", i, a.Code[i], b.Code[i])
		}
	}
	for i := range a.Data {
		if a.Data[i].Base != b.Data[i].Base {
			return fmt.Sprintf("segment %d base 0x%x != 0x%x", i, a.Data[i].Base, b.Data[i].Base)
		}
		if !bytes.Equal(a.Data[i].Bytes, b.Data[i].Bytes) {
			return fmt.Sprintf("segment %d at 0x%x differs (%d vs %d bytes)",
				i, a.Data[i].Base, len(a.Data[i].Bytes), len(b.Data[i].Bytes))
		}
	}
	for name, addr := range a.Symbols {
		if got, ok := b.Symbols[name]; !ok || got != addr {
			return fmt.Sprintf("symbol %q: 0x%x vs 0x%x (present=%v)", name, addr, got, ok)
		}
	}
	return "images differ but programs compare equal (serialization bug?)"
}
