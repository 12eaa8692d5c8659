package dis

import (
	"bytes"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// FuzzRoundTrip feeds arbitrary bytes to isa.ReadImage and holds every
// program it accepts to the disassembler's contract: Disassemble either
// refuses it or renders source that RoundTrip reassembles to the same
// image byte for byte. A panic, or a program that disassembles but
// comes back changed, fails.
func FuzzRoundTrip(f *testing.F) {
	for _, name := range []string{"129.compress", "101.tomcatv"} {
		w, err := workload.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := isa.WriteImage(&buf, w.Build()); err != nil {
			f.Fatal(err)
		}
		img := buf.Bytes()
		f.Add(img)
		for _, n := range []int{len(img) - 1, len(img) / 2, 12, 8} {
			f.Add(img[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := isa.ReadImage(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := Disassemble(p); err != nil {
			return
		}
		if err := RoundTrip(p); err != nil {
			t.Fatalf("disassembled, but the round trip failed: %v", err)
		}
	})
}
