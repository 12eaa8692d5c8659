package dis

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// TestWorkloadsGolden pins what the assembler, the disassembler and
// `iramasm list` make of every registered workload against
// testdata/workloads.txt: one line per workload with the SHA-256 of its
// image (isa.WriteImage of Build), of its Disassemble text, and of its
// instructions as `iramasm list` renders them (Instr.String, one per
// line). The round-trip tests prove dis and asm are inverse; this test
// proves neither changed its output. To bless an intentional change:
// UPDATE_GOLDEN=1 go test -run TestWorkloadsGolden ./internal/dis
func TestWorkloadsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, w := range workload.All() {
		p := w.Build()
		var img bytes.Buffer
		if err := isa.WriteImage(&img, p); err != nil {
			t.Fatal(err)
		}
		src, err := Disassemble(p)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var list strings.Builder
		for _, ins := range p.Code {
			list.WriteString(ins.String())
			list.WriteByte('\n')
		}
		fmt.Fprintf(&got, "%s image=%x dis=%x list=%x\n", w.Name,
			sha256.Sum256(img.Bytes()), sha256.Sum256([]byte(src)), sha256.Sum256([]byte(list.String())))
	}

	path := filepath.Join("testdata", "workloads.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d workloads, %s has %d:\n%s", len(gotLines)-1, path, len(wantLines)-1, got.String())
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("drifted from %s:\n-%s\n+%s", path, wantLines[i], gotLines[i])
		}
	}
}
