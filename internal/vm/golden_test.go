package vm_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// streamBudget is the -quick instruction budget per workload.
const streamBudget = 300_000

// hashSink folds each reference's kind, size and address into a hash.
type hashSink struct {
	h    hash.Hash
	buf  [10]byte
	refs int64
}

func (s *hashSink) Ref(r trace.Ref) {
	s.buf[0], s.buf[1] = byte(r.Kind), r.Size
	binary.LittleEndian.PutUint64(s.buf[2:], r.Addr)
	s.h.Write(s.buf[:])
	s.refs++
}

func (s *hashSink) Refs(rs []trace.Ref) {
	for _, r := range rs {
		s.Ref(r)
	}
}

// TestWorkloadStreamsGolden pins what the VM does with every registered
// workload at the -quick budget against testdata/streams.txt: one line
// per workload with its reference count, its instruction count and the
// SHA-256 of its reference stream (each reference's kind, size and
// address) followed by its final state (Instructions, Branches,
// TakenBranches, FloatOps, PC, Halted and the 32 registers). The output
// goldens pin only aggregate miss rates; this proves the stream and the
// architectural state did not move. To bless an intentional change:
// UPDATE_GOLDEN=1 go test -run TestWorkloadStreamsGolden ./internal/vm
func TestWorkloadStreamsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, w := range workload.All() {
		sink := &hashSink{h: sha256.New()}
		cpu, err := vm.RunProgram(w.Build(), sink, streamBudget)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var b []byte
		for _, v := range []int64{cpu.Instructions, cpu.Branches, cpu.TakenBranches, cpu.FloatOps} {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		b = binary.LittleEndian.AppendUint64(b, cpu.PC)
		if cpu.Halted() {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		for _, r := range cpu.Regs {
			b = binary.LittleEndian.AppendUint64(b, r)
		}
		sink.h.Write(b)
		fmt.Fprintf(&got, "%s refs=%d instructions=%d sha256=%x\n", w.Name, sink.refs, cpu.Instructions, sink.h.Sum(nil))
	}

	path := filepath.Join("testdata", "streams.txt")
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
