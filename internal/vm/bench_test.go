package vm_test

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// BenchmarkRunProgram measures the VM alone, in retired instructions
// per second: each iteration runs 126.gcc's program for 300k
// instructions, the budget of the workload and trace-codec benchmark
// stream, from a fresh CPU into a counting sink. The program is built
// once, before the timer, so assembly is not measured.
func BenchmarkRunProgram(b *testing.B) {
	const budget = 300_000
	w, err := workload.ByName("126.gcc")
	if err != nil {
		b.Fatal(err)
	}
	prog := w.Build()
	var counts trace.Counts
	var instr int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu, err := vm.RunProgram(prog, &counts, budget)
		if err != nil {
			b.Fatal(err)
		}
		instr += cpu.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
