package iram

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestValidate(t *testing.T) {
	if err := Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleErrors(t *testing.T) {
	if _, err := Assemble("bogus r1"); err == nil {
		t.Error("Assemble accepted invalid source")
	}
}

func TestRunSimpleProgram(t *testing.T) {
	p := MustAssemble(`
	main:	li r10, 0x100000
		li r2, 1024
	loop:	ld r4, 0(r10)
		add r5, r5, r4
		addi r10, r10, 8
		addi r2, r2, -1
		bne r2, zero, loop
		halt
	`)
	st, err := Run(p, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != 3+1024*5 { // 2 li + loop + halt
		t.Errorf("instructions = %d", st.Instructions)
	}
	if st.Loads != 1024 {
		t.Errorf("loads = %d", st.Loads)
	}
	// Sequential loads: the 512 B lines give far fewer misses than the
	// conventional 32 B lines.
	if st.Proposed.LoadMissPct >= st.Conv16KB.LoadMissPct {
		t.Errorf("proposed %.2f%% should beat conventional %.2f%% on a sequential sweep",
			st.Proposed.LoadMissPct, st.Conv16KB.LoadMissPct)
	}
	if st.TotalCPI < 1 {
		t.Errorf("total CPI = %v", st.TotalCPI)
	}
}

// TestRunRejectsBaseCPIBelowOne: a functional-unit CPI below the one
// issue cycle is an input error.
func TestRunRejectsBaseCPIBelowOne(t *testing.T) {
	p := MustAssemble("main:\thalt\n")
	if _, err := Run(p, RunConfig{BaseCPI: 0.5}); err == nil {
		t.Error("Run accepted BaseCPI 0.5")
	}
	if _, err := Run(p, RunConfig{BaseCPI: 1.5}); err != nil {
		t.Errorf("Run rejected BaseCPI 1.5: %v", err)
	}
}

func TestWorkloadsList(t *testing.T) {
	ws := Workloads()
	if len(ws) != 22 {
		t.Errorf("%d workloads, want 22 (SPEC + synopsys + real kernels)", len(ws))
	}
}

func TestRunWorkload(t *testing.T) {
	st, err := RunWorkload("132.ijpeg", 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions < 50_000 {
		t.Errorf("instructions = %d", st.Instructions)
	}
	if st.BaseCPI != 1.00 {
		t.Errorf("ijpeg base CPI = %v, want the paper's 1.00", st.BaseCPI)
	}
	if _, err := RunWorkload("nonesuch", 0); err == nil {
		t.Error("RunWorkload accepted an unknown name")
	}
}

func TestSPLASH(t *testing.T) {
	names := SPLASHBenchmarks()
	if len(names) != 5 {
		t.Fatalf("%d SPLASH benchmarks", len(names))
	}
	r, err := RunSPLASH("LU", 2, IntegratedVictim, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 || r.Accesses == 0 {
		t.Error("empty SPLASH run")
	}
	if _, err := RunSPLASH("nonesuch", 2, IntegratedVictim, true); err == nil {
		t.Error("RunSPLASH accepted an unknown name")
	}
}

func TestRunParallel(t *testing.T) {
	r := RunParallel(2, ReferenceCCNUMA, func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Read(uint64(i * 32))
		}
		p.Barrier()
	})
	if r.Accesses != 20 {
		t.Errorf("accesses = %d, want 20", r.Accesses)
	}
}

// TestRunParallelAddressBound: a read at 1<<44, past the simulated
// 40-bit address space, panics in the caller's goroutine, and the run
// allocates under 1 MB on the way.
func TestRunParallelAddressBound(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		RunParallel(2, IntegratedVictim, func(p *Proc) { p.Read(1 << 44) })
		return
	}()
	runtime.ReadMemStats(&after)
	if !strings.Contains(msg, "MaxAddr") {
		t.Errorf("panic %q does not name MaxAddr", msg)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("allocated %d B before panicking, want under 1 MB", got)
	}
}

func TestMPConfigStrings(t *testing.T) {
	for _, c := range []MPConfig{ReferenceCCNUMA, IntegratedPlain, IntegratedVictim} {
		if !strings.Contains(c.String(), " ") {
			t.Errorf("config %d: poor description %q", int(c), c.String())
		}
	}
}

func TestRawRun(t *testing.T) {
	p := MustAssemble("main: li r1, 1\nhalt")
	n := 0
	_, err := RawRun(p, trace.SinkFunc(func(trace.Ref) { n++ }), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("saw %d refs, want 2 ifetches", n)
	}
}

func TestSelfTest(t *testing.T) {
	r, err := SelfTest(8 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed || r.Phase != "complete" {
		t.Errorf("self test: %+v", r)
	}
}

func TestSimpleCOMAConfig(t *testing.T) {
	r, err := RunSPLASH("OCEAN", 2, SimpleCOMA, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 {
		t.Error("empty S-COMA run")
	}
}
