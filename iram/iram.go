// Package iram is the public API of this reproduction of Saulsbury,
// Pong & Nowatzyk, "Missing the Memory Wall: The Case for
// Processor/Memory Integration" (ISCA 1996).
//
// It exposes the building blocks a downstream user needs:
//
//   - Assemble and run programs on the simulated processor while
//     measuring the proposed column-buffer caches against conventional
//     organisations (Section 5 methodology);
//
//   - estimate CPI for the integrated device or the conventional
//     reference system using the paper's GSPN models (Figures 9–12);
//
//   - run the bundled SPEC'95-like workloads and the SPLASH-like
//     multiprocessor benchmarks on the integrated CC-NUMA and the
//     reference CC-NUMA (Section 6);
//
//   - regenerate every table and figure of the paper's evaluation
//     (see cmd/iramsim and EXPERIMENTS.md).
//
// The heavy machinery lives in internal packages; this package keeps a
// small, stable surface.
package iram

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/isa"
	"repro/internal/mpsim"
	"repro/internal/selftest"
	"repro/internal/splash"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Program is an assembled program for the simulated processor.
type Program = isa.Program

// Assemble translates assembly source (see internal/asm for the
// syntax) into a Program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// MustAssemble is Assemble that panics on error.
func MustAssemble(src string) *Program { return asm.MustAssemble(src) }

// CacheRates summarises one cache organisation's miss behaviour.
type CacheRates struct {
	IMissPct     float64 // instruction misses / instruction fetches
	LoadMissPct  float64
	StoreMissPct float64
}

// RunStats is the result of executing a program on the integrated
// processing element model.
type RunStats struct {
	Instructions int64
	Loads        int64
	Stores       int64

	// Proposed is the paper's organisation: 8 KB/512 B I-cache and
	// 16 KB 2-way/512 B D-cache with the victim cache.
	Proposed CacheRates
	// ProposedNoVictim is the same without the victim cache.
	ProposedNoVictim CacheRates
	// Conv16KB is a conventional pair of 16 KB direct-mapped caches
	// with 32 B lines, for comparison.
	Conv16KB CacheRates

	// MemCPI and TotalCPI are GSPN estimates for the integrated device
	// at the paper's 200 MHz / 30 ns operating point. BaseCPI is the
	// assumed functional-unit component (1.0 unless set via RunConfig).
	BaseCPI  float64
	MemCPI   float64
	TotalCPI float64
}

// RunConfig adjusts Run.
type RunConfig struct {
	// Budget limits executed instructions (0 = run to halt, up to a
	// 100M safety cap).
	Budget int64
	// BaseCPI is the functional-unit CPI component (default 1.0;
	// below 1 is an error).
	BaseCPI float64
	// GSPNInstructions sets the Monte-Carlo length (default 50000).
	GSPNInstructions int64
	// Seed drives the Monte-Carlo runs (default 1).
	Seed int64
}

// Run executes a program against the full uniprocessor methodology:
// trace-driven cache simulation plus the GSPN CPI model.
func Run(p *Program, cfg RunConfig) (*RunStats, error) {
	if cfg.Budget <= 0 {
		cfg.Budget = 100_000_000
	}
	if cfg.BaseCPI == 0 {
		cfg.BaseCPI = 1
	}
	if cfg.BaseCPI < 1 {
		return nil, fmt.Errorf("iram: base CPI %g below 1", cfg.BaseCPI)
	}
	if cfg.GSPNInstructions <= 0 {
		cfg.GSPNInstructions = 50_000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	cs := workload.NewCacheSetFor(core.Proposed(), core.Reference())
	cpu, err := vm.RunProgram(p, cs, cfg.Budget)
	if err != nil {
		return nil, err
	}
	counts := cs.RefCounts()
	propI := cs.PropIStats()
	propD := cs.PropDStats()
	vicD := cs.PropDVictimStats()
	convI16 := cs.ConvIStats(16)
	convD16 := cs.ConvDMStats(16)
	st := &RunStats{
		Instructions: cpu.Instructions,
		Loads:        counts.Loads,
		Stores:       counts.Stores,
		BaseCPI:      cfg.BaseCPI,
		Proposed: CacheRates{
			IMissPct:     propI.Ifetch.Percent(),
			LoadMissPct:  vicD.Load.Percent(),
			StoreMissPct: vicD.Store.Percent(),
		},
		ProposedNoVictim: CacheRates{
			IMissPct:     propI.Ifetch.Percent(),
			LoadMissPct:  propD.Load.Percent(),
			StoreMissPct: propD.Store.Percent(),
		},
		Conv16KB: CacheRates{
			IMissPct:     convI16.Ifetch.Percent(),
			LoadMissPct:  convD16.Load.Percent(),
			StoreMissPct: convD16.Store.Percent(),
		},
	}
	m := workload.Measurement{
		Workload: workload.Workload{Name: "user-program", BaseCPI: cfg.BaseCPI},
		Caches:   cs,
		Instr:    cpu.Instructions,
	}
	r, err := cpumodel.Evaluate(cpumodel.ConfigFor(core.Proposed()), m.Rates(true, true), cfg.GSPNInstructions, cfg.Seed)
	if err != nil {
		return nil, err
	}
	st.MemCPI = r.MemCPI
	st.TotalCPI = r.TotalCPI
	return st, nil
}

// Workloads lists the bundled benchmark stand-ins (Table 2).
func Workloads() []string { return workload.Names() }

// RunWorkload executes one bundled workload under the full
// methodology. budget <= 0 uses the workload's default (~2M
// instructions).
func RunWorkload(name string, budget int64) (*RunStats, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	cfg := RunConfig{Budget: budget, BaseCPI: w.BaseCPI}
	if cfg.Budget <= 0 {
		cfg.Budget = w.Budget
	}
	return Run(w.Build(), cfg)
}

// MPConfig selects the multiprocessor system architecture.
type MPConfig int

// The three systems of Figures 13–17, plus the Simple-COMA mode the
// paper's protocol engines also support (Section 4.2).
const (
	ReferenceCCNUMA  = MPConfig(coherence.ReferenceCCNUMA)
	IntegratedPlain  = MPConfig(coherence.IntegratedPlain)
	IntegratedVictim = MPConfig(coherence.IntegratedVictim)
	SimpleCOMA       = MPConfig(coherence.SimpleCOMA)
)

func (c MPConfig) String() string { return coherence.Config(c).String() }

// MPResult is a multiprocessor benchmark outcome.
type MPResult struct {
	Benchmark string
	Procs     int
	Cycles    uint64
	Accesses  int64
}

// SPLASHBenchmarks lists the bundled parallel benchmarks (Table 5).
func SPLASHBenchmarks() []string {
	var names []string
	for _, b := range splash.All() {
		names = append(names, b.Name)
	}
	return names
}

// RunSPLASH executes one SPLASH benchmark on procs processors under
// the chosen architecture. quick selects the reduced data set.
func RunSPLASH(name string, procs int, cfg MPConfig, quick bool) (*MPResult, error) {
	b, err := splash.ByName(name)
	if err != nil {
		return nil, err
	}
	sz := splash.Full()
	if quick {
		sz = splash.Quick()
	}
	r := b.Run(procs, coherence.Config(cfg), sz)
	return &MPResult{Benchmark: name, Procs: procs, Cycles: r.Cycles, Accesses: r.Accesses}, nil
}

// RunParallel exposes the coherence machine + execution-driven
// simulator for custom parallel workloads: body runs once per simulated
// processor and issues references through the Proc handle. Addresses
// must lie below coherence.MaxAddr (1<<40); a reference at or above it
// panics.
func RunParallel(procs int, cfg MPConfig, body func(p *Proc)) *MPResult {
	m := coherence.NewConfiguredMachine(coherence.Config(cfg), procs)
	r := mpsim.Run(procs, m, m.Lat.SyncCosts(), func(p *mpsim.Proc) {
		body(&Proc{p})
	})
	return &MPResult{Benchmark: "custom", Procs: procs, Cycles: r.Cycles, Accesses: r.Accesses}
}

// Proc is a simulated processor handle for RunParallel bodies.
type Proc struct{ *mpsim.Proc }

// TraceSink adapts a user function into a sink usable with RawRun.
type TraceSink = trace.Sink

// RawRun executes a program delivering the raw reference stream to the
// given sink (advanced use: custom cache studies).
func RawRun(p *Program, sink TraceSink, budget int64) (instructions int64, err error) {
	cpu, err := vm.RunProgram(p, sink, budget)
	if err != nil {
		return 0, err
	}
	return cpu.Instructions, nil
}

// Validate sanity-checks the library against a few paper invariants;
// it is cheap and intended for smoke tests in downstream projects.
func Validate() error {
	p, err := Assemble("main: li r1, 1\nhalt")
	if err != nil {
		return fmt.Errorf("iram: assembler broken: %w", err)
	}
	st, err := Run(p, RunConfig{Budget: 10})
	if err != nil {
		return fmt.Errorf("iram: run broken: %w", err)
	}
	if st.Instructions != 2 {
		return fmt.Errorf("iram: executed %d instructions, want 2", st.Instructions)
	}
	return nil
}

// SelfTestResult reports a built-in self-test run (Section 3 of the
// paper: the integrated device is tested by downloading a self-test
// program, not by an external memory/CPU tester).
type SelfTestResult struct {
	Passed       bool
	Phase        string
	Instructions int64
}

// SelfTest runs the built-in self-test over a memory window of the
// given size (0 = 64 KiB).
func SelfTest(windowBytes uint64) (*SelfTestResult, error) {
	r, err := selftest.Run(selftest.Config{WindowBytes: windowBytes})
	if err != nil {
		return nil, err
	}
	return &SelfTestResult{Passed: r.Passed, Phase: r.Phase, Instructions: r.Instructions}, nil
}
