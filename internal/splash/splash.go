// Package splash implements the five SPLASH benchmarks of Table 5 as
// execution-driven parallel workloads for internal/mpsim: LU, MP3D,
// OCEAN, WATER, and PTHOR. The computations are real (the Go code
// computes actual decompositions, particle moves, grid relaxations,
// force sums, and gate evaluations); every shared-data reference is
// issued to the architecture model at coherence-block granularity, and
// data is placed on the node that owns the corresponding partition,
// as the paper's CacheMire-based simulations arrange.
//
// SPLASH itself is a Stanford source distribution we cannot ship;
// these kernels follow the published algorithm structure and the data
// set sizes of Table 5 (Size.Full), with a reduced Size.Quick for
// tests and benchmarks. Only data references are simulated, matching
// the paper: "instruction fetches are assumed to always hit in the
// instruction caches".
package splash

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/mpsim"
)

// Size selects the data-set scale.
type Size struct {
	LUMatrix                   int // n for the n×n LU decomposition
	OceanN, OceanIters         int // grid edge; relaxation sweeps
	MP3DParticles, MP3DSteps   int
	WaterMolecules, WaterSteps int
	PthorGates, PthorSteps     int
}

// Full is the paper's Table 5 data set (OceanIters stands in for the
// 1e-7 convergence tolerance: per-sweep cost is what the architecture
// comparison measures, so a fixed sweep count preserves the shape).
func Full() Size {
	return Size{
		LUMatrix: 200,
		OceanN:   128, OceanIters: 30,
		MP3DParticles: 10000, MP3DSteps: 10,
		WaterMolecules: 288, WaterSteps: 4,
		PthorGates: 2048, PthorSteps: 500,
	}
}

// Quick is a scaled-down data set for tests and Go benchmarks.
func Quick() Size {
	return Size{
		LUMatrix: 64,
		OceanN:   32, OceanIters: 8,
		MP3DParticles: 1024, MP3DSteps: 4,
		WaterMolecules: 64, WaterSteps: 2,
		PthorGates: 256, PthorSteps: 60,
	}
}

// Benchmark is one SPLASH application.
type Benchmark struct {
	Name string
	// kernel executes the benchmark on n processors over the machine.
	kernel func(n int, m *coherence.Machine, sz Size) mpsim.Result
}

// Run executes the benchmark on n processors over a fresh machine of
// the given configuration with the paper's 32 B coherence unit.
func (b Benchmark) Run(n int, cfg coherence.Config, sz Size) mpsim.Result {
	return b.kernel(n, coherence.NewConfiguredMachine(cfg, n), sz)
}

// RunMachine executes the benchmark over a caller-supplied machine
// (custom latencies, INC organisation, ...).
func (b Benchmark) RunMachine(n int, m *coherence.Machine, sz Size) mpsim.Result {
	return b.kernel(n, m, sz)
}

// All returns the five benchmarks in the paper's figure order
// (Figures 13–17), each commented with its Table 5 description and
// data set.
func All() []Benchmark {
	return []Benchmark{
		{Name: "LU", kernel: runLU},       // LU decomposition; 200x200 matrix
		{Name: "MP3D", kernel: runMP3D},   // 3-D particle-based wind-tunnel simulator; 10 K particles, 10 steps
		{Name: "OCEAN", kernel: runOcean}, // Ocean basin simulator; 128x128 grids
		{Name: "WATER", kernel: runWater}, // N-body water molecular dynamics simulation; 288 molecules, 4 time steps
		{Name: "PTHOR", kernel: runPthor}, // Distributed-time digital circuit simulator; RISC-like circuit
	}
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("splash: unknown benchmark %q", name)
}

// runAhead is how a kernel opts in to mpsim.RunAhead: LU, OCEAN and
// WATER call it, because what they post between two synchronisations
// follows from loop indices alone, never from data another processor
// writes. MP3D (its collision test reads cell counters every processor
// bumps) and PTHOR (it evaluates gates from values other processors
// publish in the same step) call mpsim.Run and post one operation at a
// time. Tests replace it to run the opted-in kernels both ways.
var runAhead = mpsim.RunAhead

// array maps indices of a shared Go-side slice to simulated addresses.
type array struct {
	base uint64
	elem uint64
}

func (a array) at(i int) uint64 { return a.base + uint64(i)*a.elem }

// readElems issues block-granular reads covering count elements
// starting at index i (one simulated access per 32 B coherence block).
func (a array) readElems(p *mpsim.Proc, i, count int) {
	start := a.at(i) / coherence.BlockSize
	end := (a.at(i+count-1) + a.elem - 1) / coherence.BlockSize
	for b := start; b <= end; b++ {
		p.Read(b * coherence.BlockSize)
	}
}

// writeElems issues block-granular writes covering count elements.
func (a array) writeElems(p *mpsim.Proc, i, count int) {
	start := a.at(i) / coherence.BlockSize
	end := (a.at(i+count-1) + a.elem - 1) / coherence.BlockSize
	for b := start; b <= end; b++ {
		p.Write(b * coherence.BlockSize)
	}
}

// Shared-address-space layout: each benchmark's arrays sit in disjoint
// gigabyte-aligned regions so placements never collide.
const (
	luBase    = 0x1_0000_0000
	oceanBase = 0x2_0000_0000
	mp3dBase  = 0x3_0000_0000
	waterBase = 0x4_0000_0000
	pthorBase = 0x5_0000_0000
	auxOffset = 0x0_4000_0000 // secondary arrays within a region
)
