package splash

import (
	"repro/internal/coherence"
	"repro/internal/mpsim"
)

// waterMolBytes is the size of one molecule record. The paper calls
// this out explicitly: "each molecule is described by a data structure
// of approximately 600 Bytes, and is only partially accessed" — which
// is why the 512 B column buffers fare poorly on WATER until the
// victim cache absorbs the conflicts.
const waterMolBytes = 640 // 80 float64 fields, ~600 B as in the paper

// runWater computes the O(n²) intermolecular force phase and the O(n)
// position-update phase of the SPLASH WATER molecular dynamics code.
// Molecules are statically assigned to processors (as in SPLASH);
// every processor reads part of every other molecule's record each
// step, so true sharing dominates.
func runWater(nproc int, m *coherence.Machine, sz Size) mpsim.Result {
	nMol := sz.WaterMolecules
	steps := sz.WaterSteps

	type molecule struct {
		pos   [3]float64
		vel   [3]float64
		force [3]float64
	}
	mols := make([]molecule, nMol)
	for i := range mols {
		mols[i] = molecule{
			pos: [3]float64{float64(i) * 1.7, float64(i%13) * 0.9, float64(i%7) * 1.1},
			vel: [3]float64{0.01, -0.02, 0.005},
		}
	}
	molArr := array{base: waterBase, elem: waterMolBytes}

	perProc := (nMol + nproc - 1) / nproc
	for pid := 0; pid < nproc; pid++ {
		lo := pid * perProc
		if lo >= nMol {
			break
		}
		m.Place(molArr.at(lo), uint64(perProc)*waterMolBytes, pid)
	}

	body := func(p *mpsim.Proc) {
		lo := p.ID * perProc
		hi := min(lo+perProc, nMol)
		for s := 0; s < steps; s++ {
			// Force phase: each of my molecules interacts with every
			// other molecule. A water molecule has three atoms, so each
			// pair interaction evaluates nine atom-pair terms in two
			// passes (distances, then forces), re-reading the partner's
			// three position blocks repeatedly — the "partially
			// accessed ~600 B structure" access pattern the paper
			// describes. The repeated short-window re-reads are what
			// the victim cache's remote-data staging absorbs.
			for i := lo; i < hi; i++ {
				mi := &mols[i]
				for j := 0; j < nMol; j++ {
					if j == i {
						continue
					}
					var acc [3]float64
					for pass := 0; pass < 2; pass++ {
						for atom := 0; atom < 3; atom++ {
							p.Read(molArr.at(j) + uint64(atom)*coherence.BlockSize)
							d := mi.pos[atom] - mols[j].pos[atom]
							acc[atom] = d
							p.Compute(4)
						}
					}
					r2 := acc[0]*acc[0] + acc[1]*acc[1] + acc[2]*acc[2] + 1
					f := 1 / r2
					for d := 0; d < 3; d++ {
						mi.force[d] += f * acc[d]
					}
					p.Compute(8)
				}
				// Write my molecule's force fields (third 32 B block).
				p.Write(molArr.at(i) + 2*coherence.BlockSize)
			}
			p.Barrier()
			// Update phase: integrate my molecules (read-modify-write
			// the kinematic blocks).
			for i := lo; i < hi; i++ {
				mi := &mols[i]
				p.Read(molArr.at(i))
				p.Read(molArr.at(i) + coherence.BlockSize)
				for d := 0; d < 3; d++ {
					mi.vel[d] += 0.001 * mi.force[d]
					mi.pos[d] += mi.vel[d]
					mi.force[d] = 0
				}
				p.Compute(9)
				p.Write(molArr.at(i))
				p.Write(molArr.at(i) + coherence.BlockSize)
			}
			p.Barrier()
		}
	}
	return runAhead(nproc, m, m.Lat.SyncCosts(), body)
}
