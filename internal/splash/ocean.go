package splash

import (
	"math"

	"repro/internal/coherence"
	"repro/internal/mpsim"
)

// runOcean performs red-black Gauss-Seidel relaxation on an n×n grid,
// the communication core of the SPLASH Ocean basin simulator. Rows are
// partitioned contiguously among processors and placed on the owning
// node; each sweep reads the four neighbours of every updated point,
// so partition-boundary rows are the shared data. A residual reduction
// under a lock models the convergence test of the original code.
func runOcean(nproc int, m *coherence.Machine, sz Size) mpsim.Result {
	n := sz.OceanN
	iters := sz.OceanIters

	grid := make([]float64, n*n)
	for i := range grid {
		grid[i] = float64(i%17) * 0.25
	}
	g := array{base: oceanBase, elem: 8}
	residual := array{base: oceanBase + auxOffset, elem: 8}
	resVal := 0.0

	rowBytes := uint64(n * 8)
	rowsPerProc := (n + nproc - 1) / nproc
	for pid := 0; pid < nproc; pid++ {
		lo := pid * rowsPerProc
		if lo >= n {
			break
		}
		m.Place(oceanBase+uint64(lo)*rowBytes, uint64(rowsPerProc)*rowBytes, pid)
	}
	m.Place(residual.at(0), 64, 0)

	body := func(p *mpsim.Proc) {
		lo := p.ID * rowsPerProc
		hi := min(lo+rowsPerProc, n)
		if lo == 0 {
			lo = 1 // boundary rows fixed
		}
		if hi == n {
			hi = n - 1
		}
		for it := 0; it < iters; it++ {
			local := 0.0
			for colour := 0; colour < 2; colour++ {
				for i := lo; i < hi; i++ {
					for j0 := 1; j0 < n-1; j0 += 4 {
						cnt := min(4, n-1-j0)
						// Block-granular stencil reads: own row plus
						// the rows above and below.
						g.readElems(p, i*n+j0, cnt)
						g.readElems(p, (i-1)*n+j0, cnt)
						g.readElems(p, (i+1)*n+j0, cnt)
						for j := j0; j < j0+cnt; j++ {
							if (i+j)%2 != colour {
								continue
							}
							old := grid[i*n+j]
							nv := 0.25 * (grid[(i-1)*n+j] + grid[(i+1)*n+j] +
								grid[i*n+j-1] + grid[i*n+j+1])
							grid[i*n+j] = nv
							local += math.Abs(nv - old)
						}
						g.writeElems(p, i*n+j0, cnt)
						p.Compute(uint64(3 * cnt))
					}
				}
				p.Barrier()
			}
			// Convergence reduction under a lock.
			p.Lock(0)
			residual.readElems(p, 0, 1)
			resVal += local
			residual.writeElems(p, 0, 1)
			p.Unlock(0)
			p.Barrier()
		}
	}
	res := runAhead(nproc, m, m.Lat.SyncCosts(), body)
	_ = resVal
	return res
}
