package splash

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/mpsim"
)

// runLU performs a right-looking dense LU decomposition without
// pivoting on an n×n matrix stored column-major, with columns assigned
// block-cyclically to processors (block = one 4 KB page worth of
// columns) and placed on the owning node. Column k is normalised by
// its owner, then all processors update their own trailing columns
// using it — the classic SPLASH LU structure: the pivot column is the
// shared (read-mostly) data, trailing updates are local.
func runLU(nproc int, m *coherence.Machine, sz Size) mpsim.Result {
	n := sz.LUMatrix

	// Matrix data (column-major): a[j*n+i] = A[i][j].
	a := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			a[j*n+i] = 1.0 / float64(i+j+1)
			if i == j {
				a[j*n+i] += float64(n) // diagonally dominant
			}
		}
	}

	colBytes := uint64(n * 8)
	mat := array{base: luBase, elem: 8}

	// Columns per page and block-cyclic ownership matching placement.
	colsPerPage := int(coherence.PageSize / colBytes)
	if colsPerPage == 0 {
		colsPerPage = 1
	}
	owner := func(j int) int { return (j / colsPerPage) % nproc }
	for j := 0; j < n; j += colsPerPage {
		end := uint64(j+colsPerPage) * colBytes
		if end > uint64(n)*colBytes {
			end = uint64(n) * colBytes
		}
		m.Place(luBase+uint64(j)*colBytes, end-uint64(j)*colBytes, owner(j))
	}

	// Per-processor pivot scratch buffers, placed locally. SPLASH LU
	// copies the pivot column into local storage once per step and
	// reuses the copy for every owned trailing column — the remote
	// traffic is one fetch of the column per processor per step, and
	// the inner update streams purely local data (where the 512 B
	// column-buffer fills shine).
	scratch := array{base: luBase + auxOffset, elem: 8}
	scratchStride := (uint64(n)*8/coherence.PageSize + 1) * coherence.PageSize
	for pid := 0; pid < nproc; pid++ {
		m.Place(scratch.at(0)+uint64(pid)*scratchStride, scratchStride, pid)
	}

	body := func(p *mpsim.Proc) {
		myScratchBase := int(uint64(p.ID) * scratchStride / 8)
		for k := 0; k < n; k++ {
			if owner(k) == p.ID {
				// Normalise column k below the diagonal.
				mat.readElems(p, k*n+k, 1)
				piv := a[k*n+k]
				for i := k + 1; i < n; i += 4 {
					cnt := min(4, n-i)
					mat.readElems(p, k*n+i, cnt)
					for t := i; t < i+cnt; t++ {
						a[k*n+t] /= piv
					}
					mat.writeElems(p, k*n+i, cnt)
					p.Compute(uint64(2 * cnt))
				}
			}
			p.Barrier()
			// Copy the pivot column into local scratch (one pass).
			hasWork := false
			for j := k + 1; j < n; j++ {
				if owner(j) == p.ID {
					hasWork = true
					break
				}
			}
			if hasWork {
				for i := k + 1; i < n; i += 4 {
					cnt := min(4, n-i)
					mat.readElems(p, k*n+i, cnt) // shared pivot column
					scratch.writeElems(p, myScratchBase+i, cnt)
					p.Compute(uint64(cnt))
				}
			}
			// Update trailing columns this processor owns from the
			// local copy.
			for j := k + 1; j < n; j++ {
				if owner(j) != p.ID {
					continue
				}
				mat.readElems(p, j*n+k, 1) // A[k][j] (column-major)
				akj := a[j*n+k]
				for i := k + 1; i < n; i += 4 {
					cnt := min(4, n-i)
					scratch.readElems(p, myScratchBase+i, cnt) // local pivot copy
					mat.readElems(p, j*n+i, cnt)               // own column
					for t := i; t < i+cnt; t++ {
						a[j*n+t] -= a[k*n+t] * akj
					}
					mat.writeElems(p, j*n+i, cnt)
					p.Compute(uint64(2 * cnt))
				}
			}
			p.Barrier()
		}
	}
	// Keep a copy so the factorisation can be verified below.
	orig := make([]float64, len(a))
	copy(orig, a)

	res := runAhead(nproc, m, m.Lat.SyncCosts(), body)

	// Execution-driven means the computation is real: for small data
	// sets (tests), verify that L·U reconstructs the original matrix.
	// Skipped at full scale only to keep experiment runs fast.
	if n <= 64 {
		if err := verifyLU(orig, a, n); err != nil {
			panic("splash: LU kernel produced a wrong factorisation: " + err.Error())
		}
	}
	return res
}

// verifyLU checks max|L·U - A| by materialising L (unit lower) and U
// from the column-major factored matrix.
func verifyLU(orig, lu []float64, n int) error {
	var worst float64
	L := make([]float64, n*n)
	U := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			v := lu[j*n+i] // column-major element A'[i][j]
			switch {
			case i == j:
				L[i*n+j] = 1
				U[i*n+j] = v
			case i > j:
				L[i*n+j] = v
			default:
				U[i*n+j] = v
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for k := 0; k < n; k++ {
				sum += L[i*n+k] * U[k*n+j]
			}
			diff := sum - orig[j*n+i]
			if diff < 0 {
				diff = -diff
			}
			if diff > worst {
				worst = diff
			}
		}
	}
	if worst > 1e-6 {
		return fmt.Errorf("max residual %g", worst)
	}
	return nil
}
