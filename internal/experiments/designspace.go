package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------
// Extension: design-space search over the machine description.
//
// The paper evaluates exactly one integrated organisation (16 banks of
// 512 B column buffers, a 16-entry victim cache). With the machine
// description promoted to a first-class input, the same simulation
// paths can answer the neighbouring questions at scale: which of the
// 10^4-10^5 reachable organisations of a 256 Mbit die actually pay off,
// and what do they cost in silicon?
//
// The search engine stands on three legs:
//
//  1. Family-shared trace passes. Design points are grouped into
//     families by column size (= profiler line size); each
//     (family, bench) pair is one sweep unit making a single pass
//     through a workload.FamilyCacheSet, whose stack-distance trackers
//     answer every bank-count × associativity point of the family and
//     whose in-pass victim compounds answer the victim-bearing points
//     bit-for-bit. N points cost F ≪ N passes: O(families × refs)
//     instead of O(points × refs).
//  2. Coarse grid → adaptive refinement. With -ds-coarse k, only every
//     k-th lattice index per axis (plus the endpoints) is evaluated
//     first; each refinement round then expands the lattice neighbours
//     of the current screening frontier. Because the family passes
//     register the full lattice up front, refinement re-reads the
//     histograms — it never costs another trace pass.
//  3. Miss-rate screening before GSPN. Every evaluated point gets miss
//     rates, a die-area proxy, and an analytic CPI estimate (a
//     queueing-style formula over the same rates the GSPN consumes —
//     cheap, deterministic, and monotone in the right directions) from
//     the family histograms; the Monte-Carlo GSPN processor model runs
//     only for (point, bench) pairs on the estimated
//     (CPI, area, D-miss) Pareto frontier, capped per bench (or for
//     everything, on grids small enough that the classic exhaustive
//     table is wanted).
//
// The result is a Pareto frontier in (total CPI, die area, D-miss%).
// ---------------------------------------------------------------------

// DesignPoint is one machine geometry in the search lattice.
type DesignPoint struct {
	Banks         int // DRAM banks = column-buffer cache sets
	ColumnBytes   int // column buffer (cache line) size
	Ways          int // D-cache associativity (column buffers per bank)
	VictimEntries int // victim cache entries (0 = no victim cache)
}

func (p DesignPoint) String() string {
	return fmt.Sprintf("b=%d/col=%d/w=%d/vic=%d", p.Banks, p.ColumnBytes, p.Ways, p.VictimEntries)
}

// DesignRow is one (geometry, benchmark) evaluation. Every evaluated
// point carries miss rates and the area proxy; MemCPI/TotalCPI are only
// meaningful when HasCPI is set (the point survived miss-rate screening
// or the grid was small enough to evaluate exhaustively).
type DesignRow struct {
	Point    DesignPoint
	Bench    string
	IMissPct float64 // proposed I-cache miss rate, percent
	DMissPct float64 // proposed D-cache (+victim if present) miss rate
	AreaMM2  float64 // die-area proxy (internal/costmodel)
	MemCPI   float64 // GSPN memory component
	TotalCPI float64
	HasCPI   bool
}

// FrontierRow is one Pareto-optimal (bench, geometry) result: no other
// GSPN-evaluated point of the same bench is at least as good on all of
// (TotalCPI, AreaMM2, DMissPct) and better on one.
type FrontierRow struct {
	Bench    string
	Point    DesignPoint
	DMissPct float64
	AreaMM2  float64
	TotalCPI float64
}

// DesignAccounting is the search's cost ledger — the numbers that prove
// the family sharing did its job (Passes = Families × Benches, however
// large Evaluated grows). It describes the search, not the run: a warm
// result cache reports the same ledger as a cold run, and the work a
// run actually did shows up as result-cache misses in its metrics.
type DesignAccounting struct {
	Lattice   int // valid points in the full axis lattice
	Evaluated int // points with assembled miss-rate rows
	Families  int // distinct column sizes
	Benches   int
	Passes    int // trace passes the search is built from, one per family unit
	Compounds int // in-pass victim replays across all families
	GSPNEvals int // (point, bench) GSPN evaluations
	Rounds    int // refinement rounds that added points
}

func (a DesignAccounting) String() string {
	return fmt.Sprintf("accounting: lattice=%d evaluated=%d families=%d benches=%d passes=%d compounds=%d gspn=%d rounds=%d",
		a.Lattice, a.Evaluated, a.Families, a.Benches, a.Passes, a.Compounds, a.GSPNEvals, a.Rounds)
}

// DesignspaceResult is the assembled search.
type DesignspaceResult struct {
	Benches    []string
	Points     []DesignPoint // evaluated points, lattice order
	Rows       []DesignRow   // point-major, bench-minor: len = Points × Benches
	Frontier   []FrontierRow // final Pareto frontier, bench-major
	Accounting DesignAccounting

	rowIdx map[designKey]int
}

type designKey struct {
	p     DesignPoint
	bench string
}

// designspaceBenches are the two probe workloads: one integer code with
// a large instruction footprint (gcc) and one vectorisable float code
// with streaming data (tomcatv) — the two ends of Figures 7/8.
var designspaceBenches = []string{"126.gcc", "101.tomcatv"}

// gspnAllMax is the row count (points × benches) up to which every
// evaluated row is GSPN-evaluated (the classic exhaustive table);
// above it, only screening-frontier candidates are.
const gspnAllMax = 64

// gspnCapPerBench bounds the (slow, ~100 ms) Monte-Carlo GSPN stage on
// large searches: per bench, at most this many screening-frontier rows
// — strided uniformly across the frontier in ascending estimated-CPI
// order, so the whole area/CPI tradeoff gets real evaluations, not just
// the fast end — get a real CPI. Everything else keeps its miss rates
// and area with HasCPI=false, and the final Pareto frontier only
// reports evaluated rows.
const gspnCapPerBench = 48

// designspaceAxes returns the sweep axes, honouring Options overrides.
func designspaceAxes(o Options) (banks, columns, ways, victims []int) {
	banks, columns, ways, victims = o.DSBanks, o.DSColumns, o.DSWays, o.DSVictims
	if len(banks) == 0 {
		banks = []int{8, 16, 32}
	}
	if len(columns) == 0 {
		columns = []int{256, 512}
	}
	if len(ways) == 0 {
		ways = []int{o.Device().DCacheWays}
	}
	if len(victims) == 0 {
		victims = []int{0, 16}
	}
	return banks, columns, ways, victims
}

// designLattice is the validated axis cross-product: the full space the
// search can reach. Invalid geometries (e.g. a victim line that does
// not divide the column) are dropped at enumeration time, so the
// lattice — and everything derived from it — is deterministic.
type designLattice struct {
	points []DesignPoint
	devs   []core.Device
	axes   [][4]int            // per point: axis indices (banks, col, ways, vic)
	index  map[DesignPoint]int // point -> lattice index
	nAxis  [4]int              // axis lengths
}

func newDesignLattice(o Options) *designLattice {
	bankAxis, colAxis, wayAxis, vicAxis := designspaceAxes(o)
	base := o.Device()
	l := &designLattice{
		index: make(map[DesignPoint]int),
		nAxis: [4]int{len(bankAxis), len(colAxis), len(wayAxis), len(vicAxis)},
	}
	for bi, b := range bankAxis {
		for ci, c := range colAxis {
			for wi, w := range wayAxis {
				for vi, v := range vicAxis {
					dev := base.WithOrganisation(b, c, v, w)
					if err := dev.Validate(); err != nil {
						continue
					}
					p := DesignPoint{Banks: b, ColumnBytes: c, Ways: w, VictimEntries: v}
					l.index[p] = len(l.points)
					l.points = append(l.points, p)
					l.devs = append(l.devs, dev)
					l.axes = append(l.axes, [4]int{bi, ci, wi, vi})
				}
			}
		}
	}
	return l
}

// families groups the lattice by column size: one family per distinct
// column, each carrying every (banks, ways, victim) combination the
// lattice reaches at that column — the registration list for the
// family's single-pass profiler.
func (l *designLattice) families() (columns []int, byColumn map[int][]workload.FamilyPoint) {
	byColumn = make(map[int][]workload.FamilyPoint)
	for _, p := range l.points {
		if _, ok := byColumn[p.ColumnBytes]; !ok {
			columns = append(columns, p.ColumnBytes)
		}
		byColumn[p.ColumnBytes] = append(byColumn[p.ColumnBytes],
			workload.FamilyPoint{Banks: p.Banks, Ways: p.Ways, VictimEntries: p.VictimEntries})
	}
	sort.Ints(columns)
	return columns, byColumn
}

// coarseSelection returns the lattice indices of the round-0 grid:
// every point whose axis indices all lie on the stride-k subsample
// (always including each axis's first and last index). stride <= 1
// selects the whole lattice.
func (l *designLattice) coarseSelection(stride int) []int {
	if stride <= 1 {
		sel := make([]int, len(l.points))
		for i := range sel {
			sel[i] = i
		}
		return sel
	}
	on := func(axis, idx int) bool {
		return idx%stride == 0 || idx == l.nAxis[axis]-1
	}
	var sel []int
	for i, ax := range l.axes {
		if on(0, ax[0]) && on(1, ax[1]) && on(2, ax[2]) && on(3, ax[3]) {
			sel = append(sel, i)
		}
	}
	return sel
}

// neighbors returns the lattice indices one axis step (±1 on a single
// axis) away from the given point, sorted ascending.
func (l *designLattice) neighbors(i int) []int {
	var out []int
	ax := l.axes[i]
	p := l.points[i]
	bankAxis, colAxis, wayAxis, vicAxis := axisValuesOf(l)
	for axis := 0; axis < 4; axis++ {
		for _, d := range []int{-1, 1} {
			ni := ax[axis] + d
			if ni < 0 || ni >= l.nAxis[axis] {
				continue
			}
			q := p
			switch axis {
			case 0:
				q.Banks = bankAxis[ni]
			case 1:
				q.ColumnBytes = colAxis[ni]
			case 2:
				q.Ways = wayAxis[ni]
			case 3:
				q.VictimEntries = vicAxis[ni]
			}
			if j, ok := l.index[q]; ok {
				out = append(out, j)
			}
		}
	}
	sort.Ints(out)
	return out
}

// axisValuesOf reconstructs the axis value lists from the lattice (the
// lattice stores indices; values are recovered from the points). Axis
// values absent from every valid point are unreachable anyway.
func axisValuesOf(l *designLattice) (banks, cols, ways, vics []int) {
	banks = make([]int, l.nAxis[0])
	cols = make([]int, l.nAxis[1])
	ways = make([]int, l.nAxis[2])
	vics = make([]int, l.nAxis[3])
	for i, p := range l.points {
		ax := l.axes[i]
		banks[ax[0]] = p.Banks
		cols[ax[1]] = p.ColumnBytes
		ways[ax[2]] = p.Ways
		vics[ax[3]] = p.VictimEntries
	}
	return
}

// DesignspaceJob builds the search as a sweep job: one unit per
// (column family, benchmark) making the family's single trace pass, and
// an Assemble step that runs screening, adaptive refinement, and the
// GSPN stage over the completed histograms. Unit count — and therefore
// trace-pass count — is families × benches regardless of how many
// lattice points the axes span.
func DesignspaceJob(o Options, _ *MeasurementSet) sweep.Job {
	lat := newDesignLattice(o)
	columns, byColumn := lat.families()

	// The family units' names encode only (column, bench); the axes come
	// from Options, so the registered point set is fingerprinted into
	// the cache key — widening an axis re-keys every affected family,
	// and a refinement re-run with wider axes reuses any family whose
	// registration list is unchanged.
	famK := newKeyer("designspace", o, fmt.Sprintf("budget=%d", o.Budget))
	var units []sweep.Unit
	for _, col := range columns {
		pts := byColumn[col]
		for _, bench := range designspaceBenches {
			uname := fmt.Sprintf("designspace/col=%d/%s", col, bench)
			units = append(units, cached(famK, uname, 0, familyCodec, func() (*workload.FamilySummary, error) {
				w, err := workload.ByName(bench)
				if err != nil {
					return nil, err
				}
				f := workload.NewFamilyCacheSet(col, pts)
				instr, err := o.source().Stream(w, o.Budget, f)
				if err != nil {
					return nil, err
				}
				// Distil the live profiler state down to the
				// serializable summary the assembly (and the result
				// cache) consumes.
				return f.Summary(w, instr, pts), nil
			}, "pts="+familyPointsFingerprint(col, pts)))
		}
	}

	// Each family unit makes exactly one trace pass, so the search's
	// pass count is its unit count whether a unit ran or decoded a
	// cached summary: warm output equals cold.
	assemble := func(parts []*workload.FamilySummary) (interface{}, error) {
		// meas[column][bench] — unit order is family-major, bench-minor.
		meas := make(map[int]map[string]*workload.FamilySummary, len(columns))
		compounds := 0
		for fi, col := range columns {
			meas[col] = make(map[string]*workload.FamilySummary, len(designspaceBenches))
			for bi, bench := range designspaceBenches {
				meas[col][bench] = parts[fi*len(designspaceBenches)+bi]
			}
			compounds += meas[col][designspaceBenches[0]].Compounds()
		}

		// rowsFor reads one point's per-bench miss rates and area out of
		// the family histograms — no trace pass, no GSPN.
		rowsFor := func(i int) []DesignRow {
			p := lat.points[i]
			fp := workload.FamilyPoint{Banks: p.Banks, Ways: p.Ways, VictimEntries: p.VictimEntries}
			area := lat.devs[i].AreaMM2()
			out := make([]DesignRow, len(designspaceBenches))
			for bi, bench := range designspaceBenches {
				set := meas[p.ColumnBytes][bench]
				d := set.DStats(p.Banks, p.Ways)
				if p.VictimEntries > 0 {
					d = set.DVictimStats(fp)
				}
				out[bi] = DesignRow{
					Point:    p,
					Bench:    bench,
					IMissPct: set.IStats(p.Banks).Ifetch.Percent(),
					DMissPct: d.Data().Percent(),
					AreaMM2:  area,
				}
			}
			return out
		}

		// estsFor computes the analytic CPI estimate that drives
		// screening — same rates the GSPN will consume, no Monte Carlo.
		estsFor := func(i int) []float64 {
			p := lat.points[i]
			fp := workload.FamilyPoint{Banks: p.Banks, Ways: p.Ways, VictimEntries: p.VictimEntries}
			cfg := cpumodel.ConfigFor(lat.devs[i])
			out := make([]float64, len(designspaceBenches))
			for bi, bench := range designspaceBenches {
				out[bi] = estimateCPI(cfg, meas[p.ColumnBytes][bench].Rates(fp))
			}
			return out
		}

		// Round 0: the coarse grid.
		selected := lat.coarseSelection(o.DSCoarse)
		inSel := make(map[int]bool, len(selected))
		rows := make(map[int][]DesignRow, len(selected))
		ests := make(map[int][]float64, len(selected))
		for _, i := range selected {
			inSel[i] = true
			rows[i] = rowsFor(i)
			ests[i] = estsFor(i)
		}

		// Adaptive refinement: expand lattice neighbours of the current
		// screening frontier until the frontier stops moving or the
		// round budget runs out. Purely histogram reads — pass count is
		// already fixed.
		rounds := 0
		for r := 0; r < o.DSRefine; r++ {
			frontier := screeningFrontier(selected, rows, ests)
			var fresh []int
			for _, i := range frontier {
				for _, n := range lat.neighbors(i) {
					if !inSel[n] {
						inSel[n] = true
						fresh = append(fresh, n)
					}
				}
			}
			if len(fresh) == 0 {
				break
			}
			sort.Ints(fresh)
			for _, i := range fresh {
				rows[i] = rowsFor(i)
				ests[i] = estsFor(i)
			}
			selected = append(selected, fresh...)
			rounds++
		}
		sort.Ints(selected)

		// GSPN stage: screening picks the (point, bench) candidates;
		// small grids run exhaustively so the classic table stays fully
		// populated. Large searches cap the Monte-Carlo budget per bench
		// at the gspnCapPerBench best rows by estimated CPI. The nested
		// sweep keeps evaluation order — and therefore output —
		// deterministic for any worker count.
		type gspnPair struct{ i, bi int }
		var gPairs []gspnPair
		if len(selected)*len(designspaceBenches) <= gspnAllMax {
			for _, i := range selected {
				for bi := range designspaceBenches {
					gPairs = append(gPairs, gspnPair{i, bi})
				}
			}
		} else {
			for bi := range designspaceBenches {
				cand := append([]int(nil), benchFrontier(selected, rows, ests, bi)...)
				sort.Slice(cand, func(a, b int) bool {
					ia, ib := cand[a], cand[b]
					if ests[ia][bi] != ests[ib][bi] {
						return ests[ia][bi] < ests[ib][bi]
					}
					if rows[ia][bi].AreaMM2 != rows[ib][bi].AreaMM2 {
						return rows[ia][bi].AreaMM2 < rows[ib][bi].AreaMM2
					}
					return ia < ib
				})
				if n := len(cand); n > gspnCapPerBench {
					strided := make([]int, 0, gspnCapPerBench)
					for k := 0; k < gspnCapPerBench; k++ {
						strided = append(strided, cand[k*(n-1)/(gspnCapPerBench-1)])
					}
					cand = strided
				}
				for _, i := range cand {
					gPairs = append(gPairs, gspnPair{i, bi})
				}
			}
			sort.Slice(gPairs, func(a, b int) bool {
				if gPairs[a].i != gPairs[b].i {
					return gPairs[a].i < gPairs[b].i
				}
				return gPairs[a].bi < gPairs[b].bi
			})
		}
		// The GSPN inputs are fully determined by the per-point device,
		// the rates (budget + bench, both in key or name), the run
		// length, and the seed — the family's other registered points
		// never reach this stage, so the key omits the axes fingerprint
		// and refinement re-runs with wider axes still hit.
		gspnK := newKeyer("designspace/gspn", o,
			fmt.Sprintf("budget=%d", o.Budget), fmt.Sprintf("gspn=%d", o.GSPNInstr))
		gUnits := make([]sweep.Unit, len(gPairs))
		for gi, pr := range gPairs {
			p := lat.points[pr.i]
			fp := workload.FamilyPoint{Banks: p.Banks, Ways: p.Ways, VictimEntries: p.VictimEntries}
			dev := lat.devs[pr.i]
			bench := designspaceBenches[pr.bi]
			uname := fmt.Sprintf("designspace/gspn/%s/%s", p, bench)
			gUnits[gi] = cached(gspnK, uname, o.Seed, gspnCodec, func() (cpumodel.Result, error) {
				rates := meas[p.ColumnBytes][bench].Rates(fp)
				return cpumodel.Evaluate(cpumodel.ConfigFor(dev), rates, o.GSPNInstr, o.Seed)
			}, "pdev="+deviceHash(dev))
		}
		gJob := job("designspace/gspn", gUnits, func(rs []cpumodel.Result) (interface{}, error) { return rs, nil })
		eng := &sweep.Engine{Workers: o.Workers, Cache: o.ResultCache}
		gv, err := eng.RunJob(o.ctx(), gJob)
		if err != nil {
			return nil, err
		}
		for gi, r := range gv.([]cpumodel.Result) {
			pr := gPairs[gi]
			row := &rows[pr.i][pr.bi]
			row.MemCPI = r.MemCPI
			row.TotalCPI = r.TotalCPI
			row.HasCPI = true
		}

		res := &DesignspaceResult{
			Benches: designspaceBenches,
			Accounting: DesignAccounting{
				Lattice:   len(lat.points),
				Evaluated: len(selected),
				Families:  len(columns),
				Benches:   len(designspaceBenches),
				Passes:    len(parts),
				Compounds: compounds,
				GSPNEvals: len(gUnits),
				Rounds:    rounds,
			},
			rowIdx: make(map[designKey]int, len(selected)*len(designspaceBenches)),
		}
		for _, i := range selected {
			res.Points = append(res.Points, lat.points[i])
			for bi := range designspaceBenches {
				res.rowIdx[designKey{rows[i][bi].Point, rows[i][bi].Bench}] = len(res.Rows)
				res.Rows = append(res.Rows, rows[i][bi])
			}
		}
		res.Frontier = paretoFrontier(res)
		return res, nil
	}

	return job("designspace", units, assemble)
}

// estimateCPI is the screening heuristic: an analytic M/M/1-flavoured
// CPI estimate built from the same per-bench rates the GSPN consumes.
// Miss traffic per instruction times DRAM service, plus a queueing bump
// that shrinks with bank count, over BaseCPI. It is cheap (a handful of
// float ops vs ~100 ms of Monte Carlo), deterministic, and monotone the
// right way in every axis — good enough to rank candidates for the real
// model, which alone decides the reported frontier.
func estimateCPI(cfg cpumodel.SystemConfig, app cpumodel.AppRates) float64 {
	miss := (1 - app.IHit) + app.LoadFrac*(1-app.LoadHit) + app.StoreFrac*(1-app.StoreHit)
	service := cfg.MemCycles + cfg.PrechargeCycles
	rho := miss * service / float64(cfg.Banks)
	if rho > 0.95 {
		rho = 0.95
	}
	wait := service * rho / (1 - rho)
	return app.BaseCPI + miss*(cfg.MemCycles+wait)
}

// benchFrontier returns (ascending lattice indices) the selected points
// whose (estimated CPI, area, D-miss) triple is Pareto-non-dominated
// for the given bench. This is the screening frontier that steers
// refinement and nominates GSPN candidates; screening is a heuristic —
// a point the estimate misranks can be pruned — but the reported
// frontier only ever contains GSPN-evaluated rows, so the heuristic
// costs recall, never correctness of what is claimed.
func benchFrontier(selected []int, rows map[int][]DesignRow, ests map[int][]float64, bi int) []int {
	var out []int
	for _, i := range selected {
		dominated := false
		for _, j := range selected {
			if i == j {
				continue
			}
			if screenDominates(ests[j][bi], rows[j][bi], ests[i][bi], rows[i][bi]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// screeningFrontier is the union of the per-bench frontiers, sorted and
// deduplicated — the refinement seed set.
func screeningFrontier(selected []int, rows map[int][]DesignRow, ests map[int][]float64) []int {
	nb := 0
	for _, i := range selected {
		nb = len(rows[i])
		break
	}
	keep := map[int]bool{}
	for bi := 0; bi < nb; bi++ {
		for _, i := range benchFrontier(selected, rows, ests, bi) {
			keep[i] = true
		}
	}
	out := make([]int, 0, len(keep))
	for i := range keep {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// screenDominates reports whether (estA, a) strictly dominates
// (estB, b) in the screening order: minimise estimated CPI, area, and
// D-miss.
func screenDominates(estA float64, a DesignRow, estB float64, b DesignRow) bool {
	if estA > estB || a.DMissPct > b.DMissPct || a.AreaMM2 > b.AreaMM2 {
		return false
	}
	return estA < estB || a.DMissPct < b.DMissPct || a.AreaMM2 < b.AreaMM2
}

// paretoFrontier extracts, per bench, the GSPN-evaluated rows that no
// other evaluated row dominates in (TotalCPI, AreaMM2, DMissPct), all
// minimised. Rows are ordered bench-major, then ascending CPI (area,
// then point order break ties), so the frontier is deterministic.
func paretoFrontier(res *DesignspaceResult) []FrontierRow {
	var out []FrontierRow
	for _, bench := range res.Benches {
		var cand []DesignRow
		for _, r := range res.Rows {
			if r.Bench == bench && r.HasCPI {
				cand = append(cand, r)
			}
		}
		for i, r := range cand {
			dominated := false
			for j, q := range cand {
				if i == j {
					continue
				}
				if q.TotalCPI <= r.TotalCPI && q.AreaMM2 <= r.AreaMM2 && q.DMissPct <= r.DMissPct &&
					(q.TotalCPI < r.TotalCPI || q.AreaMM2 < r.AreaMM2 || q.DMissPct < r.DMissPct) {
					dominated = true
					break
				}
			}
			if !dominated {
				out = append(out, FrontierRow{Bench: bench, Point: r.Point,
					DMissPct: r.DMissPct, AreaMM2: r.AreaMM2, TotalCPI: r.TotalCPI})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Bench != b.Bench {
			return benchOrder(res.Benches, a.Bench) < benchOrder(res.Benches, b.Bench)
		}
		if a.TotalCPI != b.TotalCPI {
			return a.TotalCPI < b.TotalCPI
		}
		if a.AreaMM2 != b.AreaMM2 {
			return a.AreaMM2 < b.AreaMM2
		}
		return false
	})
	return out
}

func benchOrder(benches []string, b string) int {
	for i, n := range benches {
		if n == b {
			return i
		}
	}
	return len(benches)
}

// Row finds the evaluation for a (point, bench) pair via the index
// built at assembly (O(1); the pre-rewrite linear scan made Table()
// quadratic at scale).
func (r *DesignspaceResult) Row(p DesignPoint, bench string) (DesignRow, bool) {
	if r.rowIdx == nil {
		r.rowIdx = make(map[designKey]int, len(r.Rows))
		for i, row := range r.Rows {
			r.rowIdx[designKey{row.Point, row.Bench}] = i
		}
	}
	i, ok := r.rowIdx[designKey{p, bench}]
	if !ok {
		return DesignRow{}, false
	}
	return r.Rows[i], true
}

// gridTableMax caps the per-point grid rendering; larger searches are
// reported by their frontier (the grid is still fully present in Rows
// and the -json / frontier-export paths).
const gridTableMax = 64

// Table renders the per-point grid (the classic exhaustive view).
func (r *DesignspaceResult) Table() *report.Table {
	cols := []string{"banks", "column B", "ways", "victim", "area mm2"}
	for _, b := range r.Benches {
		cols = append(cols, b+" I%", b+" D%", b+" CPI")
	}
	t := report.NewTable("Extension: integrated-node design space (device-derived geometries)", cols...)
	for _, p := range r.Points {
		var area float64
		if row, ok := r.Row(p, r.Benches[0]); ok {
			area = row.AreaMM2
		}
		cells := []interface{}{p.Banks, p.ColumnBytes, p.Ways, p.VictimEntries,
			fmt.Sprintf("%.1f", area)}
		for _, b := range r.Benches {
			row, ok := r.Row(p, b)
			if !ok {
				cells = append(cells, "-", "-", "-")
				continue
			}
			cpi := "-"
			if row.HasCPI {
				cpi = fmt.Sprintf("%.2f", row.TotalCPI)
			}
			cells = append(cells, pct(row.IMissPct), pct(row.DMissPct), cpi)
		}
		t.Row(cells...)
	}
	t.Note("each geometry is the base device re-derived by WithOrganisation(banks, column,")
	t.Note("victim, ways); miss rates come from one shared trace pass per column-size family,")
	t.Note("CPI from the GSPN ('-' = screened out before GSPN); the paper's organisation is")
	t.Note("the 16 x 512 x 2-way + 16-entry-victim row")
	return t
}

// FrontierTable renders the Pareto frontier plus the search accounting.
func (r *DesignspaceResult) FrontierTable() *report.Table {
	t := report.NewTable("Design-space Pareto frontier: (total CPI, die area, D-miss%)",
		"bench", "banks", "column B", "ways", "victim", "area mm2", "D%", "CPI")
	for _, f := range r.Frontier {
		t.Row(f.Bench, f.Point.Banks, f.Point.ColumnBytes, f.Point.Ways,
			f.Point.VictimEntries, fmt.Sprintf("%.1f", f.AreaMM2),
			pct(f.DMissPct), fmt.Sprintf("%.2f", f.TotalCPI))
	}
	t.Note(r.Accounting.String())
	t.Note(fmt.Sprintf("family sharing: %d points answered by %d trace passes (%d column-size",
		r.Accounting.Evaluated, r.Accounting.Passes, r.Accounting.Families))
	t.Note(fmt.Sprintf("families x benches); above %d rows the GSPN ran only for screening-frontier", gspnAllMax))
	t.Note(fmt.Sprintf("candidates (<= %d per bench, strided across the estimated frontier); refinement",
		gspnCapPerBench))
	t.Note("re-reads histograms, never re-traces")
	return t
}

// Tables implements the CLI's multi-table rendering: the grid (elided
// beyond gridTableMax points) followed by the frontier + accounting.
func (r *DesignspaceResult) Tables() []*report.Table {
	if len(r.Points) <= gridTableMax {
		return []*report.Table{r.Table(), r.FrontierTable()}
	}
	return []*report.Table{r.FrontierTable()}
}

// WriteFrontierJSON exports the frontier (with accounting) as JSON.
func (r *DesignspaceResult) WriteFrontierJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Accounting DesignAccounting
		Frontier   []FrontierRow
	}{r.Accounting, r.Frontier})
}

// WriteFrontierCSV exports the frontier as CSV (one header line, one
// row per frontier point).
func (r *DesignspaceResult) WriteFrontierCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "bench,banks,column_bytes,ways,victim_entries,area_mm2,dmiss_pct,total_cpi"); err != nil {
		return err
	}
	for _, f := range r.Frontier {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%.4f,%.6f,%.6f\n",
			f.Bench, f.Point.Banks, f.Point.ColumnBytes, f.Point.Ways,
			f.Point.VictimEntries, f.AreaMM2, f.DMissPct, f.TotalCPI); err != nil {
			return err
		}
	}
	return nil
}
