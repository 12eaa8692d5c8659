// Package cpumodel builds and evaluates the paper's GSPN performance
// models (Section 5.5): the memory-bank net of Figure 9 and the
// processor/cache net of Figure 10. The Figure 10 net exists in two
// variants selected by SystemConfig:
//
//   - the integrated processor/memory device: instruction and data
//     column-buffer caches backed directly by a 16-bank DRAM array with
//     6-cycle access, and scoreboarding that lets roughly one
//     instruction issue under an outstanding load (transition T23,
//     exponential with rate 1);
//
//   - the conventional reference system (the grey components of
//     Figure 10): first-level caches backed by a shared unified
//     second-level cache and a dual-banked main memory, with the shared
//     port enforcing mutual exclusion between instruction and data
//     traffic (place P6).
//
// Cache hit probabilities measured by the trace-driven simulations
// (internal/workload + internal/cache) are dialled into the transition
// weights exactly as the paper describes, and the net is evaluated by
// Monte-Carlo simulation to yield the memory CPI component. The
// functional-unit ("cpu") CPI component is an input per application —
// the paper obtains it from an internal MicroSparc-II simulator; we
// carry the paper's published values as model inputs (see DESIGN.md,
// substitution 2).
package cpumodel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gspn"
	"repro/internal/stats"
)

// AppRates carries one application's measured reference mix and cache
// hit probabilities — the quantities the paper "dials into" the GSPN.
type AppRates struct {
	Name string

	// BaseCPI is the functional-unit CPI component (pipeline
	// dependencies, FP latencies) with a zero-latency memory system.
	BaseCPI float64

	// LoadFrac and StoreFrac are loads/stores per instruction.
	LoadFrac, StoreFrac float64

	// First-level (or column-buffer) hit probabilities.
	IHit, LoadHit, StoreHit float64

	// Conditional second-level hit probabilities given a first-level
	// miss; used only when the config has an L2.
	IL2Hit, LoadL2Hit, StoreL2Hit float64
}

// Validate reports obviously inconsistent rates.
func (a AppRates) Validate() error {
	in01 := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("cpumodel: %s: %s=%g outside [0,1]", a.Name, name, v)
		}
		return nil
	}
	for _, c := range []struct {
		n string
		v float64
	}{
		{"IHit", a.IHit}, {"LoadHit", a.LoadHit}, {"StoreHit", a.StoreHit},
		{"IL2Hit", a.IL2Hit}, {"LoadL2Hit", a.LoadL2Hit}, {"StoreL2Hit", a.StoreL2Hit},
		{"LoadFrac", a.LoadFrac}, {"StoreFrac", a.StoreFrac},
	} {
		if err := in01(c.n, c.v); err != nil {
			return err
		}
	}
	if a.LoadFrac+a.StoreFrac > 1 {
		return fmt.Errorf("cpumodel: %s: load+store fraction %g exceeds 1",
			a.Name, a.LoadFrac+a.StoreFrac)
	}
	if a.BaseCPI < 1 {
		return fmt.Errorf("cpumodel: %s: base CPI %g below 1", a.Name, a.BaseCPI)
	}
	return nil
}

// SystemConfig selects and parameterises the net variant.
type SystemConfig struct {
	Name string

	// Banks is the number of independent memory banks (16 for the
	// integrated device, 2 for the reference system).
	Banks int

	// MemCycles is the DRAM array access time in CPU cycles
	// (transitions T1/T3 of Figure 9).
	MemCycles float64

	// PrechargeCycles is the bank recovery time (transition T2).
	PrechargeCycles float64

	// HasL2 includes the grey second-level-cache components.
	HasL2 bool

	// L2Cycles is the second-level cache access time (T24/T25).
	L2Cycles float64

	// ScoreboardRate is the rate of the exponential stall transition
	// T23: the mean number of instructions that issue under an
	// outstanding load is 1/rate. Zero models a machine *without*
	// scoreboarding (the paper's "rate set to infinity"): the processor
	// stalls immediately on a load miss.
	ScoreboardRate float64
}

// ConfigFor derives the GSPN system configuration from a machine
// description: bank count and access/precharge timing from the DRAM
// organisation, the grey L2 components from the reference device's
// board-level cache, and the scoreboard stall rate from the device.
func ConfigFor(d core.Device) SystemConfig {
	cfg := SystemConfig{
		Name:            "integrated",
		Banks:           d.DRAM.Banks,
		MemCycles:       float64(d.DRAM.AccessCycles),
		PrechargeCycles: float64(d.DRAM.PrechargeCycles),
		ScoreboardRate:  d.ScoreboardRate,
	}
	if !d.Integrated {
		cfg.Name = "reference"
	}
	if d.L2Bytes > 0 {
		cfg.HasL2 = true
		cfg.L2Cycles = float64(d.L2Cycles)
	}
	return cfg
}

// Model is a built net for one (config, application) pair.
type Model struct {
	Cfg   SystemConfig
	App   AppRates
	net   *gspn.Net
	ids   ids
	banks int
}

// ids collects the node handles needed for observation.
type ids struct {
	tIssue    gspn.TransID
	pBankFree []gspn.PlaceID
	pRun      gspn.PlaceID
	pLSU      gspn.PlaceID
	pStalled  gspn.PlaceID
}

// Build constructs the GSPN for the configuration and application.
func Build(cfg SystemConfig, app AppRates) (*Model, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if cfg.Banks < 1 {
		return nil, fmt.Errorf("cpumodel: config %s: need at least one bank", cfg.Name)
	}
	m := &Model{Cfg: cfg, App: app, banks: cfg.Banks}
	m.net, m.ids = buildNet(cfg, app)
	return m, nil
}

// eps floors probabilities so immediate weights stay positive; a path
// with weight eps fires ~never but keeps the net structurally valid.
const eps = 1e-12

func wf(p float64) float64 {
	if p < eps {
		return eps
	}
	return p
}

// buildNet wires the Figure 9 + Figure 10 nets.
func buildNet(cfg SystemConfig, app AppRates) (*gspn.Net, ids) {
	n := gspn.NewNet()
	var id ids

	// ----- shared processor state -----
	pFetchReq := n.Place("fetchReq", 1) // need to fetch next instruction
	pInstr := n.Place("instrReady", 0)  // P1: loaded instruction
	pDecide := n.Place("decide", 0)     // P7: issued instruction to classify
	id.pRun = n.Place("run", 1)         // absent while the CPU is stalled
	id.pLSU = n.Place("lsuFree", 1)     // P10: one outstanding mem op
	pLdOut := n.Place("loadOutstanding", 0)
	id.pStalled = n.Place("stalled", 0)
	pLdComplete := n.Place("loadComplete", 0)

	// L2 port (P6): mutual exclusion between instruction and data
	// traffic into the shared second-level cache and memory.
	var pL2Port gspn.PlaceID
	if cfg.HasL2 {
		pL2Port = n.Place("l2Port", 1)
	}

	// ----- Figure 9: memory banks -----
	// Requests enter a per-bank queue chosen uniformly at random
	// (immediate selection), wait for the bank, are served for
	// MemCycles, and the bank recovers for PrechargeCycles.
	id.pBankFree = make([]gspn.PlaceID, cfg.Banks)
	for b := 0; b < cfg.Banks; b++ {
		id.pBankFree[b] = n.Place(fmt.Sprintf("bank%dFree", b), 1)
	}

	// bankPath wires "req place -> banks -> done place" and returns it.
	// kindTag distinguishes instruction/load/store plumbing.
	bankPath := func(kindTag string, pReq, pDone gspn.PlaceID, holdPort bool) {
		for b := 0; b < cfg.Banks; b++ {
			pQ := n.Place(fmt.Sprintf("%sQ%d", kindTag, b), 0)
			pSvc := n.Place(fmt.Sprintf("%sSvc%d", kindTag, b), 0)
			pPre := n.Place(fmt.Sprintf("%sPre%d", kindTag, b), 0)

			tSel := n.Immediate(fmt.Sprintf("%sSel%d", kindTag, b), 1, 0)
			n.In(tSel, pReq, 1)
			n.Out(tSel, pQ, 1)

			tStart := n.Immediate(fmt.Sprintf("%sStart%d", kindTag, b), 1, 0)
			n.In(tStart, pQ, 1)
			n.In(tStart, id.pBankFree[b], 1)
			if holdPort {
				n.In(tStart, pL2Port, 1)
			}
			n.Out(tStart, pSvc, 1)

			tAcc := n.Timed(fmt.Sprintf("%sAcc%d", kindTag, b), cfg.MemCycles)
			n.In(tAcc, pSvc, 1)
			n.Out(tAcc, pDone, 1)
			n.Out(tAcc, pPre, 1)
			if holdPort {
				n.Out(tAcc, pL2Port, 1)
			}

			tPre := n.Timed(fmt.Sprintf("%sPre%dT", kindTag, b), cfg.PrechargeCycles)
			n.In(tPre, pPre, 1)
			n.Out(tPre, id.pBankFree[b], 1)
		}
	}

	// l2Path wires "req -> L2 (holding the port) -> done".
	l2Path := func(kindTag string, pReq, pDone gspn.PlaceID) {
		pSvc := n.Place(kindTag+"L2Svc", 0)
		tStart := n.Immediate(kindTag+"L2Start", 1, 0)
		n.In(tStart, pReq, 1)
		n.In(tStart, pL2Port, 1)
		n.Out(tStart, pSvc, 1)
		tEnd := n.Timed(kindTag+"L2Acc", cfg.L2Cycles)
		n.In(tEnd, pSvc, 1)
		n.Out(tEnd, pDone, 1)
		n.Out(tEnd, pL2Port, 1)
	}

	// ----- instruction fetch (top of Figure 10) -----
	// T2: first-level instruction cache hit.
	tIHit := n.Immediate("T2_ihit", wf(app.IHit), 0)
	n.In(tIHit, pFetchReq, 1)
	n.Out(tIHit, pInstr, 1)

	if cfg.HasL2 {
		// T3: second-level hit; T4: fill from memory.
		pIL2Req := n.Place("iL2Req", 0)
		tIL2 := n.Immediate("T3_il2", wf((1-app.IHit)*app.IL2Hit), 0)
		n.In(tIL2, pFetchReq, 1)
		n.Out(tIL2, pIL2Req, 1)
		l2Path("ifetch", pIL2Req, pInstr)

		pIMemReq := n.Place("iMemReq", 0)
		tIMem := n.Immediate("T4_imem", wf((1-app.IHit)*(1-app.IL2Hit)), 0)
		n.In(tIMem, pFetchReq, 1)
		n.Out(tIMem, pIMemReq, 1)
		bankPath("ifetch", pIMemReq, pInstr, true)
	} else {
		pIMemReq := n.Place("iMemReq", 0)
		tIMem := n.Immediate("T4_imem", wf(1-app.IHit), 0)
		n.In(tIMem, pFetchReq, 1)
		n.Out(tIMem, pIMemReq, 1)
		bankPath("ifetch", pIMemReq, pInstr, false)
	}

	// ----- issue and classification -----
	// T1: one instruction issues per cycle while the CPU is running.
	id.tIssue = n.Timed("T1_issue", 1)
	n.In(id.tIssue, pInstr, 1)
	n.In(id.tIssue, id.pRun, 1)
	n.Out(id.tIssue, pDecide, 1)
	n.Out(id.tIssue, id.pRun, 1)

	// T7/T8/T9: non-memory / load / store. Fetching of the next
	// instruction proceeds immediately in all three cases.
	pLdReq := n.Place("ldReq", 0)
	pStReq := n.Place("stReq", 0)

	tOther := n.Immediate("T7_other", wf(1-app.LoadFrac-app.StoreFrac), 0)
	n.In(tOther, pDecide, 1)
	n.Out(tOther, pFetchReq, 1)

	tLoad := n.Immediate("T8_load", wf(app.LoadFrac), 0)
	n.In(tLoad, pDecide, 1)
	n.Out(tLoad, pFetchReq, 1)
	n.Out(tLoad, pLdReq, 1)

	tStore := n.Immediate("T9_store", wf(app.StoreFrac), 0)
	n.In(tStore, pDecide, 1)
	n.Out(tStore, pFetchReq, 1)
	n.Out(tStore, pStReq, 1)

	// ----- load path -----
	pLdIss := n.Place("ldIssued", 0)
	tLdIssue := n.Immediate("ldIssue", 1, 0)
	n.In(tLdIssue, pLdReq, 1)
	n.In(tLdIssue, id.pLSU, 1)
	n.Out(tLdIssue, pLdIss, 1)

	// T14: data cache hit — completes in one cycle, LSU released, no
	// stall possible.
	pLdFast := n.Place("ldFast", 0)
	tLdHit := n.Immediate("T14_dhit", wf(app.LoadHit), 0)
	n.In(tLdHit, pLdIss, 1)
	n.Out(tLdHit, pLdFast, 1)
	tLdFastDone := n.Timed("ldHitDone", 1)
	n.In(tLdFastDone, pLdFast, 1)
	n.Out(tLdFastDone, id.pLSU, 1)

	if cfg.HasL2 {
		// T15: SLC hit.
		pLdL2Req := n.Place("ldL2Req", 0)
		tLdL2 := n.Immediate("T15_dl2", wf((1-app.LoadHit)*app.LoadL2Hit), 0)
		n.In(tLdL2, pLdIss, 1)
		n.Out(tLdL2, pLdL2Req, 1)
		n.Out(tLdL2, pLdOut, 1)
		l2Path("ld", pLdL2Req, pLdComplete)

		// T12: main memory reference.
		pLdMemReq := n.Place("ldMemReq", 0)
		tLdMem := n.Immediate("T12_dmem", wf((1-app.LoadHit)*(1-app.LoadL2Hit)), 0)
		n.In(tLdMem, pLdIss, 1)
		n.Out(tLdMem, pLdMemReq, 1)
		n.Out(tLdMem, pLdOut, 1)
		bankPath("ld", pLdMemReq, pLdComplete, true)
	} else {
		pLdMemReq := n.Place("ldMemReq", 0)
		tLdMem := n.Immediate("T12_dmem", wf(1-app.LoadHit), 0)
		n.In(tLdMem, pLdIss, 1)
		n.Out(tLdMem, pLdMemReq, 1)
		n.Out(tLdMem, pLdOut, 1)
		bankPath("ld", pLdMemReq, pLdComplete, false)
	}

	// Load completion: if the CPU is stalled waiting for this load,
	// resume it (higher priority); otherwise just release the LSU.
	tComplStalled := n.Immediate("ldComplStalled", 1, 2)
	n.In(tComplStalled, pLdComplete, 1)
	n.In(tComplStalled, id.pStalled, 1)
	n.In(tComplStalled, pLdOut, 1)
	n.Out(tComplStalled, id.pLSU, 1)
	n.Out(tComplStalled, id.pRun, 1)

	tCompl := n.Immediate("ldCompl", 1, 1)
	n.In(tCompl, pLdComplete, 1)
	n.In(tCompl, pLdOut, 1)
	n.Out(tCompl, id.pLSU, 1)

	// T23: scoreboard stall. While a load is outstanding the CPU keeps
	// issuing until T23 fires (exponential, mean 1/rate instructions),
	// then stalls until the load completes. Without scoreboarding the
	// stall is immediate.
	if cfg.ScoreboardRate > 0 {
		tStall := n.Exponential("T23_stall", cfg.ScoreboardRate)
		n.In(tStall, id.pRun, 1)
		n.In(tStall, pLdOut, 1)
		n.Out(tStall, id.pStalled, 1)
		n.Out(tStall, pLdOut, 1)
	} else {
		tStall := n.Immediate("T23_stall_now", 1, 0)
		n.In(tStall, id.pRun, 1)
		n.In(tStall, pLdOut, 1)
		n.Out(tStall, id.pStalled, 1)
		n.Out(tStall, pLdOut, 1)
	}

	// ----- store path -----
	// The store buffer postpones stores (P9 never stalls the CPU), but
	// each store occupies the load/store unit until it drains.
	pStIss := n.Place("stIssued", 0)
	tStIssue := n.Immediate("stIssue", 1, 0)
	n.In(tStIssue, pStReq, 1)
	n.In(tStIssue, id.pLSU, 1)
	n.Out(tStIssue, pStIss, 1)

	pStFast := n.Place("stFast", 0)
	tStHit := n.Immediate("T13_shit", wf(app.StoreHit), 0)
	n.In(tStHit, pStIss, 1)
	n.Out(tStHit, pStFast, 1)
	tStFastDone := n.Timed("stHitDone", 1)
	n.In(tStFastDone, pStFast, 1)
	n.Out(tStFastDone, id.pLSU, 1)

	pStDone := n.Place("stDone", 0)
	tStDrain := n.Immediate("stDrain", 1, 0)
	n.In(tStDrain, pStDone, 1)
	n.Out(tStDrain, id.pLSU, 1)

	if cfg.HasL2 {
		pStL2Req := n.Place("stL2Req", 0)
		tStL2 := n.Immediate("T16_sl2", wf((1-app.StoreHit)*app.StoreL2Hit), 0)
		n.In(tStL2, pStIss, 1)
		n.Out(tStL2, pStL2Req, 1)
		l2Path("st", pStL2Req, pStDone)

		pStMemReq := n.Place("stMemReq", 0)
		tStMem := n.Immediate("T17_smem", wf((1-app.StoreHit)*(1-app.StoreL2Hit)), 0)
		n.In(tStMem, pStIss, 1)
		n.Out(tStMem, pStMemReq, 1)
		bankPath("st", pStMemReq, pStDone, true)
	} else {
		pStMemReq := n.Place("stMemReq", 0)
		tStMem := n.Immediate("T17_smem", wf(1-app.StoreHit), 0)
		n.In(tStMem, pStIss, 1)
		n.Out(tStMem, pStMemReq, 1)
		bankPath("st", pStMemReq, pStDone, false)
	}

	return n, id
}

// Result is one Monte-Carlo evaluation of a model.
type Result struct {
	// MemCPI is the memory-system CPI component: cycles per instruction
	// beyond the single issue cycle.
	MemCPI float64
	// TotalCPI = BaseCPI + MemCPI (the paper's Table 3 decomposition:
	// BaseCPI already contains the 1.0 issue cycle).
	TotalCPI float64
	// BankUtilization is the mean busy fraction across banks.
	BankUtilization float64
	// StallFrac is the fraction of time the CPU was scoreboard-stalled.
	StallFrac float64
	// LSUBusyFrac is the fraction of time the load/store unit was busy.
	LSUBusyFrac float64
	// Instructions actually simulated.
	Instructions int64
}

// Run evaluates the model for the given number of instructions.
func (m *Model) Run(instructions int64, seed int64) (Result, error) {
	if instructions < 1 {
		return Result{}, fmt.Errorf("cpumodel: need a positive instruction count")
	}
	sim := gspn.NewSim(m.net, seed)
	if err := sim.RunUntilFirings(m.ids.tIssue, instructions); err != nil {
		return Result{}, fmt.Errorf("cpumodel: %s/%s: %w", m.Cfg.Name, m.App.Name, err)
	}
	cycles := sim.Now()
	netCPI := cycles / float64(instructions)
	var freeSum float64
	for _, p := range m.ids.pBankFree {
		freeSum += sim.TimeAvgTokens(p)
	}
	return Result{
		MemCPI:          netCPI - 1,
		TotalCPI:        m.App.BaseCPI + netCPI - 1,
		BankUtilization: 1 - freeSum/float64(len(m.ids.pBankFree)),
		StallFrac:       sim.TimeAvgTokens(m.ids.pStalled),
		LSUBusyFrac:     1 - sim.TimeAvgTokens(m.ids.pLSU),
		Instructions:    instructions,
	}, nil
}

// Evaluate is the one-call helper: build and run.
func Evaluate(cfg SystemConfig, app AppRates, instructions, seed int64) (Result, error) {
	m, err := Build(cfg, app)
	if err != nil {
		return Result{}, err
	}
	return m.Run(instructions, seed)
}

// NetShape describes the built GSPN's structure, for the Figure 9/10
// structural report and for tests that pin the model topology.
type NetShape struct {
	Places        int
	Immediate     int
	Deterministic int
	Exponential   int
	Banks         int
	HasL2         bool
}

// Shape returns the model's net structure.
func (m *Model) Shape() NetShape {
	sh := NetShape{Places: m.net.NumPlaces(), Banks: m.banks, HasL2: m.Cfg.HasL2}
	for i := 0; i < m.net.NumTrans(); i++ {
		switch m.net.TransKind(gspn.TransID(i)) {
		case gspn.Immediate:
			sh.Immediate++
		case gspn.Deterministic:
			sh.Deterministic++
		case gspn.Exponential:
			sh.Exponential++
		}
	}
	return sh
}

// AnalyticMemCPI returns a closed-form first-order approximation of
// the memory CPI component, ignoring bank contention and scoreboard
// overlap:
//
//	CPI_mem ≈ missI·Tmem' + fL·missL·Tload' + (store drain stalls ≈ 0)
//
// where Tmem' folds the conditional L2 hit when present. It exists to
// cross-validate the GSPN (see TestAnalyticAgreesWithGSPN): the Monte-
// Carlo result must land near this value whenever contention is light,
// and above it when contention matters.
func AnalyticMemCPI(cfg SystemConfig, app AppRates) float64 {
	memI := cfg.MemCycles
	memD := cfg.MemCycles
	if cfg.HasL2 {
		memI = app.IL2Hit*cfg.L2Cycles + (1-app.IL2Hit)*(cfg.L2Cycles+cfg.MemCycles)
		memD = app.LoadL2Hit*cfg.L2Cycles + (1-app.LoadL2Hit)*(cfg.L2Cycles+cfg.MemCycles)
	}
	overlap := 0.0
	if cfg.ScoreboardRate > 0 {
		overlap = 1 / cfg.ScoreboardRate // instructions issued under the miss
	}
	loadStall := memD - overlap
	if loadStall < 0 {
		loadStall = 0
	}
	return (1-app.IHit)*memI + app.LoadFrac*(1-app.LoadHit)*loadStall
}

// Ensemble is a multi-seed Monte-Carlo evaluation: the mean memory CPI
// with a ~95% confidence half-width, so "differences below the error
// limits of the simulation" (Section 5.6) is a measurable statement.
type Ensemble struct {
	MemCPI   stats.Running
	TotalCPI stats.Running
	BankUtil stats.Running
}

// EvaluateN runs the model across `seeds` independent seeds.
func EvaluateN(cfg SystemConfig, app AppRates, instructions int64, seeds int) (*Ensemble, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("cpumodel: need at least one seed")
	}
	m, err := Build(cfg, app)
	if err != nil {
		return nil, err
	}
	e := &Ensemble{}
	for s := 0; s < seeds; s++ {
		r, err := m.Run(instructions, int64(s+1))
		if err != nil {
			return nil, err
		}
		e.MemCPI.Add(r.MemCPI)
		e.TotalCPI.Add(r.TotalCPI)
		e.BankUtil.Add(r.BankUtilization)
	}
	return e, nil
}

// WithinNoise reports whether two ensembles' memory CPIs are
// statistically indistinguishable at their combined 95% intervals.
func WithinNoise(a, b *Ensemble) bool {
	diff := a.MemCPI.Mean() - b.MemCPI.Mean()
	if diff < 0 {
		diff = -diff
	}
	return diff <= a.MemCPI.CI95()+b.MemCPI.CI95()
}
