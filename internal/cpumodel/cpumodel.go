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
	Cfg SystemConfig
	App AppRates
	net *gspn.Net
	ids ids
}

// ids collects the node handles needed for observation.
type ids struct {
	tIssue    gspn.TransID
	pBankFree []gspn.PlaceID
}

// Build constructs the GSPN for the configuration and application.
func Build(cfg SystemConfig, app AppRates) (*Model, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if cfg.Banks < 1 {
		return nil, fmt.Errorf("cpumodel: config %s: need at least one bank", cfg.Name)
	}
	m := &Model{Cfg: cfg, App: app}
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
	pRun := n.Place("run", 1)           // absent while the CPU is stalled
	pLSU := n.Place("lsuFree", 1)       // P10: one outstanding mem op
	pLdOut := n.Place("loadOutstanding", 0)
	pStalled := n.Place("stalled", 0)
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

	// bankPath wires "req place -> banks -> done place". kindTag
	// distinguishes instruction/load/store plumbing. With an L2 the
	// access also holds the shared port.
	bankPath := func(kindTag string, pReq, pDone gspn.PlaceID) {
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
			if cfg.HasL2 {
				n.In(tStart, pL2Port, 1)
			}
			n.Out(tStart, pSvc, 1)

			tAcc := n.Timed(fmt.Sprintf("%sAcc%d", kindTag, b), cfg.MemCycles)
			n.In(tAcc, pSvc, 1)
			n.Out(tAcc, pDone, 1)
			n.Out(tAcc, pPre, 1)
			if cfg.HasL2 {
				n.Out(tAcc, pL2Port, 1)
			}

			tPre := n.Timed(fmt.Sprintf("%sPre%dT", kindTag, b), cfg.PrechargeCycles)
			n.In(tPre, pPre, 1)
			n.Out(tPre, id.pBankFree[b], 1)
		}
	}

	// missPath wires one reference kind's first-level misses from pIss
	// to pDone. With an L2, the l2T transition takes the conditional L2
	// hits through the shared port; the memT transition sends the rest
	// to the banks. Each of the two also puts a token in every place of
	// also. reqTag names the request places, kindTag the L2 and bank
	// plumbing.
	missPath := func(reqTag, kindTag, l2T, memT string, pIss, pDone gspn.PlaceID, hit, l2Hit float64, also ...gspn.PlaceID) {
		route := func(name string, weight float64, pReq gspn.PlaceID) {
			t := n.Immediate(name, wf(weight), 0)
			n.In(t, pIss, 1)
			n.Out(t, pReq, 1)
			for _, p := range also {
				n.Out(t, p, 1)
			}
		}
		toMem := 1 - hit
		if cfg.HasL2 {
			pL2Req := n.Place(reqTag+"L2Req", 0)
			route(l2T, toMem*l2Hit, pL2Req)
			pSvc := n.Place(kindTag+"L2Svc", 0)
			tStart := n.Immediate(kindTag+"L2Start", 1, 0)
			n.In(tStart, pL2Req, 1)
			n.In(tStart, pL2Port, 1)
			n.Out(tStart, pSvc, 1)
			tEnd := n.Timed(kindTag+"L2Acc", cfg.L2Cycles)
			n.In(tEnd, pSvc, 1)
			n.Out(tEnd, pDone, 1)
			n.Out(tEnd, pL2Port, 1)
			toMem *= 1 - l2Hit
		}
		pMemReq := n.Place(reqTag+"MemReq", 0)
		route(memT, toMem, pMemReq)
		bankPath(kindTag, pMemReq, pDone)
	}

	// ----- instruction fetch (top of Figure 10) -----
	// T2: first-level instruction cache hit.
	tIHit := n.Immediate("T2_ihit", wf(app.IHit), 0)
	n.In(tIHit, pFetchReq, 1)
	n.Out(tIHit, pInstr, 1)

	// T3: second-level hit; T4: fill from memory.
	missPath("i", "ifetch", "T3_il2", "T4_imem", pFetchReq, pInstr, app.IHit, app.IL2Hit)

	// ----- issue and classification -----
	// T1: one instruction issues per cycle while the CPU is running.
	id.tIssue = n.Timed("T1_issue", 1)
	n.In(id.tIssue, pInstr, 1)
	n.In(id.tIssue, pRun, 1)
	n.Out(id.tIssue, pDecide, 1)
	n.Out(id.tIssue, pRun, 1)

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
	n.In(tLdIssue, pLSU, 1)
	n.Out(tLdIssue, pLdIss, 1)

	// T14: data cache hit — completes in one cycle, LSU released, no
	// stall possible.
	pLdFast := n.Place("ldFast", 0)
	tLdHit := n.Immediate("T14_dhit", wf(app.LoadHit), 0)
	n.In(tLdHit, pLdIss, 1)
	n.Out(tLdHit, pLdFast, 1)
	tLdFastDone := n.Timed("ldHitDone", 1)
	n.In(tLdFastDone, pLdFast, 1)
	n.Out(tLdFastDone, pLSU, 1)

	// T15: SLC hit; T12: main memory reference. Either leaves the load
	// outstanding until it completes.
	missPath("ld", "ld", "T15_dl2", "T12_dmem", pLdIss, pLdComplete, app.LoadHit, app.LoadL2Hit, pLdOut)

	// Load completion: if the CPU is stalled waiting for this load,
	// resume it (higher priority); otherwise just release the LSU.
	tComplStalled := n.Immediate("ldComplStalled", 1, 2)
	n.In(tComplStalled, pLdComplete, 1)
	n.In(tComplStalled, pStalled, 1)
	n.In(tComplStalled, pLdOut, 1)
	n.Out(tComplStalled, pLSU, 1)
	n.Out(tComplStalled, pRun, 1)

	tCompl := n.Immediate("ldCompl", 1, 1)
	n.In(tCompl, pLdComplete, 1)
	n.In(tCompl, pLdOut, 1)
	n.Out(tCompl, pLSU, 1)

	// T23: scoreboard stall. While a load is outstanding the CPU keeps
	// issuing until T23 fires (exponential, mean 1/rate instructions),
	// then stalls until the load completes. Without scoreboarding the
	// stall is immediate.
	var tStall gspn.TransID
	if cfg.ScoreboardRate > 0 {
		tStall = n.Exponential("T23_stall", cfg.ScoreboardRate)
	} else {
		tStall = n.Immediate("T23_stall_now", 1, 0)
	}
	n.In(tStall, pRun, 1)
	n.In(tStall, pLdOut, 1)
	n.Out(tStall, pStalled, 1)
	n.Out(tStall, pLdOut, 1)

	// ----- store path -----
	// The store buffer postpones stores (P9 never stalls the CPU), but
	// each store occupies the load/store unit until it drains.
	pStIss := n.Place("stIssued", 0)
	tStIssue := n.Immediate("stIssue", 1, 0)
	n.In(tStIssue, pStReq, 1)
	n.In(tStIssue, pLSU, 1)
	n.Out(tStIssue, pStIss, 1)

	pStFast := n.Place("stFast", 0)
	tStHit := n.Immediate("T13_shit", wf(app.StoreHit), 0)
	n.In(tStHit, pStIss, 1)
	n.Out(tStHit, pStFast, 1)
	tStFastDone := n.Timed("stHitDone", 1)
	n.In(tStFastDone, pStFast, 1)
	n.Out(tStFastDone, pLSU, 1)

	pStDone := n.Place("stDone", 0)
	tStDrain := n.Immediate("stDrain", 1, 0)
	n.In(tStDrain, pStDone, 1)
	n.Out(tStDrain, pLSU, 1)

	// T16: SLC hit; T17: main memory reference.
	missPath("st", "st", "T16_sl2", "T17_smem", pStIss, pStDone, app.StoreHit, app.StoreL2Hit)

	return n, id
}

// Result is a Monte-Carlo evaluation of a model: each field's mean
// over the seeds, and the memory CPI's confidence interval.
type Result struct {
	// MemCPI is the memory-system CPI component: cycles per instruction
	// beyond the single issue cycle.
	MemCPI float64
	// TotalCPI = BaseCPI + MemCPI (the paper's Table 3 decomposition:
	// BaseCPI already contains the 1.0 issue cycle).
	TotalCPI float64
	// BankUtilization is the mean busy fraction across banks.
	BankUtilization float64
	// MemCPICI95 is the ~95% confidence half-width of MemCPI across the
	// seeds, so "differences below the error limits of the simulation"
	// (Section 5.6) is a measurable statement. It is 0 for one seed.
	MemCPICI95 float64
}

// run evaluates the model for one seed and the given number of
// instructions.
func (m *Model) run(instructions int64, seed int64) (Result, error) {
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
	}, nil
}

// Evaluate is the one way to run the GSPN: it builds the net once, runs
// it for the given number of instructions once per seed, and returns
// each field's mean over the seeds in seed order. One seed returns that
// run's values exactly, with MemCPICI95 = 0.
func Evaluate(cfg SystemConfig, app AppRates, instructions int64, seeds ...int64) (Result, error) {
	if len(seeds) == 0 {
		return Result{}, fmt.Errorf("cpumodel: need at least one seed")
	}
	m, err := Build(cfg, app)
	if err != nil {
		return Result{}, err
	}
	var mem, total, util stats.Running
	for _, seed := range seeds {
		r, err := m.run(instructions, seed)
		if err != nil {
			return Result{}, err
		}
		mem.Add(r.MemCPI)
		total.Add(r.TotalCPI)
		util.Add(r.BankUtilization)
	}
	return Result{
		MemCPI:          mem.Mean(),
		TotalCPI:        total.Mean(),
		BankUtilization: util.Mean(),
		MemCPICI95:      mem.CI95(),
	}, nil
}

// WithinNoise reports whether two results' memory CPIs are
// statistically indistinguishable at their combined 95% intervals.
func WithinNoise(a, b Result) bool {
	diff := a.MemCPI - b.MemCPI
	if diff < 0 {
		diff = -diff
	}
	return diff <= a.MemCPICI95+b.MemCPICI95
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
	sh := NetShape{Places: m.net.NumPlaces(), Banks: m.Cfg.Banks, HasL2: m.Cfg.HasL2}
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
