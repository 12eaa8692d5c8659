package gspn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestTimedLoopThroughput: a single token cycling through a
// deterministic transition of delay d has throughput exactly 1/d.
func TestTimedLoopThroughput(t *testing.T) {
	n := NewNet()
	p := n.Place("p", 1)
	tr := n.Timed("t", 2.5)
	n.In(tr, p, 1)
	n.Out(tr, p, 1)

	s := NewSim(n, 1)
	if err := s.RunUntilFirings(tr, 1000); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Now(), 2500.0; got != want {
		t.Errorf("time after 1000 firings = %v, want %v", got, want)
	}
}

// TestImmediateWeights: a weighted immediate conflict splits tokens in
// proportion to transition weights.
func TestImmediateWeights(t *testing.T) {
	n := NewNet()
	src := n.Place("src", 0)
	a := n.Place("a", 0)
	b := n.Place("b", 0)
	feeder := n.Place("clockTok", 1)
	tick := n.Timed("tick", 1)
	n.In(tick, feeder, 1)
	n.Out(tick, feeder, 1)
	n.Out(tick, src, 1)

	ta := n.Immediate("ta", 3, 0)
	n.In(ta, src, 1)
	n.Out(ta, a, 1)
	tb := n.Immediate("tb", 1, 0)
	n.In(tb, src, 1)
	n.Out(tb, b, 1)

	s := NewSim(n, 42)
	const total = 20000
	if err := s.RunUntilFirings(tick, total); err != nil {
		t.Fatal(err)
	}
	fa := float64(s.firings[ta])
	frac := fa / float64(s.firings[ta]+s.firings[tb])
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("weighted split fraction = %v, want 0.75 ± 0.02", frac)
	}
}

// TestImmediatePriority: a higher-priority immediate transition always
// wins a conflict regardless of weight.
func TestImmediatePriority(t *testing.T) {
	n := NewNet()
	src := n.Place("src", 5)
	hi := n.Place("hi", 0)
	lo := n.Place("lo", 0)
	thi := n.Immediate("thi", 0.001, 5)
	n.In(thi, src, 1)
	n.Out(thi, hi, 1)
	tlo := n.Immediate("tlo", 1000, 1)
	n.In(tlo, src, 1)
	n.Out(tlo, lo, 1)
	// A timed transition keeps Step from declaring deadlock after the
	// immediates settle.
	idle := n.Place("idle", 1)
	tt := n.Timed("tt", 1)
	n.In(tt, idle, 1)
	n.Out(tt, idle, 1)

	s := NewSim(n, 7)
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if got := s.marking[hi]; got != 5 {
		t.Errorf("high-priority transition fired %d times, want 5", got)
	}
	if got := s.marking[lo]; got != 0 {
		t.Errorf("low-priority transition fired %d times, want 0", got)
	}
}

// TestExponentialMean: mean inter-firing time of an exponential
// transition approaches 1/rate.
func TestExponentialMean(t *testing.T) {
	n := NewNet()
	p := n.Place("p", 1)
	tr := n.Exponential("t", 4)
	n.In(tr, p, 1)
	n.Out(tr, p, 1)

	s := NewSim(n, 99)
	const fires = 50000
	if err := s.RunUntilFirings(tr, fires); err != nil {
		t.Fatal(err)
	}
	mean := s.Now() / fires
	if math.Abs(mean-0.25) > 0.01 {
		t.Errorf("mean delay = %v, want 0.25 ± 0.01", mean)
	}
}

// TestMM1QueueLength: exponential arrivals (λ) to a single exponential
// server (μ) form an M/M/1 queue; mean number in system is ρ/(1-ρ).
func TestMM1QueueLength(t *testing.T) {
	const lambda, mu = 1.0, 2.0
	n := NewNet()
	arrTok := n.Place("arrTok", 1)
	queue := n.Place("queue", 0)
	arrive := n.Exponential("arrive", lambda)
	n.In(arrive, arrTok, 1)
	n.Out(arrive, arrTok, 1)
	n.Out(arrive, queue, 1)
	serve := n.Exponential("serve", mu)
	n.In(serve, queue, 1)

	s := NewSim(n, 12345)
	if err := runUntilTime(s, 200000); err != nil {
		t.Fatal(err)
	}
	// In this net "queue" counts jobs in system (the job in service
	// keeps its token until service completes).
	want := (lambda / mu) / (1 - lambda/mu) // = 1.0
	got := s.TimeAvgTokens(queue)
	if math.Abs(got-want) > 0.08 {
		t.Errorf("M/M/1 mean jobs in system = %v, want %v ± 0.08", got, want)
	}
}

// TestInhibitorArc: a transition with an inhibitor arc never fires
// while the inhibiting place is marked.
func TestInhibitorArc(t *testing.T) {
	n := NewNet()
	blocker := n.Place("blocker", 1)
	p := n.Place("p", 1)
	out := n.Place("out", 0)
	tr := n.Timed("t", 1)
	n.In(tr, p, 1)
	n.Out(tr, out, 1)
	n.Inhibit(tr, blocker, 1)
	// A second transition drains the blocker at t=5.
	drain := n.Timed("drain", 5)
	n.In(drain, blocker, 1)

	s := NewSim(n, 3)
	if err := s.Step(); err != nil { // must be the drain at t=5
		t.Fatal(err)
	}
	if s.Now() != 5 {
		t.Fatalf("first event at t=%v, want 5 (inhibited transition fired early)", s.Now())
	}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if s.marking[out] != 1 || s.Now() != 6 {
		t.Errorf("after unblocking: out=%d at t=%v, want 1 at t=6", s.marking[out], s.Now())
	}
}

// TestDeadlock: a net with no enabled transitions reports ErrDeadlock.
func TestDeadlock(t *testing.T) {
	n := NewNet()
	p := n.Place("p", 0)
	tr := n.Timed("t", 1)
	n.In(tr, p, 1)
	s := NewSim(n, 1)
	if err := s.Step(); !errors.Is(err, ErrDeadlock) {
		t.Errorf("Step() = %v, want ErrDeadlock", err)
	}
}

// TestLivelock: two immediate transitions feeding each other loop
// forever; the simulator must detect it rather than hang.
func TestLivelock(t *testing.T) {
	n := NewNet()
	a := n.Place("a", 1)
	b := n.Place("b", 0)
	t1 := n.Immediate("t1", 1, 0)
	n.In(t1, a, 1)
	n.Out(t1, b, 1)
	t2 := n.Immediate("t2", 1, 0)
	n.In(t2, b, 1)
	n.Out(t2, a, 1)
	s := NewSim(n, 1)
	if err := s.Step(); !errors.Is(err, ErrLivelock) {
		t.Errorf("Step() = %v, want ErrLivelock", err)
	}
}

// TestArcMultiplicity: a transition requiring 3 tokens fires only when
// all three are present and consumes all of them.
func TestArcMultiplicity(t *testing.T) {
	n := NewNet()
	src := n.Place("src", 0)
	dst := n.Place("dst", 0)
	feederTok := n.Place("ft", 1)
	feed := n.Timed("feed", 1)
	n.In(feed, feederTok, 1)
	n.Out(feed, feederTok, 1)
	n.Out(feed, src, 1)

	gather := n.Immediate("gather", 1, 0)
	n.In(gather, src, 3)
	n.Out(gather, dst, 1)

	s := NewSim(n, 1)
	if err := s.RunUntilFirings(feed, 7); err != nil {
		t.Fatal(err)
	}
	if got := s.marking[dst]; got != 2 {
		t.Errorf("dst = %d after 7 feeds, want 2", got)
	}
	if got := s.marking[src]; got != 1 {
		t.Errorf("src leftover = %d after 7 feeds, want 1", got)
	}
}

// TestDeterministicReproducibility: same seed, same trajectory.
func TestDeterministicReproducibility(t *testing.T) {
	build := func() (*Net, TransID) {
		n := NewNet()
		p := n.Place("p", 1)
		q := n.Place("q", 0)
		t1 := n.Exponential("t1", 1)
		n.In(t1, p, 1)
		n.Out(t1, q, 1)
		t2 := n.Exponential("t2", 2)
		n.In(t2, q, 1)
		n.Out(t2, p, 1)
		return n, t1
	}
	n1, tr1 := build()
	n2, tr2 := build()
	s1 := NewSim(n1, 777)
	s2 := NewSim(n2, 777)
	if err := s1.RunUntilFirings(tr1, 1000); err != nil {
		t.Fatal(err)
	}
	if err := s2.RunUntilFirings(tr2, 1000); err != nil {
		t.Fatal(err)
	}
	if s1.Now() != s2.Now() {
		t.Errorf("same seed diverged: %v vs %v", s1.Now(), s2.Now())
	}
}

// runUntilTime steps s until its clock reaches at least t.
func runUntilTime(s *Sim, t float64) error {
	for s.now < t {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// TestTimeAvgTokens: a place holding k tokens forever averages k.
func TestTimeAvgTokens(t *testing.T) {
	n := NewNet()
	constP := n.Place("const", 3)
	p := n.Place("p", 1)
	tr := n.Timed("t", 1)
	n.In(tr, p, 1)
	n.Out(tr, p, 1)
	s := NewSim(n, 1)
	if err := runUntilTime(s, 100); err != nil {
		t.Fatal(err)
	}
	if got := s.TimeAvgTokens(constP); got != 3 {
		t.Errorf("TimeAvgTokens(const) = %v, want 3", got)
	}
}

func TestNamesAndCounts(t *testing.T) {
	n := NewNet()
	p := n.Place("myplace", 1)
	tr := n.Timed("mytrans", 2)
	n.In(tr, p, 1)
	n.Out(tr, p, 1)
	if n.places[p].name != "myplace" || n.trans[tr].name != "mytrans" {
		t.Error("names lost")
	}
	if n.NumPlaces() != 1 || n.NumTrans() != 1 {
		t.Error("counts wrong")
	}
	if n.TransKind(tr) != Deterministic {
		t.Error("kind wrong")
	}
	if Immediate.String() != "immediate" || Exponential.String() != "exponential" ||
		Kind(9).String() != "unknown" {
		t.Error("kind strings")
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := []func(){
		func() { NewNet().Place("p", -1) },
		func() { NewNet().Immediate("t", 0, 0) },
		func() { NewNet().Timed("t", 0) },
		func() { NewNet().Exponential("t", -1) },
		func() {
			n := NewNet()
			p := n.Place("p", 0)
			n.In(TransID(5), p, 1)
		},
		func() {
			n := NewNet()
			tr := n.Timed("t", 1)
			n.In(tr, PlaceID(9), 1)
		},
		func() {
			n := NewNet()
			p := n.Place("p", 0)
			tr := n.Timed("t", 1)
			n.In(tr, p, 0)
		},
		func() { NewNet().Immediate("t", math.NaN(), 0) },
		func() { NewNet().Timed("t", math.NaN()) },
		func() { NewNet().Exponential("t", math.NaN()) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}

	// Once a Sim shares the net's derived adjacency, every builder call
	// must panic instead of leaving it stale: a late place with an Out
	// arc, for one, would index past the adjacency on the next Step.
	n := buildMixedNet()
	p, tr := PlaceID(0), TransID(0)
	NewSim(n, 1)
	late := map[string]func(){
		"Place":       func() { n.Place("late", 0) },
		"Immediate":   func() { n.Immediate("late", 1, 0) },
		"Timed":       func() { n.Timed("late", 1) },
		"Exponential": func() { n.Exponential("late", 1) },
		"In":          func() { n.In(tr, p, 1) },
		"Out":         func() { n.Out(tr, p, 1) },
		"Inhibit":     func() { n.Inhibit(tr, p, 1) },
	}
	for name, f := range late {
		func() {
			defer func() {
				if r := recover(); r != "gspn: net modified after NewSim" {
					t.Errorf("%s after NewSim: recovered %v, want the sealed-net panic", name, r)
				}
			}()
			f()
		}()
	}
	if n.NumPlaces() != 5 || n.NumTrans() != 7 {
		t.Errorf("sealed net grew to %d places, %d transitions", n.NumPlaces(), n.NumTrans())
	}
}

// buildMixedNet is a synthetic net exercising everything the
// incremental reschedule must handle: an exponential source transition
// with no input arcs (in no dependency list — only the fired-transition
// rule reschedules it), deterministic servers, an inhibitor arc,
// weighted immediate conflicts, and a higher-priority immediate class.
func buildMixedNet() *Net {
	n := NewNet()
	q := n.Place("q", 1)
	done := n.Place("done", 0)
	a := n.Place("a", 0)
	bp := n.Place("b", 0)
	maint := n.Place("maint", 0)

	src := n.Exponential("src", 1.0) // source: no inputs at all
	n.Out(src, q, 1)

	srv := n.Timed("srv", 0.8)
	n.In(srv, q, 1)
	n.Out(srv, done, 1)
	n.Inhibit(srv, maint, 2)

	ta := n.Immediate("ta", 3, 0)
	n.In(ta, done, 1)
	n.Out(ta, a, 1)
	tb := n.Immediate("tb", 1, 0)
	n.In(tb, done, 1)
	n.Out(tb, bp, 1)

	tc := n.Immediate("tc", 1, 1) // higher priority: pairs of b -> maint
	n.In(tc, bp, 2)
	n.Out(tc, maint, 1)

	mend := n.Exponential("mend", 0.5)
	n.In(mend, maint, 1)
	n.Out(mend, a, 1)

	drain := n.Timed("drain", 2.0)
	n.In(drain, a, 3)
	return n
}

// buildBankNet is a test-local net shaped like internal/cpumodel's
// Figure 9 bank model under its Figure 10 processor. Instruction
// fetches, loads and stores each pick one of the banks by a weighted
// immediate conflict, queue for it, are served for a fixed access time
// and then precharge it. Every bank shares the same delays, so the timed
// heap sees ties at most events. Load completion adds two priority
// classes above the base one, a store may not issue while the processor
// is stalled (an inhibitor arc), and in the l2 variant every bank access
// holds one shared port place. At 64 banks the net has about 780
// transitions, so the enabled sets span many bitset words.
func buildBankNet(banks int, l2 bool) *Net {
	n := NewNet()
	ps := func(p ...PlaceID) []PlaceID { return p }
	// wire gives tr unit-multiplicity input and output arcs.
	wire := func(tr TransID, in, out []PlaceID) TransID {
		for _, p := range in {
			n.In(tr, p, 1)
		}
		for _, p := range out {
			n.Out(tr, p, 1)
		}
		return tr
	}
	fetch, instr, decide := n.Place("fetch", 1), n.Place("instr", 0), n.Place("decide", 0)
	run, lsu, stalled := n.Place("run", 1), n.Place("lsu", 1), n.Place("stalled", 0)
	ldOut, ldDone, stDone := n.Place("ldOut", 0), n.Place("ldDone", 0), n.Place("stDone", 0)
	var port []PlaceID
	if l2 {
		port = ps(n.Place("port", 1))
	}
	free := make([]PlaceID, banks)
	for b := range free {
		free[b] = n.Place(fmt.Sprintf("free%d", b), 1)
	}
	bankPath := func(tag string, req, done PlaceID) {
		for b := 0; b < banks; b++ {
			name := func(what string) string { return fmt.Sprintf("%s%s%d", tag, what, b) }
			q, svc, pre := n.Place(name("Q"), 0), n.Place(name("Svc"), 0), n.Place(name("Pre"), 0)
			wire(n.Immediate(name("Sel"), float64(1+b%3), 0), ps(req), ps(q))
			wire(n.Immediate(name("Start"), 1, 0), append(ps(q, free[b]), port...), ps(svc))
			wire(n.Timed(name("Acc"), 6), ps(svc), append(ps(done, pre), port...))
			wire(n.Timed(name("PreT"), 4), ps(pre), ps(free[b]))
		}
	}

	iReq := n.Place("iReq", 0)
	wire(n.Immediate("ihit", 0.9, 0), ps(fetch), ps(instr))
	wire(n.Immediate("imiss", 0.1, 0), ps(fetch), ps(iReq))
	bankPath("i", iReq, instr)
	wire(n.Timed("issue", 1), ps(instr, run), ps(decide, run))

	ldReq, stReq := n.Place("ldReq", 0), n.Place("stReq", 0)
	wire(n.Immediate("other", 0.6, 0), ps(decide), ps(fetch))
	wire(n.Immediate("load", 0.25, 0), ps(decide), ps(fetch, ldReq))
	wire(n.Immediate("store", 0.15, 0), ps(decide), ps(fetch, stReq))

	ldIss, ldFast, ldMem := n.Place("ldIss", 0), n.Place("ldFast", 0), n.Place("ldMem", 0)
	wire(n.Immediate("ldIssue", 1, 0), ps(ldReq, lsu), ps(ldIss))
	wire(n.Immediate("ldHit", 0.7, 0), ps(ldIss), ps(ldFast))
	wire(n.Timed("ldHitDone", 1), ps(ldFast), ps(lsu))
	wire(n.Immediate("ldMiss", 0.3, 0), ps(ldIss), ps(ldMem, ldOut))
	bankPath("ld", ldMem, ldDone)
	wire(n.Immediate("ldComplStalled", 1, 2), ps(ldDone, stalled, ldOut), ps(lsu, run))
	wire(n.Immediate("ldCompl", 1, 1), ps(ldDone, ldOut), ps(lsu))
	wire(n.Exponential("stall", 0.5), ps(run, ldOut), ps(stalled, ldOut))

	stIss, stFast, stMem := n.Place("stIss", 0), n.Place("stFast", 0), n.Place("stMem", 0)
	stIssue := wire(n.Immediate("stIssue", 1, 0), ps(stReq, lsu), ps(stIss))
	n.Inhibit(stIssue, stalled, 1)
	wire(n.Immediate("stHit", 0.8, 0), ps(stIss), ps(stFast))
	wire(n.Timed("stHitDone", 1), ps(stFast), ps(lsu))
	wire(n.Immediate("stMiss", 0.2, 0), ps(stIss), ps(stMem))
	bankPath("st", stMem, stDone)
	wire(n.Immediate("stDrain", 1, 0), ps(stDone), ps(lsu))
	return n
}

// refSim is the reference simulator Sim is pinned against. It holds the
// pre-incremental algorithms verbatim, over the same *Net: settling
// scans every transition for the highest enabled class, every firing is
// followed by a full reschedule of all timed transitions, the next event
// is the first strict minimum of a linear scan over sched, and accrual
// visits every place.
type refSim struct {
	net     *Net
	rng     *rand.Rand
	marking []int
	sched   []float64
	now     float64
	firings []int64
	tokTime []float64
	lastT   float64
}

func newRefSim(n *Net, seed int64) *refSim {
	s := &refSim{
		net:     n,
		rng:     rand.New(rand.NewSource(seed)),
		marking: make([]int, len(n.places)),
		sched:   make([]float64, len(n.trans)),
		firings: make([]int64, len(n.trans)),
		tokTime: make([]float64, len(n.places)),
	}
	for i, p := range n.places {
		s.marking[i] = p.initial
	}
	for i := range s.sched {
		s.sched[i] = math.Inf(1)
	}
	s.reschedule()
	return s
}

func (s *refSim) TimeAvgTokens(p PlaceID) float64 {
	if s.now == 0 {
		return float64(s.marking[p])
	}
	return s.tokTime[p] / s.now
}

func (s *refSim) enabled(t TransID) bool {
	tr := &s.net.trans[t]
	for _, a := range tr.in {
		if s.marking[a.place] < a.mult {
			return false
		}
	}
	for _, a := range tr.inhibit {
		if s.marking[a.place] >= a.mult {
			return false
		}
	}
	return true
}

func (s *refSim) fire(t TransID) {
	tr := &s.net.trans[t]
	for _, a := range tr.in {
		s.marking[a.place] -= a.mult
	}
	for _, a := range tr.out {
		s.marking[a.place] += a.mult
	}
	s.firings[t]++
}

func (s *refSim) reschedule() {
	for i := range s.net.trans {
		tr := &s.net.trans[i]
		if tr.kind == Immediate {
			continue
		}
		en := s.enabled(TransID(i))
		switch {
		case en && math.IsInf(s.sched[i], 1):
			s.sched[i] = s.now + s.sample(tr)
		case !en && !math.IsInf(s.sched[i], 1):
			s.sched[i] = math.Inf(1)
		}
	}
}

func (s *refSim) sample(tr *transition) float64 {
	if tr.kind == Deterministic {
		return tr.delay
	}
	return s.rng.ExpFloat64() / tr.rate
}

func (s *refSim) settleImmediates() error {
	for iter := 0; ; iter++ {
		if iter >= maxImmediateChain {
			return ErrLivelock
		}
		bestPrio := math.MinInt64
		var totalW float64
		for i := range s.net.trans {
			tr := &s.net.trans[i]
			if tr.kind != Immediate || !s.enabled(TransID(i)) {
				continue
			}
			if tr.priority > bestPrio {
				bestPrio = tr.priority
				totalW = 0
			}
			if tr.priority == bestPrio {
				totalW += tr.weight
			}
		}
		if totalW == 0 {
			return nil
		}
		pick := s.rng.Float64() * totalW
		for i := range s.net.trans {
			tr := &s.net.trans[i]
			if tr.kind != Immediate || tr.priority != bestPrio || !s.enabled(TransID(i)) {
				continue
			}
			pick -= tr.weight
			if pick <= 0 {
				s.fire(TransID(i))
				break
			}
		}
		s.reschedule()
	}
}

func (s *refSim) accrue(t float64) {
	dt := t - s.lastT
	if dt <= 0 {
		return
	}
	for i, m := range s.marking {
		s.tokTime[i] += float64(m) * dt
	}
	s.lastT = t
}

func (s *refSim) Step() error {
	if err := s.settleImmediates(); err != nil {
		return err
	}
	best := -1
	bestT := math.Inf(1)
	for i, at := range s.sched {
		if at < bestT {
			bestT = at
			best = i
		}
	}
	if best < 0 {
		return ErrDeadlock
	}
	s.accrue(bestT)
	s.now = bestT
	s.sched[best] = math.Inf(1)
	s.fire(TransID(best))
	s.reschedule()
	return s.settleImmediates()
}

// requireSameState fails unless sim and ref agree exactly on the clock,
// every firing count, every marking and every place's time-averaged
// token count. step is -1 before the first Step.
func requireSameState(t testing.TB, seed int64, step int, sim *Sim, ref *refSim) {
	t.Helper()
	n := sim.net
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("seed %d step %d: %s = %v, reference %v", seed, step, what, got, want)
	}
	if sim.Now() != ref.now {
		fail("clock", sim.Now(), ref.now)
	}
	for i := range ref.firings {
		if got, want := sim.firings[i], ref.firings[i]; got != want {
			fail("firings of "+n.trans[i].name, got, want)
		}
	}
	for i := range ref.marking {
		p := PlaceID(i)
		if got, want := sim.marking[p], ref.marking[i]; got != want {
			fail("marking of "+n.places[p].name, got, want)
		}
		if got, want := sim.TimeAvgTokens(p), ref.TimeAvgTokens(p); got != want {
			fail("TimeAvgTokens of "+n.places[p].name, got, want)
		}
	}
}

// lockstep runs a Sim and a refSim of one net from one seed side by
// side for up to steps steps, requiring the same state after every step
// and the same error, if any, at the same step.
func lockstep(t testing.TB, n *Net, seed int64, steps int) {
	t.Helper()
	sim, ref := NewSim(n, seed), newRefSim(n, seed)
	requireSameState(t, seed, -1, sim, ref)
	for step := 0; step < steps; step++ {
		errSim, errRef := sim.Step(), ref.Step()
		if errSim != errRef {
			t.Fatalf("seed %d step %d: Step error %v, reference %v", seed, step, errSim, errRef)
		}
		requireSameState(t, seed, step, sim, ref)
		if errSim != nil {
			return
		}
	}
}

// TestRescheduleEquivalence pins Sim against the reference simulator:
// for a fixed seed both must produce identical clocks, firing counts,
// markings and token-time integrals at every step, so the immediate
// picks and the exponential samples consume the shared RNG stream in
// exactly the same order. The bank nets exercise model scale: timed
// ties at every event, three priority classes, a shared port place, and
// enabled sets spanning several bitset words at 64 banks.
func TestRescheduleEquivalence(t *testing.T) {
	nets := []struct {
		name string
		net  *Net
	}{{"mixed", buildMixedNet()}}
	for _, banks := range []int{2, 16, 64} {
		for _, l2 := range []bool{false, true} {
			nets = append(nets, struct {
				name string
				net  *Net
			}{fmt.Sprintf("banks%d-l2=%v", banks, l2), buildBankNet(banks, l2)})
		}
	}
	for _, c := range nets {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				lockstep(t, c.net, seed, 5000)
			}
		})
	}
}

// fuzzNet decodes data into a small net: up to 6 places with initial
// markings and up to 8 transitions, each immediate (weight and one of
// three priorities), deterministic (delay 1 or 2, so the timed heap
// sees ties) or exponential, with up to 4 input, output or inhibitor
// arcs of multiplicity 1-3. The byte after the net is the seed; missing
// bytes read as zero.
func fuzzNet(data []byte) (*Net, int64) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := NewNet()
	np := 1 + next()%6
	for i := 0; i < np; i++ {
		n.Place(fmt.Sprintf("p%d", i), next()%4)
	}
	nt := 1 + next()%8
	for i := 0; i < nt; i++ {
		name := fmt.Sprintf("t%d", i)
		var tr TransID
		switch next() % 3 {
		case 0:
			tr = n.Immediate(name, float64(1+next()%4)/2, next()%3)
		case 1:
			tr = n.Timed(name, float64(1+next()%2))
		default:
			tr = n.Exponential(name, float64(1+next()%4)/2)
		}
		for k := next() % 5; k > 0; k-- {
			kind, p, mult := next()%3, PlaceID(next()%np), 1+next()%3
			switch kind {
			case 0:
				n.In(tr, p, mult)
			case 1:
				n.Out(tr, p, mult)
			default:
				n.Inhibit(tr, p, mult)
			}
		}
	}
	return n, int64(next())
}

// simSeeds are FuzzSimEquivalence's corpus seeds, in fuzzNet's
// encoding. TestSealTables also checks their nets' tables.
var simSeeds = [][]byte{
	{},
	// A timed loop feeding a weighted immediate conflict, one side
	// inhibited by its own output, drained by a second timed transition.
	{3, 1, 0, 0, 0, 3,
		1, 0, 3, 0, 0, 0, 1, 0, 0, 1, 1, 0,
		0, 2, 0, 3, 0, 1, 0, 1, 2, 0, 2, 2, 2,
		0, 0, 0, 2, 0, 1, 0, 1, 3, 0,
		1, 1, 1, 0, 2, 1,
		7},
	// Two equal-delay servers racing for one queue (heap ties), an
	// exponential source and a drain consuming two tokens at once.
	{1, 2, 0, 3,
		1, 1, 2, 0, 0, 0, 1, 1, 0,
		1, 1, 2, 0, 0, 0, 1, 1, 0,
		2, 1, 1, 1, 0, 0,
		1, 0, 1, 0, 1, 1,
		3},
	// Three priority classes competing for tokens a timed loop supplies.
	{4, 3, 0, 0, 0, 1, 3,
		0, 0, 0, 2, 0, 0, 0, 1, 1, 0,
		0, 1, 1, 3, 0, 0, 0, 1, 2, 0, 2, 2, 1,
		0, 3, 2, 3, 0, 0, 0, 1, 3, 0, 2, 3, 0,
		1, 0, 3, 0, 4, 0, 1, 4, 0, 1, 0, 0,
		5},
	// The cpumodel issue loop: a timed issue takes and returns the run
	// token (an input and an output arc on one place), and both an
	// exponential stall and a priority-1 immediate (by an inhibitor arc)
	// read that place, so one firing reaches each of them twice.
	// Places run=1, instr=1, decide, ldOut, stalled. Transitions: issue
	// (timed), other and load (immediate), stall (exponential), drain
	// (immediate, inhibited by run), resume and ldDone (timed).
	{4, 1, 1, 0, 0, 0,
		6,
		1, 0, 4, 0, 1, 0, 0, 0, 0, 1, 2, 0, 1, 0, 0,
		0, 2, 0, 2, 0, 2, 0, 1, 1, 0,
		0, 0, 0, 3, 0, 2, 0, 1, 1, 0, 1, 3, 0,
		2, 1, 4, 0, 0, 0, 0, 3, 0, 1, 4, 0, 1, 3, 0,
		0, 1, 1, 2, 0, 3, 0, 2, 0, 0,
		1, 1, 2, 0, 4, 0, 1, 0, 0,
		1, 1, 1, 0, 3, 0,
		9},
}

// FuzzSimEquivalence runs Sim and the reference simulator in lockstep
// over random small nets: any divergence in state or in ErrDeadlock /
// ErrLivelock is a bug in the incremental event loop.
func FuzzSimEquivalence(f *testing.F) {
	for _, seed := range simSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, seed := fuzzNet(data)
		lockstep(t, n, seed, 200)
	})
}

// TestSealTables derives the sealed lists again by brute force from the
// arcs. Each place's immediate list must hold exactly the immediates
// with an input or inhibitor arc on it, once each. Each transition's
// timed list must hold exactly the timed transitions with such an arc
// on a place the transition has an input or output arc on, plus itself
// when timed, strictly ascending: the order the RNG-stream equivalence
// needs.
func TestSealTables(t *testing.T) {
	nets := map[string]*Net{"mixed": buildMixedNet()}
	for _, banks := range []int{2, 16, 64} {
		for _, l2 := range []bool{false, true} {
			nets[fmt.Sprintf("banks%d-l2=%v", banks, l2)] = buildBankNet(banks, l2)
		}
	}
	for i, data := range simSeeds {
		nets[fmt.Sprintf("fuzz-seed%d", i)], _ = fuzzNet(data)
	}
	reads := func(u *transition, p PlaceID) bool {
		for _, a := range append(slices.Clone(u.in), u.inhibit...) {
			if a.place == p {
				return true
			}
		}
		return false
	}
	for name, n := range nets {
		t.Run(name, func(t *testing.T) {
			NewSim(n, 1)
			for p := range n.places {
				var want []TransID
				for ui := range n.trans {
					if u := &n.trans[ui]; u.kind == Immediate && reads(u, PlaceID(p)) {
						want = append(want, TransID(ui))
					}
				}
				got := slices.Clone(n.immDep(PlaceID(p)))
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("place %s: immediate readers %v, want %v", n.places[p].name, got, want)
				}
			}
			for ti := range n.trans {
				tr := &n.trans[ti]
				touched := append(slices.Clone(tr.in), tr.out...)
				var want []TransID
				for ui := range n.trans {
					u := &n.trans[ui]
					if u.kind == Immediate {
						continue
					}
					hit := ui == ti
					for _, a := range touched {
						hit = hit || reads(u, a.place)
					}
					if hit {
						want = append(want, TransID(ui))
					}
				}
				timed := n.timedAffected(TransID(ti))
				for i := 1; i < len(timed); i++ {
					if timed[i] <= timed[i-1] {
						t.Fatalf("%s: timed list %v not strictly ascending", n.trans[ti].name, timed)
					}
				}
				if !slices.Equal(timed, want) {
					t.Fatalf("%s: timed list %v, want %v", n.trans[ti].name, timed, want)
				}
			}
		})
	}
}

// TestSealTablesLinear: the sealed lists of a bank net grow in step with
// its bank count. Every selector of a bank path takes its token from one
// shared request place, so lists that copied each touched place's
// readers into every transition would grow with the square of the bank
// count instead.
func TestSealTablesLinear(t *testing.T) {
	for _, l2 := range []bool{false, true} {
		n := buildBankNet(1024, l2)
		NewSim(n, 1)
		arcs := 0
		for _, tr := range n.trans {
			arcs += len(tr.in) + len(tr.out) + len(tr.inhibit)
		}
		if len(n.adj) > arcs {
			t.Errorf("l2=%v: %d transitions with %d arcs seal into %d list entries, want at most one per arc",
				l2, len(n.trans), arcs, len(n.adj))
		}
	}
}

// TestStepZeroAllocs: after warm-up, a Step of a 64-bank net allocates
// nothing — every per-Sim buffer is sized in NewSim, which costs the
// same few allocations whatever the net size.
func TestStepZeroAllocs(t *testing.T) {
	newSimAllocs := func(n *Net) float64 {
		NewSim(n, 1) // seal outside the measurement
		return testing.AllocsPerRun(10, func() { NewSim(n, 1) })
	}
	small, large := newSimAllocs(buildBankNet(2, true)), newSimAllocs(buildBankNet(64, true))
	if small != large || large > 8 {
		t.Errorf("NewSim allocates %v times at 2 banks, %v at 64, want the same, at most 8", small, large)
	}

	s := NewSim(buildBankNet(64, true), 1)
	for i := 0; i < 1000; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	allocs := testing.AllocsPerRun(5000, func() {
		if err == nil {
			err = s.Step()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("Step allocates %.2f times per call, want 0", allocs)
	}
}

// TestSharedNetConcurrentSims: one Net backing many Sims is the
// documented usage; the lazily built adjacency must be race-free.
func TestSharedNetConcurrentSims(t *testing.T) {
	n := buildMixedNet()
	results := make([]float64, 8)
	donech := make(chan struct{})
	for i := range results {
		go func(i int) {
			defer func() { donech <- struct{}{} }()
			s := NewSim(n, 7)
			for step := 0; step < 500; step++ {
				if err := s.Step(); err != nil {
					t.Errorf("sim %d: %v", i, err)
					return
				}
			}
			results[i] = s.Now()
		}(i)
	}
	for range results {
		<-donech
	}
	for i, r := range results {
		if r != results[0] {
			t.Errorf("sim %d diverged: clock %v != %v", i, r, results[0])
		}
	}
}

// BenchmarkSimStep measures the per-event cost of the simulator loop.
func BenchmarkSimStep(b *testing.B) { benchSteps(b, buildMixedNet()) }

// BenchmarkSimStepBanks is BenchmarkSimStep on a 16-bank net shaped
// like the cpumodel nets: most events fire a handful of immediates and
// revisit transitions of both kinds.
func BenchmarkSimStepBanks(b *testing.B) { benchSteps(b, buildBankNet(16, false)) }

// benchSteps times b.N Steps of one Sim of n and reports its firings,
// timed and immediate, per second.
func benchSteps(b *testing.B, n *Net) {
	s := NewSim(n, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	var fired int64
	for _, f := range s.firings {
		fired += f
	}
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds()/1e6, "Mfiring/s")
}

// BenchmarkSimStepFullRescan is the same loop on the reference
// simulator, so the incremental win is visible in one bench diff.
func BenchmarkSimStepFullRescan(b *testing.B) {
	s := newRefSim(buildMixedNet(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
