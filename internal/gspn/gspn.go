// Package gspn implements Generalized Stochastic Petri Nets evaluated by
// Monte-Carlo discrete-event simulation, the modelling formalism the
// paper uses for its CPI analysis (Section 5.5, citing Marsan & Conti).
//
// Supported net elements:
//
//   - places with integer markings,
//   - immediate transitions (zero delay) with firing weights and
//     priorities for conflict resolution,
//   - deterministically timed transitions (fixed delay, e.g. a DRAM
//     access taking exactly 6 cycles),
//   - exponentially timed transitions (rate λ, e.g. transition T23 of
//     Figure 10 modelling scoreboard stalls),
//   - input, output, and inhibitor arcs with multiplicities.
//
// Timed transitions follow race semantics with resampling ("race with
// restart"): a transition samples its firing time when it becomes
// enabled and abandons it if disabled before firing. The nets used by
// internal/cpumodel never disable an in-flight timed transition, so the
// choice of memory policy does not affect their results; it is
// documented here for completeness.
//
// Immediate transitions take priority over timed ones: whenever any
// immediate transition is enabled, the marking is vanishing and one
// enabled immediate transition (highest priority class first, then
// weighted-random within the class) fires without advancing time.
//
// The first NewSim seals the net and derives which transitions a firing
// can enable or disable: for every place, the immediates that read it,
// and for every transition, the timed transitions its firing must
// reschedule. A Step then costs what its firings touch, whatever the net
// size, and allocates nothing; for a fixed seed it fires, marks and
// integrates exactly as a full rescan of every transition after every
// firing would.
package gspn

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
)

// PlaceID identifies a place within its Net.
type PlaceID int

// TransID identifies a transition within its Net.
type TransID int

// Kind is the transition timing class.
type Kind uint8

// Transition kinds.
const (
	Immediate Kind = iota
	Deterministic
	Exponential
)

type arc struct {
	place PlaceID
	mult  int
}

type transition struct {
	kind     Kind
	class    int32   // Immediate: index of priority in Net.prios (set by seal)
	delay    float64 // Deterministic
	rate     float64 // Exponential
	weight   float64 // Immediate conflict resolution
	priority int     // Immediate: higher fires first
	in       []arc
	out      []arc
	inhibit  []arc
}

// Net is an immutable-after-build Petri net structure. Build the net
// with Place/Immediate/Timed/Exponential and the arc methods (a name
// labels only the builder's panic message), then create Sims from it;
// one Net can back many concurrent Sims. The first NewSim seals the
// net: any later builder call panics.
type Net struct {
	initial []int // initial marking, by place
	trans   []transition
	sealed  bool

	// The fields below are derived once, on the first NewSim, and are
	// read-only afterwards.
	sealOnce sync.Once
	// adj holds compressed lists, list i being adj[adjOff[i]:adjOff[i+1]]:
	// at list p, the immediate transitions whose enabling condition
	// reads place p (an input or inhibitor arc); at list NumPlaces()+t,
	// the timed transitions a firing of t must reschedule, ascending and
	// deduplicated. Immediates are listed per place, not per transition:
	// every bank selector of a cpumodel net reads one shared request
	// place, so per-transition immediate lists would grow with the
	// square of the bank count.
	adj    []TransID
	adjOff []int32
	// prios holds the distinct immediate priorities, highest first.
	prios []int
	// nTimed counts the timed transitions (the timed heap's capacity).
	nTimed int
}

// immDep lists the immediate transitions whose enabling reads place p.
func (n *Net) immDep(p PlaceID) []TransID {
	return n.adj[n.adjOff[p]:n.adjOff[p+1]]
}

// timedAffected lists the timed transitions a firing of t must
// reschedule, in ascending id order.
func (n *Net) timedAffected(t TransID) []TransID {
	i := len(n.initial) + int(t)
	return n.adj[n.adjOff[i]:n.adjOff[i+1]]
}

// seal freezes the net and derives the priority classes, the timed
// heap's size and the adjacency lists.
//
// A firing changes only the places on its own input and output arcs, so
// only transitions with an input or inhibitor arc on one of those places
// can change enabling. The immediates among them are found at firing
// time from the per-place lists; re-testing one twice changes nothing.
// The timed ones are merged here into one list per transition, t itself
// included when timed, since it must resample after firing even when it
// has no input arcs at all (a source transition reads no place). That
// list is ascending, which the reschedule relies on to sample newly
// enabled transitions in the same order as a full scan (RNG-stream
// equivalence).
func (n *Net) seal() {
	n.sealed = true
	np, nt := len(n.initial), len(n.trans)
	// Reader lists as compressed rows: list p holds the immediate
	// transitions that read place p, list np+p the timed ones. Count
	// each list's length, turn the counts into list ends, then place
	// each transition, moving its lists' ends down to their starts.
	list := func(tr *transition, p PlaceID) int {
		if tr.kind == Immediate {
			return int(p)
		}
		return np + int(p)
	}
	off := make([]int32, 2*np+1)
	var reads []PlaceID
	for ti := range n.trans {
		tr := &n.trans[ti]
		reads = tr.readPlaces(reads)
		for _, p := range reads {
			off[list(tr, p)]++
		}
		if tr.kind != Immediate {
			n.nTimed++
		} else if !slices.Contains(n.prios, tr.priority) {
			n.prios = append(n.prios, tr.priority)
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	readers := make([]TransID, off[2*np])
	for ti := range n.trans {
		tr := &n.trans[ti]
		reads = tr.readPlaces(reads)
		for _, p := range reads {
			i := list(tr, p)
			off[i]--
			readers[off[i]] = TransID(ti)
		}
	}

	slices.Sort(n.prios)
	slices.Reverse(n.prios)
	// The immediate reader lists carry over as they are; each
	// transition's timed list follows them.
	n.adj = slices.Clone(readers[:off[np]])
	n.adjOff = make([]int32, np+nt+1)
	copy(n.adjOff, off[:np+1])
	for ti := range n.trans {
		tr := &n.trans[ti]
		if tr.kind == Immediate {
			tr.class = int32(slices.Index(n.prios, tr.priority))
		}
		from := len(n.adj)
		if tr.kind != Immediate {
			n.adj = append(n.adj, TransID(ti))
		}
		for _, arcs := range [2][]arc{tr.in, tr.out} {
			for _, a := range arcs {
				n.adj = append(n.adj, readers[off[np+int(a.place)]:off[np+int(a.place)+1]]...)
			}
		}
		slices.Sort(n.adj[from:])
		n.adj = n.adj[:from+len(slices.Compact(n.adj[from:]))]
		n.adjOff[np+ti+1] = int32(len(n.adj))
	}
}

// readPlaces returns buf refilled with the distinct places tr's
// enabling condition reads (its input and inhibitor arcs), in arc order.
func (tr *transition) readPlaces(buf []PlaceID) []PlaceID {
	buf = buf[:0]
	for _, arcs := range [2][]arc{tr.in, tr.inhibit} {
		for _, a := range arcs {
			if !slices.Contains(buf, a.place) {
				buf = append(buf, a.place)
			}
		}
	}
	return buf
}

// NewNet returns an empty net.
func NewNet() *Net { return &Net{} }

// checkOpen panics once the net is sealed: Sims share the derived
// tables, which a later mutation would leave stale.
func (n *Net) checkOpen() {
	if n.sealed {
		panic("gspn: net modified after NewSim")
	}
}

// Place adds a place with an initial marking and returns its id.
func (n *Net) Place(name string, initial int) PlaceID {
	n.checkOpen()
	if initial < 0 {
		panic(fmt.Sprintf("gspn: place %s: negative initial marking", name))
	}
	n.initial = append(n.initial, initial)
	return PlaceID(len(n.initial) - 1)
}

// Immediate adds an immediate transition. Weight resolves conflicts
// among enabled immediate transitions of the same priority; priority
// classes fire strictly highest-first.
func (n *Net) Immediate(name string, weight float64, priority int) TransID {
	n.checkOpen()
	if !(weight > 0) {
		panic(fmt.Sprintf("gspn: transition %s: weight must be positive", name))
	}
	n.trans = append(n.trans, transition{
		kind: Immediate, weight: weight, priority: priority,
	})
	return TransID(len(n.trans) - 1)
}

// Timed adds a deterministically timed transition with a fixed delay.
func (n *Net) Timed(name string, delay float64) TransID {
	n.checkOpen()
	if !(delay > 0) {
		panic(fmt.Sprintf("gspn: transition %s: delay must be positive", name))
	}
	n.trans = append(n.trans, transition{kind: Deterministic, delay: delay})
	return TransID(len(n.trans) - 1)
}

// Exponential adds an exponentially timed transition with the given
// rate (mean delay 1/rate).
func (n *Net) Exponential(name string, rate float64) TransID {
	n.checkOpen()
	if !(rate > 0) {
		panic(fmt.Sprintf("gspn: transition %s: rate must be positive", name))
	}
	n.trans = append(n.trans, transition{kind: Exponential, rate: rate})
	return TransID(len(n.trans) - 1)
}

// In adds an input arc: firing t consumes mult tokens from p.
func (n *Net) In(t TransID, p PlaceID, mult int) {
	n.checkArc(t, p, mult)
	n.trans[t].in = append(n.trans[t].in, arc{p, mult})
}

// Out adds an output arc: firing t deposits mult tokens into p.
func (n *Net) Out(t TransID, p PlaceID, mult int) {
	n.checkArc(t, p, mult)
	n.trans[t].out = append(n.trans[t].out, arc{p, mult})
}

// Inhibit adds an inhibitor arc: t is disabled while p holds >= mult
// tokens.
func (n *Net) Inhibit(t TransID, p PlaceID, mult int) {
	n.checkArc(t, p, mult)
	n.trans[t].inhibit = append(n.trans[t].inhibit, arc{p, mult})
}

func (n *Net) checkArc(t TransID, p PlaceID, mult int) {
	n.checkOpen()
	if int(t) < 0 || int(t) >= len(n.trans) {
		panic("gspn: arc references unknown transition")
	}
	if int(p) < 0 || int(p) >= len(n.initial) {
		panic("gspn: arc references unknown place")
	}
	if mult < 1 {
		panic("gspn: arc multiplicity must be >= 1")
	}
}

// NumPlaces returns the number of places.
func (n *Net) NumPlaces() int { return len(n.initial) }

// NumTrans returns the number of transitions.
func (n *Net) NumTrans() int { return len(n.trans) }

// ErrLivelock is returned when immediate transitions fire more than the
// livelock bound without reaching a tangible marking — an immediate
// cycle in the net.
var ErrLivelock = errors.New("gspn: immediate-transition livelock")

// ErrDeadlock is returned by Step when no transition is enabled.
var ErrDeadlock = errors.New("gspn: deadlock (no enabled transitions)")

// maxImmediateChain bounds consecutive immediate firings per event.
const maxImmediateChain = 1 << 16

// Sim is one Monte-Carlo run of a Net. Every per-event cost is
// proportional to what the firing touched, not to the size of the net,
// and a Step allocates nothing.
type Sim struct {
	net     *Net
	rng     *rand.Rand
	marking []int
	sched   []float64 // absolute firing time per timed transition; +Inf = unscheduled
	now     float64

	firings []int64
	tokTime []float64 // ∫ marking dt per place
	lastT   float64

	// heap holds the scheduled timed transitions as a binary min-heap
	// ordered by (sched, id); heapPos[t] is t's index in it, or -1. The
	// order makes its minimum the first strict minimum of a linear scan
	// over sched: ties, common with deterministic delays, go to the
	// lowest id. It is hand-rolled because container/heap's any-typed
	// Push and Pop would allocate on every event.
	heap    []TransID
	heapPos []int
	// immSet holds one bitset over transition ids per immediate priority
	// class (Net.prios order, words uint64s apiece) marking the enabled
	// immediates; immCount[c] is the population of class c.
	immSet   []uint64
	immCount []int
	words    int
	// nonzero marks the places with a non-zero marking, the only ones
	// accrue visits.
	nonzero []uint64
}

// NewSim creates a simulation of the net with the given random seed.
func NewSim(n *Net, seed int64) *Sim {
	n.sealOnce.Do(n.seal)
	np, nt, nc := len(n.initial), len(n.trans), len(n.prios)
	words := (nt + 63) / 64
	// One backing array per element type, each at its final size.
	ints := make([]int, np+nt+nc)
	floats := make([]float64, np+nt)
	bitsets := make([]uint64, nc*words+(np+63)/64)
	s := &Sim{
		net:      n,
		rng:      rand.New(rand.NewSource(seed)),
		marking:  ints[:np:np],
		heapPos:  ints[np : np+nt : np+nt],
		immCount: ints[np+nt:],
		tokTime:  floats[:np:np],
		sched:    floats[np:],
		firings:  make([]int64, nt),
		immSet:   bitsets[: nc*words : nc*words],
		nonzero:  bitsets[nc*words:],
		words:    words,
		heap:     make([]TransID, 0, n.nTimed),
	}
	for i, m := range n.initial {
		s.marking[i] = m
		if m != 0 {
			s.nonzero[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	for t := range s.sched {
		s.sched[t] = math.Inf(1)
		s.heapPos[t] = -1
	}
	// Ascending id order: the initial samples draw from the RNG in the
	// same order as a full scan.
	for t := range n.trans {
		if tr := &n.trans[t]; tr.kind == Immediate {
			s.refreshImmediate(TransID(t), tr)
		} else {
			s.applySchedule(TransID(t), tr)
		}
	}
	return s
}

// Now returns the current simulation time.
func (s *Sim) Now() float64 { return s.now }

// TimeAvgTokens returns the time-averaged token count of a place.
func (s *Sim) TimeAvgTokens(p PlaceID) float64 {
	if s.now == 0 {
		return float64(s.marking[p])
	}
	return s.tokTime[p] / s.now
}

// enabled reports whether transition t may fire in the current marking.
func (s *Sim) enabled(t TransID) bool {
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

// fire consumes and produces tokens for transition t.
func (s *Sim) fire(t TransID) {
	tr := &s.net.trans[t]
	for _, a := range tr.in {
		s.addTokens(a.place, -a.mult)
	}
	for _, a := range tr.out {
		s.addTokens(a.place, a.mult)
	}
	s.firings[t]++
}

// addTokens changes p's marking by d and keeps p's non-zero bit current.
// Markings can go negative: enabled tests each input arc on its own, so
// two input arcs from one place consume more than either requires.
func (s *Sim) addTokens(p PlaceID, d int) {
	s.marking[p] += d
	w, bit := &s.nonzero[p>>6], uint64(1)<<(uint(p)&63)
	if s.marking[p] != 0 {
		*w |= bit
	} else {
		*w &^= bit
	}
}

// applySchedule is the per-transition reschedule step: sample when
// newly enabled, cancel when newly disabled.
func (s *Sim) applySchedule(t TransID, tr *transition) {
	en := s.enabled(t)
	switch {
	case en && math.IsInf(s.sched[t], 1):
		s.sched[t] = s.now + s.sample(tr)
		// A sample that overflows to +Inf can never be the earliest
		// event and is redrawn on the next visit, like an unscheduled
		// slot, so it stays off the heap.
		if !math.IsInf(s.sched[t], 1) {
			s.heapPush(t)
		}
	case !en && !math.IsInf(s.sched[t], 1):
		s.sched[t] = math.Inf(1)
		s.heapRemove(t)
	}
}

// refreshImmediate re-tests immediate transition t into its class set.
func (s *Sim) refreshImmediate(t TransID, tr *transition) {
	c := int(tr.class)
	w := &s.immSet[c*s.words+int(t)>>6]
	bit := uint64(1) << (uint(t) & 63)
	if en := s.enabled(t); en != (*w&bit != 0) {
		*w ^= bit
		if en {
			s.immCount[c]++
		} else {
			s.immCount[c]--
		}
	}
}

// rescheduleAffected brings the enabling state up to date after t
// fired. The immediates that read a place on t's arcs are re-tested into
// their class sets, and the timed transitions the net listed for t when
// it was sealed, t itself among them when timed, are rescheduled in
// ascending id order, so the exponential transitions that sample here
// consume the RNG stream in exactly the order a full rescan would:
// identical firings and markings for a fixed seed.
func (s *Sim) rescheduleAffected(t TransID) {
	n := s.net
	tr := &n.trans[t]
	for _, arcs := range [2][]arc{tr.in, tr.out} {
		for _, a := range arcs {
			for _, u := range n.immDep(a.place) {
				s.refreshImmediate(u, &n.trans[u])
			}
		}
	}
	for _, u := range n.timedAffected(t) {
		s.applySchedule(u, &n.trans[u])
	}
}

func (s *Sim) sample(tr *transition) float64 {
	if tr.kind == Deterministic {
		return tr.delay
	}
	return s.rng.ExpFloat64() / tr.rate
}

// settleImmediates fires enabled immediate transitions until none is
// enabled (reaching a tangible marking).
func (s *Sim) settleImmediates() error {
settle:
	for iter := 0; ; iter++ {
		if iter >= maxImmediateChain {
			return ErrLivelock
		}
		// The highest priority class with an enabled transition.
		c := 0
		for c < len(s.immCount) && s.immCount[c] == 0 {
			c++
		}
		if c == len(s.immCount) {
			return nil // tangible marking
		}
		// Weighted-random selection within the class. Both walks visit
		// the enabled transitions in ascending id order, as a full scan
		// does, so the weight sum, the draw and the pick are the same.
		set := s.immSet[c*s.words : (c+1)*s.words]
		var totalW float64
		for wi, w := range set {
			for ; w != 0; w &= w - 1 {
				totalW += s.net.trans[wi<<6|bits.TrailingZeros64(w)].weight
			}
		}
		pick := s.rng.Float64() * totalW
		for wi, w := range set {
			for ; w != 0; w &= w - 1 {
				t := TransID(wi<<6 | bits.TrailingZeros64(w))
				pick -= s.net.trans[t].weight
				if pick <= 0 {
					s.fire(t)
					s.rescheduleAffected(t)
					continue settle
				}
			}
		}
		// Rounding left pick above zero after the last weight: nothing
		// fires and the next iteration draws again.
	}
}

// accrue integrates token-time up to time t. A place without tokens
// would add 0·dt = +0 to its integral, which is never -0, so visiting
// only the marked places leaves every integral bit-identical.
func (s *Sim) accrue(t float64) {
	dt := t - s.lastT
	if dt <= 0 {
		return
	}
	for wi, w := range s.nonzero {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 | bits.TrailingZeros64(w)
			s.tokTime[i] += float64(s.marking[i]) * dt
		}
	}
	s.lastT = t
}

// Step advances the simulation by one tangible event: it settles
// immediate transitions, then fires the earliest scheduled timed
// transition. It returns ErrDeadlock when nothing can fire.
func (s *Sim) Step() error {
	if err := s.settleImmediates(); err != nil {
		return err
	}
	if len(s.heap) == 0 {
		return ErrDeadlock
	}
	best := s.heap[0]
	bestT := s.sched[best]
	s.accrue(bestT)
	s.now = bestT
	s.sched[best] = math.Inf(1)
	s.heapRemove(best)
	s.fire(best)
	s.rescheduleAffected(best)
	// Settle any immediates enabled by the firing so observers always
	// see tangible markings.
	return s.settleImmediates()
}

// heapLess orders timed transitions by (firing time, id).
func (s *Sim) heapLess(i, j int) bool {
	a, b := s.heap[i], s.heap[j]
	return s.sched[a] < s.sched[b] || (s.sched[a] == s.sched[b] && a < b)
}

func (s *Sim) heapSwap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heapPos[s.heap[i]] = i
	s.heapPos[s.heap[j]] = j
}

func (s *Sim) heapPush(t TransID) {
	s.heapPos[t] = len(s.heap)
	s.heap = append(s.heap, t)
	s.heapUp(len(s.heap) - 1)
}

// heapRemove takes t off the heap, moving the last entry into its slot.
func (s *Sim) heapRemove(t TransID) {
	i, last := s.heapPos[t], len(s.heap)-1
	if i != last {
		s.heapSwap(i, last)
	}
	s.heap = s.heap[:last]
	s.heapPos[t] = -1
	if i != last && !s.heapDown(i) {
		s.heapUp(i)
	}
}

func (s *Sim) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(i, p) {
			return
		}
		s.heapSwap(i, p)
		i = p
	}
}

// heapDown sifts entry i toward the leaves and reports whether it moved.
func (s *Sim) heapDown(i int) bool {
	start := i
	for {
		c := 2*i + 1
		if c >= len(s.heap) {
			break
		}
		if r := c + 1; r < len(s.heap) && s.heapLess(r, c) {
			c = r
		}
		if !s.heapLess(c, i) {
			break
		}
		s.heapSwap(i, c)
		i = c
	}
	return i > start
}

// RunUntilFirings advances the simulation until transition t has fired
// n times (or an error occurs). It is the usual way CPI runs terminate:
// "simulate until N instructions have issued".
func (s *Sim) RunUntilFirings(t TransID, n int64) error {
	for s.firings[t] < n {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// TransKind returns the transition's timing class.
func (n *Net) TransKind(t TransID) Kind { return n.trans[t].kind }
