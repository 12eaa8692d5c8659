//go:build go1.23

// iter.Pull needs Go 1.23, but go.mod stays at go 1.22: raising it alone
// makes `go -C bench build` fail with "go: updates to go.mod needed",
// because the benchmark module's go.mod must move with it. This
// constraint raises the language version of this file only, so go vet
// accepts iter.Pull; an older toolchain leaves the file out and the
// build fails.

// Package mpsim is an execution-driven multiprocessor simulator in the
// style of the CacheMire Test Bench used by the paper (Section 6.1):
// the parallel workloads really execute (as Go code, one coroutine per
// simulated processor), and every shared-memory reference is routed
// through an architecture timing model that delays the issuing
// processor by the appropriate latency.
//
// Timing model: each processor has a virtual clock. Memory operations
// are admitted in global virtual-time order (a conservative
// discrete-event scheme): no operation is serviced until every
// runnable processor has posted its next one, and the operation with
// the smallest timestamp (ties broken by processor id) goes first —
// which makes simulations deterministic. Locks and barriers are
// modelled in the same admission step with round-trip costs on the
// scale of the paper's remote operations.
//
// Admission structure: each body runs as an iter.Pull coroutine, and
// Run is one driver loop. A body posts an operation into its
// processor's preallocated slot, so the hot path is allocation-free.
// serve is the one routine that applies an operation (access latency,
// lock acquire, handoff and release, barrier arrival and release) and
// grants the bodies it releases. The driver resumes every granted body
// until the body posts its next operation, pops the earliest posted
// operation from a binary min-heap keyed by (virtual time, processor
// id), serves it, and repeats. A body the driver resumed alone, whose
// operation sorts before the heap's top, holds the operation the
// driver would pop next, so it calls serve on itself: it keeps running
// if that granted it alone, and yields otherwise, and the driver
// resumes everything serve granted before it pops again. Single-
// processor runs and serialised phases of multiprocessor runs thus
// switch only where a lock or barrier blocks or releases another body,
// and the service order is the one the heap alone would give.
//
// Concurrency invariant: exactly one body or the driver runs at a
// time. A body runs only between its grant and its next post, the
// driver resumes granted bodies one after another, and a body serves
// itself only while it is the one body the driver resumed. Workload
// code may therefore update shared host-side data (matrices, particle
// arrays) without locking; all updates are totally ordered by the
// service order.
package mpsim

import (
	"errors"
	"fmt"
	"iter"

	"repro/internal/obs"
)

// Memory is the architecture timing model (implemented by
// internal/coherence.Machine).
type Memory interface {
	// AccessAt services one reference issued at virtual time now, the
	// issuing processor's clock (models that track global time, such
	// as protocol-engine occupancy, need it), and returns its latency
	// in cycles.
	AccessAt(proc int, addr uint64, write bool, now uint64) uint64
}

// SyncCosts parameterises synchronisation latencies.
type SyncCosts struct {
	LockAcquire uint64 // uncontended lock acquire round trip
	LockHandoff uint64 // handoff to the next waiter
	Barrier     uint64 // barrier release after the last arrival
}

// DefaultSyncCosts uses the paper's remote round-trip scale (Table 6).
func DefaultSyncCosts() SyncCosts {
	return SyncCosts{LockAcquire: 80, LockHandoff: 80, Barrier: 80}
}

// Proc is a simulated processor handle passed to workload bodies.
// Its methods must be called only from the body itself, never from a
// goroutine the body starts: a call may suspend the body's coroutine.
type Proc struct {
	ID int
	N  int // total processors

	sim     *sim
	pending uint64              // accumulated compute cycles not yet posted
	yield   func(struct{}) bool // suspends the body until the driver grants it
}

// Read issues a shared-memory load.
func (p *Proc) Read(addr uint64) {
	p.op(opAccess, addr, false, 0)
}

// Write issues a shared-memory store.
func (p *Proc) Write(addr uint64) {
	p.op(opAccess, addr, true, 0)
}

// Compute advances the processor's clock by n cycles of local work.
// It is cheap (no synchronisation) — the time is folded into the next
// memory or synchronisation operation.
func (p *Proc) Compute(n uint64) { p.pending += n }

// Lock acquires the numbered lock (FIFO, with handoff latency).
// Lock ids must be small non-negative integers.
func (p *Proc) Lock(id int) { p.op(opLock, 0, false, id) }

// Unlock releases the numbered lock.
func (p *Proc) Unlock(id int) { p.op(opUnlock, 0, false, id) }

// Barrier joins the global barrier across all processors.
func (p *Proc) Barrier() { p.op(opBarrier, 0, false, 0) }

type opKind uint8

const (
	opAccess opKind = iota
	opLock
	opUnlock
	opBarrier
	opDone
)

// request is one posted operation. Each processor owns one slot in
// sim.slots for its lifetime: the body fills the slot while posting,
// and the driver reads it when it serves the operation — so no request
// is ever copied or heap-allocated per operation.
type request struct {
	kind   opKind
	write  bool
	addr   uint64
	lockID int
}

func (p *Proc) op(kind opKind, addr uint64, write bool, lockID int) {
	s := p.sim
	pid := p.post(kind, addr, write, lockID)
	if s.alone && (len(s.heap) == 0 || s.less(pid, s.heap[0])) {
		// The driver would pop this operation next: serve it here.
		s.serve(pid)
		if len(s.ready) == 1 { // granted this body alone
			s.ready = s.ready[:0]
			s.selfServes++
			return
		}
	} else {
		s.push(pid)
	}
	if !p.yield(struct{}{}) {
		panic(errStopped)
	}
}

// post fills the processor's slot and advances its clock by the
// compute cycles accumulated since its last operation.
func (p *Proc) post(kind opKind, addr uint64, write bool, lockID int) int32 {
	pid := int32(p.ID)
	p.sim.slots[pid] = request{kind: kind, write: write, addr: addr, lockID: lockID}
	p.sim.time[pid] += p.pending
	p.pending = 0
	return pid
}

// Result summarises one simulation run.
type Result struct {
	Procs      int
	Cycles     uint64   // completion time (max processor clock)
	ProcCycles []uint64 // per-processor finish times
	Accesses   int64
	LockOps    int64
	Barriers   int64
	Coord      CoordStats
}

// CoordStats is the admission machinery's own accounting: how bodies
// went on after their operations were served (running on after serving
// themselves, or resumed by the driver) and how deep the admission heap
// got. It is bookkeeping about the simulator, not the simulated machine.
// Every field is exact, as deterministic as the rest of Result: each
// access, lock operation and barrier arrival ends in exactly one
// self-serve or one grant.
type CoordStats struct {
	SelfServes   int64 // operations a body served itself and ran on from
	Grants       int64 // bodies the driver resumed after serve released them
	MaxHeapDepth int   // admission heap high-water mark
}

// Publish adds the coordinator accounting to reg's "mpsim" family
// (counters accumulate across runs; the heap depth is a high-water
// gauge). A nil registry is a no-op.
func (c CoordStats) Publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("mpsim", "self_serves").Add(c.SelfServes)
	reg.Counter("mpsim", "grants").Add(c.Grants)
	reg.Gauge("mpsim", "heap_depth_max").SetMax(int64(c.MaxHeapDepth))
}

// sim is the driver's state. Only one body or the driver runs at a
// time, so it needs no lock.
type sim struct {
	mem   Memory
	costs SyncCosts

	slots []request // per-proc posted-operation slots
	time  []uint64
	heap  []int32 // min-heap of posted procs keyed by (time, proc id)
	ready []int32 // procs serve granted, resumed before the driver pops again
	alone bool    // the driver resumed one body, which may serve itself
	alive int     // procs that have not finished

	locks []lockState // keyed by lock id
	bar   barrierState

	accesses int64
	lockOps  int64
	barriers int64

	// Coordinator accounting (see CoordStats).
	selfServes int64
	grants     int64
	maxHeap    int
}

type lockState struct {
	held     bool
	owner    int32
	lastFree uint64  // virtual time the lock was last released
	waiters  []int32 // FIFO of blocked proc ids
}

type barrierState struct {
	waiting []int32 // arrived (blocked) proc ids; len() is the arrival count
	maxTime uint64
}

// Run executes body on n simulated processors over the memory model.
// It returns when every body has finished. A panic out of a body, a
// deadlock or a lock misuse is re-raised to the caller after every
// other body has been stopped.
func Run(n int, mem Memory, costs SyncCosts, body func(p *Proc)) Result {
	if n < 1 {
		panic("mpsim: need at least one processor")
	}
	s := &sim{
		mem:   mem,
		costs: costs,
		slots: make([]request, n),
		time:  make([]uint64, n),
		heap:  make([]int32, 0, n),
		ready: make([]int32, 0, n),
		bar:   barrierState{waiting: make([]int32, 0, n)},
		alive: n,
	}
	next := make([]func() (struct{}, bool), n)
	stops := make([]func(), n)
	for i := range n {
		p := &Proc{ID: i, N: n, sim: s}
		next[i], stops[i] = iter.Pull(p.coroutine(body))
	}
	// Stopping a finished coroutine is a no-op. After a panic it unwinds
	// every body still suspended, so none outlives Run.
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()

	// Every body runs to its first post; a sole processor runs alone.
	s.alone = n == 1
	for _, resume := range next {
		resume()
	}
	run := make([]int32, 0, n)
	for s.alive > 0 {
		if len(s.ready) == 0 {
			if len(s.heap) == 0 {
				// Everyone alive is blocked: this is a workload deadlock
				// (e.g. a barrier not joined by all procs). Fail loudly.
				panic("mpsim: deadlock — all processors blocked")
			}
			s.serve(s.pop())
			continue
		}
		// A body resumed alone may serve itself and grant others into
		// the emptied ready list; the next pass resumes them.
		run, s.ready = s.ready, run[:0]
		s.alone = len(run) == 1
		s.grants += int64(len(run))
		for _, pid := range run {
			next[pid]()
		}
	}

	res := Result{
		Procs:      n,
		ProcCycles: s.time,
		Accesses:   s.accesses,
		LockOps:    s.lockOps,
		Barriers:   s.barriers,
		Coord: CoordStats{
			SelfServes:   s.selfServes,
			Grants:       s.grants,
			MaxHeapDepth: s.maxHeap,
		},
	}
	for _, t := range s.time {
		if t > res.Cycles {
			res.Cycles = t
		}
	}
	return res
}

// errStopped unwinds a suspended body whose coroutine Run stops on its
// way out of a panic; the body's own coroutine recovers it.
var errStopped = errors.New("mpsim: run stopped")

// coroutine is p's body as a sequence for iter.Pull: it yields at every
// post, and its final done-post returns without yielding.
func (p *Proc) coroutine(body func(*Proc)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != errStopped {
				panic(r)
			}
		}()
		p.yield = yield
		body(p)
		p.sim.push(p.post(opDone, 0, false, 0))
	}
}

// less orders posted procs by (virtual time, proc id) — the admission
// order the package doc promises.
func (s *sim) less(a, b int32) bool {
	ta, tb := s.time[a], s.time[b]
	return ta < tb || (ta == tb && a < b)
}

// push adds a posted proc to the admission heap. The backing array is
// preallocated to n, so steady-state pushes never allocate.
func (s *sim) push(pid int32) {
	h := append(s.heap, pid)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	s.heap = h
	if len(h) > s.maxHeap {
		s.maxHeap = len(h)
	}
}

// pop removes and returns the earliest posted proc.
func (s *sim) pop() int32 {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && s.less(h[l], h[min]) {
			min = l
		}
		if r < len(h) && s.less(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	s.heap = h
	return top
}

// grant releases the proc to run its body until its next post.
func (s *sim) grant(pid int32) {
	s.ready = append(s.ready, pid)
}

// lock returns the state for the lock id, growing the slot table on
// first use (lock ids are dense small integers in every workload).
func (s *sim) lock(id int) *lockState {
	if id < 0 {
		panic(fmt.Sprintf("mpsim: negative lock id %d", id))
	}
	for len(s.locks) <= id {
		s.locks = append(s.locks, lockState{})
	}
	return &s.locks[id]
}

// serve applies the operation in pid's slot and grants every body it
// releases. It is the only code that applies an operation: the driver
// calls it on the heap's minimum, and a body the driver resumed alone
// calls it on itself when its operation sorts before the heap's top.
func (s *sim) serve(pid int32) {
	r := &s.slots[pid]
	switch r.kind {
	case opAccess:
		s.time[pid] += s.mem.AccessAt(int(pid), r.addr, r.write, s.time[pid])
		s.accesses++
		s.grant(pid)

	case opLock:
		s.lockOps++
		l := s.lock(r.lockID)
		if !l.held {
			l.held = true
			l.owner = pid
			t := s.time[pid]
			if l.lastFree > t {
				t = l.lastFree
			}
			s.time[pid] = t + s.costs.LockAcquire
			s.grant(pid)
			return
		}
		// Block until handoff (no grant: the proc posts nothing more
		// until the lock holder releases it).
		l.waiters = append(l.waiters, pid)

	case opUnlock:
		s.lockOps++
		l := s.lock(r.lockID)
		if !l.held || l.owner != pid {
			panic(fmt.Sprintf("mpsim: proc %d unlocking lock %d it does not hold",
				pid, r.lockID))
		}
		now := s.time[pid]
		l.lastFree = now
		if len(l.waiters) > 0 {
			w := l.waiters[0]
			l.waiters = l.waiters[:copy(l.waiters, l.waiters[1:])]
			l.owner = w
			t := s.time[w]
			if now > t {
				t = now
			}
			s.time[w] = t + s.costs.LockHandoff
			s.grant(w)
			s.grant(pid)
			return
		}
		l.held = false
		s.grant(pid)

	case opBarrier:
		s.barriers++
		s.bar.waiting = append(s.bar.waiting, pid)
		if s.time[pid] > s.bar.maxTime {
			s.bar.maxTime = s.time[pid]
		}
		if len(s.bar.waiting) >= s.alive {
			s.releaseBarrier()
		}

	case opDone:
		s.alive--
		// A processor finishing can complete a barrier among the
		// remaining ones.
		if len(s.bar.waiting) > 0 && len(s.bar.waiting) >= s.alive {
			s.releaseBarrier()
		}
	}
}

// releaseBarrier releases all current barrier waiters at the barrier
// completion time.
func (s *sim) releaseBarrier() {
	release := s.bar.maxTime + s.costs.Barrier
	for _, w := range s.bar.waiting {
		s.time[w] = release
		s.grant(w)
	}
	s.bar.waiting = s.bar.waiting[:0]
	s.bar.maxTime = 0
}
