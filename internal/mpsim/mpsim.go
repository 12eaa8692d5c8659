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
// Run is one driver loop. A body posts each operation into its
// processor's preallocated queue, so the hot path is allocation-free.
// serve is the one routine that applies the operation that ends a
// queue, which under Run is every operation (access latency, lock
// acquire, handoff and release, barrier arrival and release), and
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
// Run-ahead: under Run a body's queue holds one operation, so it
// yields at every access. Under RunAhead it holds a run of them: a
// body queues each access with its compute gap and goes on, and it
// yields only at its next lock, unlock, barrier or end, or when the
// queue is full. Serving a queued access with more queued behind it
// puts the next one in service at time + latency + gap and sifts the
// processor down from the heap's top in place, without resuming the
// body; the driver resumes the body once the operation that closed
// the queue has been served. Every processor's next unserved operation
// is in the heap whenever the driver picks one, in both modes, so the
// memory model sees the same calls in the same (time, id) order.
//
// Concurrency invariant: exactly one body or the driver runs at a
// time. A body runs only between its grant and its next yield, the
// driver resumes granted bodies one after another, and a body serves
// itself only while it is the one body the driver resumed. Workload
// code may therefore update shared host-side data (matrices, particle
// arrays) without locking. Under Run, where a body posts one operation
// at a time, all host-side updates are totally ordered by the service
// order. Under RunAhead a body's host code between two
// synchronisations runs before its queued accesses are served, ahead
// of other processors' operations that sort earlier: its host writes
// there must be its own, and what it posts there must not depend on
// data another processor writes between the same synchronisations.
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

// Proc is a simulated processor handle passed to workload bodies.
// Its methods must be called only from the body itself, never from a
// goroutine the body starts: a call may suspend the body's coroutine.
type Proc struct {
	ID int
	N  int // total processors

	sim     *sim
	pending uint64    // accumulated compute cycles not yet posted
	queue   []request // its length is the queue size
	posted  int       // queue[:posted] holds the operations posted since the body last went on
	head    int       // queue[head] is the operation in service

	yield  func(struct{}) bool     // suspends the body until the driver grants it
	resume func() (struct{}, bool) // runs the body until it yields or ends
	stop   func()                  // unwinds the body if it is suspended
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

// request is one posted operation. Each processor's queue is its own
// region of one slice allocated per run: the body fills it while
// posting, and the driver reads it when it serves the operation — so
// no request is ever copied or heap-allocated per operation.
type request struct {
	kind   opKind
	write  bool
	addr   uint64
	lockID int
	gap    uint64 // compute cycles between the previous operation and this one
}

// op queues one operation. An access goes on queueing while the queue
// has room; anything else closes the queue and hands it to the driver.
func (p *Proc) op(kind opKind, addr uint64, write bool, lockID int) {
	p.post(kind, addr, write, lockID)
	if kind == opAccess && p.posted < len(p.queue) {
		return
	}
	s := p.sim
	pid := int32(p.ID)
	if s.alone {
		// While this body's operation sorts first, the driver would pop
		// it next: serve it here.
		for s.queuedBehind(pid) && s.first(pid) {
			s.serveQueued(pid)
		}
		if s.first(pid) {
			s.serve(pid)
			if len(s.ready) == 1 { // granted this body alone
				s.ready = s.ready[:0]
				s.selfServes++
				p.posted, p.head = 0, 0
				return
			}
			p.wait()
			return
		}
	}
	s.push(pid)
	p.wait()
}

// wait suspends the body until the driver resumes it, which happens
// only once its queue has been served.
func (p *Proc) wait() {
	if !p.yield(struct{}{}) {
		panic(errStopped)
	}
	p.posted, p.head = 0, 0
}

// post writes one operation into p's queue. The first operation of a
// queue is in service at once, so the compute cycles before it go
// straight onto p's clock; a later one keeps them as its gap until
// serveQueued puts it in service.
func (p *Proc) post(kind opKind, addr uint64, write bool, lockID int) {
	if p.posted == 0 {
		p.sim.time[p.ID] += p.pending
	}
	// Field by field: a five-field composite literal is built on the
	// stack and copied with wide loads that stall on its narrow stores.
	r := &p.queue[p.posted]
	r.kind, r.write, r.addr, r.lockID, r.gap = kind, write, addr, lockID, p.pending
	p.posted++
	p.pending = 0
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
// themselves, resumed by the driver, or not stopped at all because
// more of their queue was waiting) and how deep the admission heap
// got. It is bookkeeping about the simulator, not the simulated
// machine. Every field is exact, as deterministic as the rest of
// Result: each access, lock operation and barrier arrival ends in
// exactly one self-serve, one grant or one queued serve.
type CoordStats struct {
	SelfServes   int64 // operations a body served itself and ran on from
	Grants       int64 // bodies the driver resumed after serve released them
	Queued       int64 // accesses served with more of the body's queue behind them
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
	reg.Counter("mpsim", "queued_serves").Add(c.Queued)
	reg.Gauge("mpsim", "heap_depth_max").SetMax(int64(c.MaxHeapDepth))
}

// sim is the driver's state. Only one body or the driver runs at a
// time, so it needs no lock.
type sim struct {
	mem   Memory
	costs SyncCosts

	procs []Proc
	time  []uint64
	heap  []int32 // min-heap of posted procs keyed by (time, proc id)
	ready []int32 // procs serve granted, resumed before the driver pops again
	alone bool    // the driver resumed one body, which may serve itself
	ahead bool    // queues hold more than one operation (RunAhead)
	alive int     // procs that have not finished

	locks []lockState // keyed by lock id
	bar   barrierState

	accesses int64
	lockOps  int64
	barriers int64

	// Coordinator accounting (see CoordStats).
	selfServes int64
	grants     int64
	queued     int64
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

// aheadQueue is the number of operations a RunAhead body queues before
// it yields even without reaching a synchronisation.
const aheadQueue = 256

// Run executes body on n simulated processors over the memory model,
// one posted operation at a time. It returns when every body has
// finished. A panic out of a body, a deadlock or a lock misuse is
// re-raised to the caller after every other body has been stopped.
func Run(n int, mem Memory, costs SyncCosts, body func(p *Proc)) Result {
	return drive(n, mem, costs, body, 1)
}

// RunAhead is Run for bodies that run ahead to their next
// synchronisation, queueing their accesses (see the package doc). It
// serves the same accesses in the same order as Run, provided that
// what a body posts between two synchronisations depends on no host
// data another processor writes in between.
func RunAhead(n int, mem Memory, costs SyncCosts, body func(p *Proc)) Result {
	return drive(n, mem, costs, body, aheadQueue)
}

// drive is the one driver loop behind Run and RunAhead; queue is the
// number of operations each body may post before it yields.
func drive(n int, mem Memory, costs SyncCosts, body func(p *Proc), queue int) Result {
	if n < 1 {
		panic("mpsim: need at least one processor")
	}
	s := &sim{
		mem:   mem,
		costs: costs,
		procs: make([]Proc, n),
		time:  make([]uint64, n),
		heap:  make([]int32, 0, n),
		ready: make([]int32, 0, n),
		bar:   barrierState{waiting: make([]int32, 0, n)},
		ahead: queue > 1,
		alive: n,
	}
	queues := make([]request, n*queue)
	for i := range s.procs {
		p := &s.procs[i]
		*p = Proc{ID: i, N: n, sim: s, queue: queues[i*queue : (i+1)*queue]}
		p.resume, p.stop = iter.Pull(p.coroutine(body))
	}
	// Stopping a finished coroutine is a no-op. After a panic it unwinds
	// every body still suspended, so none outlives Run.
	defer func() {
		for i := range s.procs {
			s.procs[i].stop()
		}
	}()

	// Every body runs to its first yield; a sole processor runs alone.
	s.alone = n == 1
	for i := range s.procs {
		s.procs[i].resume()
	}
	run := make([]int32, 0, n)
	for s.alive > 0 {
		if len(s.ready) == 0 {
			if len(s.heap) == 0 {
				// Everyone alive is blocked: this is a workload deadlock
				// (e.g. a barrier not joined by all procs). Fail loudly.
				panic("mpsim: deadlock — all processors blocked")
			}
			if top := s.heap[0]; s.queuedBehind(top) {
				s.serveQueued(top)
				s.down(0) // the top's clock advanced: restore heap order in place
				continue
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
			s.procs[pid].resume()
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
			Queued:       s.queued,
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

// coroutine is p's body as a sequence for iter.Pull: it yields while it
// waits for its queue to be served, and its final done-post returns
// without yielding.
func (p *Proc) coroutine(body func(*Proc)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != errStopped {
				panic(r)
			}
		}()
		p.yield = yield
		body(p)
		p.post(opDone, 0, false, 0)
		p.sim.push(int32(p.ID))
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
	s.heap = h[:last]
	s.down(0)
	return top
}

// down sifts the proc at heap index i down to its place.
func (s *sim) down(i int) {
	h := s.heap
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(h) && s.less(h[l], h[least]) {
			least = l
		}
		if r < len(h) && s.less(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// grant releases the proc to run its body until its next yield.
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

// queuedBehind reports whether more of pid's queue waits behind its
// operation in service. Only an access can be followed in a queue, and
// nothing can in a queue of one.
func (s *sim) queuedBehind(pid int32) bool {
	if !s.ahead {
		return false
	}
	p := &s.procs[pid]
	return p.head+1 < p.posted
}

// first reports whether pid's operation in service sorts before every
// posted one, so the driver would serve it next.
func (s *sim) first(pid int32) bool {
	return len(s.heap) == 0 || s.less(pid, s.heap[0])
}

// serveQueued serves pid's access in service, which has more of the
// queue behind it: it applies the access's latency and puts the next
// queued operation in service at time + latency + gap.
func (s *sim) serveQueued(pid int32) {
	p := &s.procs[pid]
	r := &p.queue[p.head]
	p.head++
	s.time[pid] += s.mem.AccessAt(int(pid), r.addr, r.write, s.time[pid]) + p.queue[p.head].gap
	s.accesses++
	s.queued++
}

// serve applies pid's operation in service, the last of its queue, and
// grants every body it releases. It is the only code that applies a
// lock, unlock, barrier or end: the driver calls it on the heap's
// minimum, and a body the driver resumed alone calls it on itself when
// its operation sorts before the heap's top.
func (s *sim) serve(pid int32) {
	p := &s.procs[pid]
	r := &p.queue[p.head]
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
