package mpsim

import (
	"errors"
	"runtime"
	"testing"
)

// DefaultSyncCosts uses the paper's remote round-trip scale (Table 6),
// the costs coherence.Latencies.SyncCosts derives for the paper's
// machine.
func DefaultSyncCosts() SyncCosts {
	return SyncCosts{LockAcquire: 80, LockHandoff: 80, Barrier: 80}
}

// flatMemory charges a fixed latency for every access.
type flatMemory struct {
	lat   uint64
	calls int64
}

func (m *flatMemory) AccessAt(proc int, addr uint64, write bool, now uint64) uint64 {
	m.calls++
	return m.lat
}

func TestSingleProcTiming(t *testing.T) {
	mem := &flatMemory{lat: 5}
	r := Run(1, mem, DefaultSyncCosts(), func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Read(uint64(i))
		}
		p.Compute(7)
		p.Write(0)
	})
	// 11 accesses × 5 cycles + 7 compute.
	if r.Cycles != 11*5+7 {
		t.Errorf("cycles = %d, want 62", r.Cycles)
	}
	if r.Accesses != 11 || mem.calls != 11 {
		t.Errorf("accesses = %d / %d", r.Accesses, mem.calls)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	body := func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Read(uint64(p.ID*1000 + i))
			p.Compute(uint64(p.ID + 1))
		}
		p.Barrier()
		for i := 0; i < 20; i++ {
			p.Write(uint64(i))
		}
	}
	run := func() uint64 {
		return Run(4, &flatMemory{lat: 3}, DefaultSyncCosts(), body).Cycles
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: cycles %d != %d (nondeterministic)", i, got, first)
		}
	}
}

func TestBarrierSynchronises(t *testing.T) {
	// Proc 0 does much more work before the barrier; everyone must
	// leave the barrier at (max arrival + barrier cost).
	costs := DefaultSyncCosts()
	r := Run(2, &flatMemory{lat: 10}, costs, func(p *Proc) {
		if p.ID == 0 {
			for i := 0; i < 100; i++ {
				p.Read(uint64(i))
			}
		} else {
			p.Read(0)
		}
		p.Barrier()
	})
	want := uint64(100*10) + costs.Barrier
	for pid, cy := range r.ProcCycles {
		if cy != want {
			t.Errorf("proc %d finished at %d, want %d", pid, cy, want)
		}
	}
	if r.Barriers != 2 {
		t.Errorf("barrier arrivals = %d, want 2", r.Barriers)
	}
}

func TestLockMutualExclusionAndHandoff(t *testing.T) {
	// Two procs increment a shared counter under a lock; the simulated
	// critical sections must serialise.
	costs := SyncCosts{LockAcquire: 10, LockHandoff: 10, Barrier: 10}
	counter := 0
	r := Run(2, &flatMemory{lat: 1}, costs, func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Lock(7)
			v := counter
			p.Read(0)
			p.Compute(3)
			counter = v + 1
			p.Write(0)
			p.Unlock(7)
		}
	})
	if counter != 10 {
		t.Errorf("counter = %d, want 10 (lost updates)", counter)
	}
	// Each critical section is >= acquire(10) + read(1) + compute(3) +
	// write(1) = 15 cycles and they serialise: total >= 10 × 15.
	if r.Cycles < 150 {
		t.Errorf("cycles = %d, want >= 150 (critical sections must serialise)", r.Cycles)
	}
}

func TestUnlockWithoutHoldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unlocking a lock not held")
		}
	}()
	Run(1, &flatMemory{lat: 1}, DefaultSyncCosts(), func(p *Proc) {
		p.Unlock(3)
	})
}

// TestRunPanicReleasesBodies: a body panic, a deadlock and an unlock
// of a lock not held each re-raise out of Run and RunAhead with their
// own value, and the run leaves no body behind — the goroutine count
// returns to its level before the run, so a caller that recovers does
// not leak the other processors.
func TestRunPanicReleasesBodies(t *testing.T) {
	const procs = 4
	boom := errors.New("body failed")
	cases := []struct {
		name string
		body func(p *Proc)
		want any
	}{
		{"body panic", func(p *Proc) {
			p.Read(uint64(p.ID))
			if p.ID == 2 {
				panic(boom)
			}
			p.Barrier()
		}, boom},
		{"deadlock", func(p *Proc) {
			p.Read(uint64(p.ID))
			p.Lock(0)
			p.Barrier() // the holder waits here, the others for the lock
		}, "mpsim: deadlock — all processors blocked"},
		{"unlock misuse", func(p *Proc) {
			p.Read(uint64(p.ID))
			if p.ID == 1 {
				p.Unlock(3)
			}
			p.Barrier()
		}, "mpsim: proc 1 unlocking lock 3 it does not hold"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range modes {
				before := runtime.NumGoroutine()
				got := func() (r any) {
					defer func() { r = recover() }()
					mode.run(procs, &flatMemory{lat: 1}, DefaultSyncCosts(), tc.body)
					return nil
				}()
				if got != tc.want {
					t.Fatalf("%s: run panicked with %v, want %v", mode.name, got, tc.want)
				}
				// A stopped coroutine's goroutine has exited by the time
				// the run returns, so any goroutine left over is a leaked
				// body.
				if after := runtime.NumGoroutine(); after > before {
					t.Errorf("%s: %d goroutines after the run, %d before: bodies leaked",
						mode.name, after, before)
				}
			}
		})
	}
}

func TestEarlyFinisherDoesNotBlockBarrier(t *testing.T) {
	// Proc 1 exits before the others' barrier; the barrier must
	// complete among the survivors.
	r := Run(3, &flatMemory{lat: 1}, DefaultSyncCosts(), func(p *Proc) {
		p.Read(0)
		if p.ID == 1 {
			return // finishes without joining the barrier
		}
		p.Barrier()
	})
	if r.Procs != 3 {
		t.Errorf("procs = %d", r.Procs)
	}
}

func TestComputeAccumulates(t *testing.T) {
	r := Run(1, &flatMemory{lat: 1}, DefaultSyncCosts(), func(p *Proc) {
		p.Compute(5)
		p.Compute(5)
		p.Read(0) // posts 10 accumulated compute cycles + 1 access
	})
	if r.Cycles != 11 {
		t.Errorf("cycles = %d, want 11", r.Cycles)
	}
}

func TestMinTimeOrdering(t *testing.T) {
	// Proc 1 computes a lot first; proc 0's accesses must be admitted
	// first (smaller virtual times). Observable via a shared counter
	// written in admission order by the memory model.
	var order []int
	mem := orderMemory{order: &order}
	Run(2, mem, DefaultSyncCosts(), func(p *Proc) {
		if p.ID == 1 {
			p.Compute(1000)
		}
		for i := 0; i < 3; i++ {
			p.Read(uint64(i))
		}
	})
	want := []int{0, 0, 0, 1, 1, 1}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("admission order = %v, want %v", order, want)
		}
	}
}

type orderMemory struct{ order *[]int }

func (m orderMemory) AccessAt(proc int, addr uint64, write bool, now uint64) uint64 {
	*m.order = append(*m.order, proc)
	return 1
}

// TestSplashStyleImbalanceLow: barrier-synchronised SPMD bodies finish
// together, so every processor's clock equals the run's completion
// time.
func TestSplashStyleImbalanceLow(t *testing.T) {
	r := Run(4, &flatMemory{lat: 2}, DefaultSyncCosts(), func(p *Proc) {
		for i := 0; i < 100*(p.ID+1); i++ { // deliberately uneven work
			p.Read(uint64(i))
		}
		p.Barrier() // ...but the barrier equalises finish times
	})
	for pid, cy := range r.ProcCycles {
		if cy != r.Cycles {
			t.Errorf("proc %d finished at %d, want the completion time %d (all: %v)",
				pid, cy, r.Cycles, r.ProcCycles)
		}
	}
}

// TestSingleProcessorNeverYields: a processor running alone serves
// every operation itself, its first one and barrier releases included,
// so the driver never resumes it. Running ahead, each of its 11 reads
// is queued ahead of the lock or end that closes its queue and served
// from the queue, and the 21 lock operations and barriers are
// self-served.
func TestSingleProcessorNeverYields(t *testing.T) {
	for _, tc := range []struct {
		name               string
		run                func(n int, mem Memory, costs SyncCosts, body func(p *Proc)) Result
		selfServes, queued int64
	}{
		{"posting", Run, 32, 0},
		{"run-ahead", RunAhead, 21, 11},
	} {
		r := tc.run(1, &flatMemory{lat: 1}, DefaultSyncCosts(), func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Read(uint64(i))
				p.Lock(0)
				p.Unlock(0)
			}
			p.Barrier()
			p.Read(0)
		})
		if ops := r.Accesses + r.LockOps + r.Barriers; ops != 32 {
			t.Errorf("%s: accesses+lock ops+barriers = %d, want 32", tc.name, ops)
		}
		if c := r.Coord; c.Grants != 0 || c.SelfServes != tc.selfServes || c.Queued != tc.queued {
			t.Errorf("%s: grants, self-serves, queued = %d, %d, %d, want 0, %d, %d",
				tc.name, c.Grants, c.SelfServes, c.Queued, tc.selfServes, tc.queued)
		}
	}
}
