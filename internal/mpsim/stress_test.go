package mpsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// traceEntry is one serviced access as the coordinator saw it.
type traceEntry struct {
	Proc  int
	Addr  uint64
	Write bool
	Now   uint64
}

// tracingMemory records every access with the issuing processor's
// virtual time, the clock the coordinator schedules by; the trace
// therefore exposes the global service order.
type tracingMemory struct {
	lat   uint64
	trace []traceEntry
}

func (m *tracingMemory) AccessAt(proc int, addr uint64, write bool, now uint64) uint64 {
	m.trace = append(m.trace, traceEntry{proc, addr, write, now})
	// Latency depends on the inputs only, never on host scheduling.
	return m.lat + addr%7
}

// stressBody mixes reads, writes, compute, contended locks, and
// barriers; everything it does is a pure function of the processor ID,
// so any run-to-run variation can only come from the coordinator.
func stressBody(p *Proc) {
	for round := 0; round < 8; round++ {
		for i := 0; i < 6; i++ {
			a := uint64(p.ID*131 + round*17 + i)
			if (p.ID+round+i)%3 == 0 {
				p.Write(a)
			} else {
				p.Read(a)
			}
			p.Compute(uint64(1 + (p.ID+i)%5))
		}
		// Contended critical section: every proc hammers a small set of
		// locks, including one global lock.
		p.Lock(p.ID % 4)
		p.Read(uint64(7000 + p.ID%4))
		p.Write(uint64(7000 + p.ID%4))
		p.Unlock(p.ID % 4)
		p.Lock(99)
		p.Compute(3)
		p.Unlock(99)
		p.Barrier()
	}
}

// modes are the two ways a body can post: one operation at a time, or
// running ahead to its next synchronisation.
var modes = []struct {
	name string
	run  func(n int, mem Memory, costs SyncCosts, body func(p *Proc)) Result
}{{"posting", Run}, {"run-ahead", RunAhead}}

// TestCoordinatorStress runs many coroutine-backed processors through
// a lock/barrier-heavy workload, posting and running ahead, and checks
// the properties the sweep engine's determinism rests on: service
// timestamps never move backwards, every operation is self-served,
// granted or served from its queue exactly once, and repeated runs
// produce the identical access trace and result, coordinator
// accounting included (run with -race to also check that the driver
// and the bodies never touch the simulation state concurrently).
func TestCoordinatorStress(t *testing.T) {
	const procs = 32
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			run := func() (Result, []traceEntry) {
				mem := &tracingMemory{lat: 4}
				r := mode.run(procs, mem, DefaultSyncCosts(), stressBody)
				return r, mem.trace
			}

			ref, refTrace := run()
			if ref.Accesses != int64(len(refTrace)) {
				t.Fatalf("result counts %d accesses, trace has %d", ref.Accesses, len(refTrace))
			}
			// 8 rounds × (6 loop accesses + 2 critical-section accesses) per proc.
			if want := int64(procs * 8 * 8); ref.Accesses != want {
				t.Fatalf("accesses = %d, want %d", ref.Accesses, want)
			}
			if want := int64(procs * 8); ref.Barriers != want {
				t.Fatalf("barriers = %d, want %d", ref.Barriers, want)
			}

			// Conservative discrete-event invariant: the coordinator serves
			// operations in global virtual-time order.
			for i := 1; i < len(refTrace); i++ {
				if refTrace[i].Now < refTrace[i-1].Now {
					t.Fatalf("service time moved backwards at access %d: %+v after %+v",
						i, refTrace[i], refTrace[i-1])
				}
			}

			// Conservation: every access, lock operation and barrier
			// arrival is served inline, granted by the driver or served
			// from its queue, exactly once.
			c := ref.Coord
			if got, want := c.SelfServes+c.Grants+c.Queued, ref.Accesses+ref.LockOps+ref.Barriers; got != want {
				t.Errorf("self-serves+grants+queued = %d, want accesses+lock ops+barriers = %d", got, want)
			}
			if ref.Coord.MaxHeapDepth > procs {
				t.Errorf("heap depth %d exceeds processor count %d", ref.Coord.MaxHeapDepth, procs)
			}

			for rep := 0; rep < 3; rep++ {
				r, trace := run()
				if !reflect.DeepEqual(r, ref) {
					t.Fatalf("rep %d: result %+v != %+v (nondeterministic)", rep, r, ref)
				}
				if !reflect.DeepEqual(trace, refTrace) {
					for i := range refTrace {
						if trace[i] != refTrace[i] {
							t.Fatalf("rep %d: access %d = %+v, want %+v", rep, i, trace[i], refTrace[i])
						}
					}
					t.Fatalf("rep %d: traces differ in length: %d vs %d", rep, len(trace), len(refTrace))
				}
			}
		})
	}
}

// TestRunAheadMatchesPosting: a body whose posts depend on nothing
// another processor writes gets the same served accesses, in the same
// order at the same times, and the same Result apart from the
// coordinator accounting, whether it posts or runs ahead. longRunBody
// queues more accesses between two barriers than a queue holds, so the
// full-queue path is covered as well as the synchronisation that
// closes a queue.
func TestRunAheadMatchesPosting(t *testing.T) {
	for _, body := range []struct {
		name string
		fn   func(p *Proc)
	}{{"stress", stressBody}, {"long runs", longRunBody}, {"ops", opsBody(1500)}} {
		for _, procs := range []int{1, 2, 3, 8, 32} {
			posted := &tracingMemory{lat: 4}
			ahead := &tracingMemory{lat: 4}
			want := Run(procs, posted, DefaultSyncCosts(), body.fn)
			got := RunAhead(procs, ahead, DefaultSyncCosts(), body.fn)
			if got.Coord.Queued == 0 {
				t.Errorf("%s p=%d: no access was served from a queue", body.name, procs)
			}
			want.Coord, got.Coord = CoordStats{}, CoordStats{}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s p=%d: run-ahead result %+v, posting %+v", body.name, procs, got, want)
			}
			if !reflect.DeepEqual(ahead.trace, posted.trace) {
				t.Errorf("%s p=%d: run-ahead served %d accesses in another order or at other times than posting (%d)",
					body.name, procs, len(ahead.trace), len(posted.trace))
			}
		}
	}
}

// longRunBody queues 2.5 queues' worth of accesses between barriers,
// with a lock taken and released in the middle of the second stretch.
func longRunBody(p *Proc) {
	for round := 0; round < 3; round++ {
		for i := 0; i < 5*aheadQueue/2; i++ {
			a := uint64(p.ID*100_003 + round*7919 + i)
			if i%5 == 0 {
				p.Write(a)
			} else {
				p.Read(a)
			}
			p.Compute(uint64(i % 3))
			if round == 1 && i == aheadQueue {
				p.Lock(0)
				p.Write(42)
				p.Unlock(0)
			}
		}
		p.Barrier()
	}
}

// TestCoordStatsPublish: Result.Coord lands in the registry's "mpsim"
// family, accumulating across runs; a nil registry is a no-op.
func TestCoordStatsPublish(t *testing.T) {
	mem := &tracingMemory{lat: 4}
	r := Run(4, mem, DefaultSyncCosts(), stressBody)
	if r.Coord.SelfServes+r.Coord.Grants == 0 {
		t.Fatal("no coordinator activity recorded")
	}
	reg := obs.NewRegistry()
	r.Coord.Publish(reg)
	r.Coord.Publish(reg) // counters accumulate
	if got := reg.Counter("mpsim", "grants").Value(); got != 2*r.Coord.Grants {
		t.Errorf("grants = %d, want %d", got, 2*r.Coord.Grants)
	}
	if got := reg.Gauge("mpsim", "heap_depth_max").Value(); got != int64(r.Coord.MaxHeapDepth) {
		t.Errorf("heap_depth_max = %d, want %d", got, r.Coord.MaxHeapDepth)
	}
	r.Coord.Publish(nil) // must not panic
}

// TestServiceOrderPinned pins the global service order: stressBody at
// several processor counts, every serviced access and every run's
// clocks folded into one SHA-256. Any change to the admission order,
// the lock and barrier rules or the timing they apply moves the
// digest.
func TestServiceOrderPinned(t *testing.T) {
	const want = "ec8567da6fb86c8955179f98991ef05c71ef6f66e31ae6f8aebeac5f707a2a4e"
	h := sha256.New()
	for _, procs := range []int{1, 2, 3, 8, 32} {
		mem := &tracingMemory{lat: 4}
		r := Run(procs, mem, DefaultSyncCosts(), stressBody)
		for _, e := range mem.trace {
			fmt.Fprintf(h, "%d %d %v %d\n", e.Proc, e.Addr, e.Write, e.Now)
		}
		fmt.Fprintf(h, "cycles %d %v\n", r.Cycles, r.ProcCycles)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("service-order digest = %s, want %s", got, want)
	}
}
