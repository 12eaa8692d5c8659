package splash

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"reflect"
	"slices"
	"testing"

	"repro/internal/coherence"
	"repro/internal/mpsim"
)

// recorder is a Memory wrapped around the coherence.Machine a kernel
// runs on: it serves every access through the machine and folds the
// access as the coordinator issued it, (proc, addr, write, now), into
// one SHA-256.
type recorder struct {
	mem    mpsim.Memory
	h      hash.Hash
	buf    [25]byte
	served int64
}

func (r *recorder) AccessAt(proc int, addr uint64, write bool, now uint64) uint64 {
	binary.LittleEndian.PutUint64(r.buf[0:], uint64(proc))
	binary.LittleEndian.PutUint64(r.buf[8:], addr)
	binary.LittleEndian.PutUint64(r.buf[16:], now)
	r.buf[24] = 0
	if write {
		r.buf[24] = 1
	}
	r.h.Write(r.buf[:])
	r.served++
	return r.mem.AccessAt(proc, addr, write, now)
}

type runFunc = func(n int, mem mpsim.Memory, costs mpsim.SyncCosts, body func(*mpsim.Proc)) mpsim.Result

// TestRunAheadEquivalence: every kernel that opts in to run-ahead
// (LU, OCEAN, WATER) serves the same accesses, in the same order and at
// the same virtual times, as when it posts one operation at a time, at
// every processor count the figures use, and returns the same Result
// apart from the coordinator accounting. A kernel whose posts depend
// on another processor's host writes between two synchronisations
// (MP3D, PTHOR) fails here if it opts in.
func TestRunAheadEquivalence(t *testing.T) {
	orig := runAhead
	t.Cleanup(func() { runAhead = orig })
	// trace runs b with its opted-in mpsim call replaced by mode over a
	// recorder; rec stays nil if b does not opt in.
	trace := func(b Benchmark, n int, mode runFunc) (mpsim.Result, *recorder) {
		var rec *recorder
		runAhead = func(procs int, mem mpsim.Memory, costs mpsim.SyncCosts, body func(*mpsim.Proc)) mpsim.Result {
			rec = &recorder{mem: mem, h: sha256.New()}
			return mode(procs, rec, costs, body)
		}
		return b.Run(n, coherence.IntegratedVictim, Quick()), rec
	}

	var opted []string
	for _, b := range All() {
		for _, n := range []int{1, 2, 4, 8, 16} {
			posted, want := trace(b, n, mpsim.Run)
			if want == nil {
				break // b posts one operation at a time in every run
			}
			if n == 1 {
				opted = append(opted, b.Name)
			}
			ahead, got := trace(b, n, mpsim.RunAhead)
			if got.served != posted.Accesses || want.served != posted.Accesses {
				t.Errorf("%s p=%d: recorded %d posting and %d running ahead, want the %d accesses served",
					b.Name, n, want.served, got.served, posted.Accesses)
			}
			if ahead.Coord.Queued == 0 {
				t.Errorf("%s p=%d: running ahead served no access from a queue", b.Name, n)
			}
			if g, w := hex.EncodeToString(got.h.Sum(nil)), hex.EncodeToString(want.h.Sum(nil)); g != w {
				t.Errorf("%s p=%d: served-access digest %s running ahead, %s posting", b.Name, n, g, w)
			}
			ahead.Coord, posted.Coord = mpsim.CoordStats{}, mpsim.CoordStats{}
			if !reflect.DeepEqual(ahead, posted) {
				t.Errorf("%s p=%d: result %+v running ahead, %+v posting", b.Name, n, ahead, posted)
			}
		}
	}
	for _, name := range []string{"LU", "OCEAN", "WATER"} {
		if !slices.Contains(opted, name) {
			t.Errorf("%s does not run ahead (kernels running ahead: %v)", name, opted)
		}
	}
}
