//go:build !race

package tracestore

// This file builds only without -race: the race runtime makes
// allocations of its own while a replay opens and reads files, by a
// count that varies from run to run. CI's zero-alloc step runs it
// without -race.

import (
	"testing"

	"repro/internal/trace"
)

// TestColdReplayZeroAllocs: a fresh Store's first replay of an entry,
// which checks the file and then decodes it, allocates the same for
// testStream(10_000) as for testStream(100_000) (about 15k and 148k
// references), so neither the check nor the decode allocates per block
// or per reference. The larger entry spans several of the check's
// 64 KiB blocks.
func TestColdReplayZeroAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		s := newStore(t)
		k := Key{Workload: "cold", Budget: int64(n), Seed: 1}
		want, err := s.Record(k, testStream(n), trace.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var c trace.Counts
		return testing.AllocsPerRun(5, func() {
			fresh, err := NewStore(s.Dir())
			if err != nil {
				t.Fatal(err)
			}
			c = trace.Counts{}
			if _, err := fresh.ReplayTo(k, &c); err != nil || c != want {
				t.Fatalf("replayed %+v of %+v: %v", c, want, err)
			}
		})
	}
	if small, large := allocs(10_000), allocs(100_000); small != large {
		t.Errorf("cold replay allocations grow with the entry: %v for 10k stream steps, %v for 100k", small, large)
	}
}
