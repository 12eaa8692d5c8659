package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// access is one call a logging cache received.
type access struct {
	cache int
	ref   trace.Ref
}

// logCache is a Cache that appends every access it is handed to a log
// it shares with the other caches of a test.
type logCache struct {
	id  int
	log *[]access
}

func (c logCache) Access(addr uint64, kind trace.Kind) bool {
	*c.log = append(*c.log, access{c.id, trace.Ref{Kind: kind, Addr: addr}})
	return false
}

func (c logCache) Stats() Stats { return Stats{} }

func (c logCache) Name() string { return "log" }

// TestReplay: a Replay hands no instruction fetch to any cache, hands
// every load and store to each cache in turn before the next reference,
// and leaves the same statistics whether the stream arrives one
// reference at a time or in batches.
func TestReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	stream := make([]trace.Ref, 20_000)
	var want []access
	for i := range stream {
		r := trace.Ref{Kind: trace.Kind(rng.Intn(3)), Addr: uint64(rng.Intn(64 << 10)), Size: 4}
		stream[i] = r
		if r.Kind != trace.Ifetch {
			r.Size = 0 // Access takes the address and kind only
			want = append(want, access{0, r}, access{1, r}, access{2, r})
		}
	}

	for _, batched := range []bool{false, true} {
		var log []access
		p := Replay{logCache{0, &log}, logCache{1, &log}, logCache{2, &log}}
		if batched {
			p.Refs(stream)
		} else {
			for _, r := range stream {
				p.Ref(r)
			}
		}
		if !reflect.DeepEqual(log, want) {
			t.Errorf("batched=%v: the caches saw %d accesses, not the %d of each load and store handed to every cache in turn",
				batched, len(log), len(want))
		}
	}

	caches := func() Replay {
		return Replay{
			paperDCache(), paperWithVictim(),
			NewWithStream(paperDCache(), NewStreamBuffer(4)),
			NewDirectMapped("16KB DM 32B", 16<<10, 32),
		}
	}
	one, batched := caches(), caches()
	for _, r := range stream {
		one.Ref(r)
	}
	for i := 0; i < len(stream); i += 256 {
		batched.Refs(stream[i:min(i+256, len(stream))])
	}
	for i := range one {
		s := one[i].Stats()
		if s != batched[i].Stats() {
			t.Errorf("%s: Ref left %+v, Refs %+v", one[i].Name(), s, batched[i].Stats())
		}
		if s.Data().Events == 0 {
			t.Errorf("%s: no misses over a 64 KiB footprint", one[i].Name())
		}
	}
}
