package cache

import "repro/internal/trace"

// Replay is the per-configuration replay: a trace.Sink that hands
// every load and store, never an instruction fetch, to each of its
// caches in order. It measures what one stack-distance profile cannot
// (see internal/stackdist): victim caches and stream buffers, whose
// contents depend on eviction order, and caches of different line
// sizes.
type Replay []Cache

// Ref implements trace.Sink.
func (p Replay) Ref(r trace.Ref) {
	if r.Kind == trace.Ifetch {
		return
	}
	for _, c := range p {
		c.Access(r.Addr, r.Kind)
	}
}

// Refs implements trace.BatchSink.
func (p Replay) Refs(rs []trace.Ref) {
	for i := range rs {
		p.Ref(rs[i])
	}
}
