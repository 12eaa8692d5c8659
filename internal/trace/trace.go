// Package trace defines the memory-reference event stream that couples
// the functional simulator (internal/vm) to the architecture models
// (internal/cache, internal/memsys). It plays the role that the SHADE
// tracing interface plays in the paper's methodology: the VM executes a
// workload and pushes every instruction fetch, load, and store into a
// Sink, and cache and timing models consume the stream online.
//
// A stream can also be recorded to a compact binary file (Writer) and
// replayed from it (Reader) into any number of later measurements
// without re-running the program; internal/tracestore keeps such files
// as a content-addressed cache. The file format is described in
// file.go.
package trace

// Kind classifies a memory reference.
type Kind uint8

// Reference kinds.
const (
	Ifetch Kind = iota
	Load
	Store
)

func (k Kind) String() string {
	switch k {
	case Ifetch:
		return "ifetch"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return "unknown"
	}
}

// Ref is one memory reference.
type Ref struct {
	Kind Kind
	Addr uint64
	Size uint8 // bytes: 1, 2, 4, or 8 (4 for instruction fetches)
}

// Sink consumes a reference stream. Implementations must be safe for
// single-goroutine use only; the simulators never share a Sink across
// goroutines.
type Sink interface {
	Ref(r Ref)
}

// BatchSink is an optional extension of Sink for consumers that can
// amortise per-reference dispatch. Producers that buffer references
// (the VM's Run loop) type-assert their Sink to BatchSink and hand
// over slices; the slice is owned by the producer and reused after the
// call returns, so implementations must not retain it.
type BatchSink interface {
	Sink
	Refs(rs []Ref)
}

// EmitAll delivers a slice of references to a sink, using the batched
// path when the sink supports it.
func EmitAll(s Sink, rs []Ref) {
	if b, ok := s.(BatchSink); ok {
		b.Refs(rs)
		return
	}
	for i := range rs {
		s.Ref(rs[i])
	}
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Ref)

// Ref implements Sink.
func (f SinkFunc) Ref(r Ref) { f(r) }

// Tee duplicates a stream to several sinks in order.
type Tee []Sink

// Ref implements Sink.
func (t Tee) Ref(r Ref) {
	for _, s := range t {
		s.Ref(r)
	}
}

// Refs implements BatchSink, forwarding the whole batch to each inner
// sink (batched where supported) before moving to the next.
func (t Tee) Refs(rs []Ref) {
	for _, s := range t {
		EmitAll(s, rs)
	}
}

// Counts tallies references by kind. It is the cheapest possible sink
// and is used to cross-check instruction budgets and load/store mixes.
type Counts struct {
	Ifetches int64
	Loads    int64
	Stores   int64
}

// Ref implements Sink.
func (c *Counts) Ref(r Ref) {
	switch r.Kind {
	case Ifetch:
		c.Ifetches++
	case Load:
		c.Loads++
	case Store:
		c.Stores++
	}
}

// Refs implements BatchSink.
func (c *Counts) Refs(rs []Ref) {
	for i := range rs {
		c.Ref(rs[i])
	}
}

// Total returns the total number of references seen.
func (c *Counts) Total() int64 { return c.Ifetches + c.Loads + c.Stores }

// LoadFrac returns loads as a fraction of instructions fetched.
func (c *Counts) LoadFrac() float64 {
	if c.Ifetches == 0 {
		return 0
	}
	return float64(c.Loads) / float64(c.Ifetches)
}

// StoreFrac returns stores as a fraction of instructions fetched.
func (c *Counts) StoreFrac() float64 {
	if c.Ifetches == 0 {
		return 0
	}
	return float64(c.Stores) / float64(c.Ifetches)
}

// Discard drops every reference. Useful as a placeholder, and as the
// sink of a replay that only times or checks the decode: it takes
// whole batches.
var Discard Sink = discard{}

type discard struct{}

func (discard) Ref(Ref)    {}
func (discard) Refs([]Ref) {}
