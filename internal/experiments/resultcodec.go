package experiments

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/cpumodel"
	"repro/internal/memsys"
	"repro/internal/workload"
)

// codecHeader travels in front of every encoded result. Type and
// Version must match the decoding codec exactly; any mismatch — a
// result type renamed, its shape changed and the version bumped, an
// entry written by a newer binary — decodes as an error, which the
// sweep engine treats as a cache miss and recomputes. Stale entries
// can therefore never surface as wrong results, only as wasted disk.
type codecHeader struct {
	Type    string
	Version int
}

// gobCodec is a sweep.Codec encoding values of one concrete type as a
// versioned gob stream. gob encodes float64s bit-exactly, so a warm
// run's assembled output is byte-identical to the cold run that
// populated the cache.
//
// Versioning contract: bump version when an entry written by an
// earlier build would decode to a value this build would not compute:
// a field's meaning changes, or a model fix changes the values the
// units compute. Old entries then miss and are recomputed; they are
// never misread or served stale. gob matches fields by name, so adding
// or dropping a field needs no bump while old entries still decode to
// what this build computes: a GSPN entry without MemCPICI95 decodes it
// as 0, the value a one-seed Evaluate gives.
type gobCodec[T any] struct {
	name    string
	version int
}

// schema identifies the codec's wire format; it is folded into the
// cache key, so a version bump re-keys every affected entry as well as
// failing the header check on old ones.
func (c gobCodec[T]) schema() string { return fmt.Sprintf("%s:%d", c.name, c.version) }

// Encode implements sweep.Codec.
func (c gobCodec[T]) Encode(v interface{}) ([]byte, error) {
	tv, ok := v.(T)
	if !ok {
		return nil, fmt.Errorf("experiments: codec %s cannot encode %T", c.schema(), v)
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(codecHeader{Type: c.name, Version: c.version}); err != nil {
		return nil, err
	}
	if err := enc.Encode(&tv); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode implements sweep.Codec.
func (c gobCodec[T]) Decode(data []byte) (interface{}, error) {
	dec := gob.NewDecoder(bytes.NewReader(data))
	var h codecHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("experiments: codec %s: bad header: %w", c.schema(), err)
	}
	if h.Type != c.name || h.Version != c.version {
		return nil, fmt.Errorf("experiments: codec %s: entry is %s:%d", c.schema(), h.Type, h.Version)
	}
	var v T
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("experiments: codec %s: %w", c.schema(), err)
	}
	return v, nil
}

// The codec registry: one codec per cacheable unit-result type. Bump a
// codec's version under the gobCodec contract; the key-stability test
// pins the schema strings so an accidental edit is caught.
var (
	fig7Codec     = gobCodec[Fig7Row]{name: "Fig7Row", version: 1}
	fig8Codec     = gobCodec[Fig8Row]{name: "Fig8Row", version: 1}
	cpiCodec      = gobCodec[CPIRow]{name: "CPIRow", version: 1}
	realcpiCodec  = gobCodec[RealCPIRow]{name: "RealCPIRow", version: 1}
	latencyCodec  = gobCodec[[]LatencyPoint]{name: "LatencyPoints", version: 1}
	bankCodec     = gobCodec[BankRow]{name: "BankRow", version: 1}
	mattsonCodec  = gobCodec[MattsonRow]{name: "MattsonRow", version: 1}
	estimateCodec = gobCodec[memsys.RunEstimate]{name: "RunEstimate", version: 1}
	splashCodec   = gobCodec[SplashPoint]{name: "SplashPoint", version: 2}
	cyclesCodec   = gobCodec[uint64]{name: "Cycles", version: 2}
	familyCodec   = gobCodec[*workload.FamilySummary]{name: "FamilySummary", version: 1}
	gspnCodec     = gobCodec[cpumodel.Result]{name: "GSPNResult", version: 1}
)
