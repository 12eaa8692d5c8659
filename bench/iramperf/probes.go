package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/resultstore"
	"repro/internal/splash"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/vm"
	"repro/internal/workload"
)

// The layer probes time each layer alone, through its public functions,
// on fixed inputs derived from the seed. They are the same on every
// workload, so a layer's rate reads the same way wherever it is quoted;
// which end-to-end number a rate should move is mapped in
// bench/README.md.
const (
	probeReps      = 3
	probeVMBudget  = 100_000 // instructions per workload, all 22 workloads
	probeRecBudget = 300_000 // instructions per recorded probe stream
	probeGSPNInstr = 20_000  // experiments.Quick's GSPN run length
	probeStoreKeys = 32
)

// probeBenches are the streams the cache-set, family-set and trace
// probes replay: the two benchmarks the design-space search uses, one
// integer and one floating point.
var probeBenches = []string{"126.gcc", "101.tomcatv"}

// recorder keeps a reference stream in memory.
type recorder []trace.Ref

func (r *recorder) Ref(x trace.Ref)     { *r = append(*r, x) }
func (r *recorder) Refs(xs []trace.Ref) { *r = append(*r, xs...) }

// feed replays refs into s in the VM's batch size.
func feed(s trace.Sink, refs []trace.Ref) {
	for i := 0; i < len(refs); i += trace.BatchLen {
		trace.EmitAll(s, refs[i:min(i+trace.BatchLen, len(refs))])
	}
}

// rate returns the median over reps of units/seconds(), scaled by 1/scale.
func rate(reps int, scale float64, run func() (units float64, seconds float64, err error)) (float64, error) {
	var rs []float64
	for i := 0; i < reps; i++ {
		u, s, err := run()
		if err != nil {
			return 0, err
		}
		rs = append(rs, u/s/scale)
	}
	return median(rs), nil
}

// runProbes measures every layer probe; dir is a scratch directory.
func runProbes(dir string, seed int64) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name, unit string, v float64, n int) { m[name] = metric{Value: v, Unit: unit, N: n} }

	// vm: instructions per second into a counting sink, all workloads.
	r, err := rate(probeReps, 1e6, func() (float64, float64, error) {
		var instr int64
		var d time.Duration
		for _, w := range workload.All() {
			p := w.Build()
			var c trace.Counts
			t0 := time.Now()
			cpu, err := vm.RunProgram(p, &c, probeVMBudget)
			d += time.Since(t0)
			if err != nil {
				return 0, 0, fmt.Errorf("vm probe %s: %w", w.Name, err)
			}
			instr += cpu.Instructions
		}
		return float64(instr), d.Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	put("vm.minstr_per_s", "Minstr/s", r, probeReps)

	// Record the probe streams once, in memory.
	streams := make([]recorder, len(probeBenches))
	ws := make([]workload.Workload, len(probeBenches))
	var nrefs int
	for i, name := range probeBenches {
		if ws[i], err = workload.ByName(name); err != nil {
			return nil, err
		}
		if _, err := vm.RunProgram(ws[i].Build(), &streams[i], probeRecBudget); err != nil {
			return nil, err
		}
		nrefs += len(streams[i])
	}

	// tracestore / trace: a fresh Store verifies an entry on its first
	// replay and trusts it afterwards, so the first replay minus the
	// second is verify-before-replay and the second is pure decode.
	tdir := filepath.Join(dir, "probe-traces")
	store, err := tracestore.NewStore(tdir)
	if err != nil {
		return nil, err
	}
	keys := make([]tracestore.Key, len(ws))
	var traceBytes int64
	for i, w := range ws {
		keys[i] = tracestore.Key{Workload: w.Name, Budget: probeRecBudget, Seed: seed}
		refs := streams[i]
		gen := func(s trace.Sink) error { feed(s, refs); return nil }
		if _, err := store.Record(keys[i], gen, trace.Discard); err != nil {
			return nil, err
		}
		fi, err := os.Stat(store.Path(keys[i]))
		if err != nil {
			return nil, err
		}
		traceBytes += fi.Size()
	}
	var verify, decode []float64
	for rep := 0; rep < probeReps; rep++ {
		fresh, err := tracestore.NewStore(tdir)
		if err != nil {
			return nil, err
		}
		var first, second time.Duration
		for _, k := range keys {
			t0 := time.Now()
			if _, err := fresh.ReplayTo(k, trace.Discard); err != nil {
				return nil, err
			}
			t1 := time.Now()
			if _, err := fresh.ReplayTo(k, trace.Discard); err != nil {
				return nil, err
			}
			first += t1.Sub(t0)
			second += time.Since(t1)
		}
		verify = append(verify, (first - second).Seconds())
		decode = append(decode, float64(nrefs)/second.Seconds()/1e6)
	}
	put("tracestore.verify_s", "s", median(verify), probeReps)
	put("tracestore.bytes_read", "B", float64(traceBytes), 1)
	put("trace.decode_mrefs_per_s", "Mref/s", median(decode), probeReps)

	// workload: the Figure 7/8 profiler and a design-space family
	// (8..64 banks x 1,2 ways x 0,16 victims at 512 B columns).
	var gccSet *workload.CacheSet
	r, err = rate(probeReps, 1e6, func() (float64, float64, error) {
		var d time.Duration
		for i, refs := range streams {
			cs := workload.NewCacheSetFor(core.Proposed(), core.Reference())
			t0 := time.Now()
			feed(cs, refs)
			d += time.Since(t0)
			if i == 0 {
				gccSet = cs
			}
		}
		return float64(nrefs), d.Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	put("workload.cacheset_mrefs_per_s", "Mref/s", r, probeReps)
	var points []workload.FamilyPoint
	for banks := 8; banks <= 64; banks += 8 {
		for _, ways := range []int{1, 2} {
			for _, vic := range []int{0, 16} {
				points = append(points, workload.FamilyPoint{Banks: banks, Ways: ways, VictimEntries: vic})
			}
		}
	}
	r, err = rate(probeReps, 1e6, func() (float64, float64, error) {
		var d time.Duration
		for _, refs := range streams {
			f := workload.NewFamilyCacheSet(512, points)
			t0 := time.Now()
			feed(f, refs)
			d += time.Since(t0)
		}
		return float64(nrefs), d.Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	put("workload.familyset_mrefs_per_s", "Mref/s", r, probeReps)

	// cpumodel: the GSPN on the rates gcc measured above.
	meas := &workload.Measurement{Workload: ws[0], Caches: gccSet, Instr: gccSet.RefCounts().Ifetches}
	rates := meas.Rates(true, true)
	var evals []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		if _, err := cpumodel.Evaluate(cpumodel.ConfigFor(core.Proposed()), rates, probeGSPNInstr, seed); err != nil {
			return nil, err
		}
		evals = append(evals, time.Since(t0).Seconds())
	}
	put("cpumodel.evaluate_ms", "ms", median(evals)*1e3, len(evals))
	put("cpumodel.kinstr_per_s", "kinstr/s", probeGSPNInstr/median(evals)/1e3, len(evals))

	// mpsim: admission grants per second on MP3D, 4 processors.
	mp3d, err := splash.ByName("MP3D")
	if err != nil {
		return nil, err
	}
	r, err = rate(probeReps, 1e3, func() (float64, float64, error) {
		t0 := time.Now()
		res := mp3d.Run(4, coherence.IntegratedVictim, splash.Quick())
		return float64(res.Coord.Grants), time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	put("mpsim.kgrants_per_s", "kgrant/s", r, probeReps)

	// resultstore: commit and verified read of a 4 KiB entry.
	rs, err := resultstore.NewStore(filepath.Join(dir, "probe-results"))
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 4<<10)
	var puts, gets []float64
	for i := 0; i < probeStoreKeys; i++ {
		key := fmt.Sprintf("probe-%d", i)
		payload[0] = byte(i)
		t0 := time.Now()
		if err := rs.Put(key, payload); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, ok := rs.Get(key); !ok {
			return nil, fmt.Errorf("resultstore probe: %s missing after Put", key)
		}
		puts = append(puts, t1.Sub(t0).Seconds()*1e6)
		gets = append(gets, time.Since(t1).Seconds()*1e6)
	}
	put("resultstore.put_us", "us", median(puts), len(puts))
	put("resultstore.get_us", "us", median(gets), len(gets))
	return m, nil
}
