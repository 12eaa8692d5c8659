package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/resultstore"
	"repro/internal/sweep"
)

// quickReq is the CI-sized request the tests run: cheap analytic
// outputs plus one real trace-driven figure.
func quickReq(names ...string) Request {
	return Request{Experiments: names, Quick: true, Budget: 50_000}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want string // substring of the error, "" = valid
	}{
		{"empty", Request{}, "no experiments"},
		{"unknown", quickReq("fig99"), `unknown experiment "fig99"`},
		{"known", quickReq("fig7", "spec", "designspace"), ""},
		{"all", quickReq("all"), ""},
		{"all-with-others", quickReq("cost", "all"), `"all" must be the only experiment`},
		{"bad-procs", Request{Experiments: []string{"fig13"}, Procs: []int{0}}, "processor count"},
		// The directory tracks at most coherence.MaxNodes sharers.
		{"procs-at-cap", Request{Experiments: []string{"fig14"}, Procs: []int{1, 64}}, ""},
		{"procs-over-cap", Request{Experiments: []string{"fig14"}, Procs: []int{2, 65}}, "processor count 65 outside 1..64"},
		// A repeated count would run its units twice for one table row.
		{"procs-repeated", Request{Experiments: []string{"fig13"}, Procs: []int{4, 1, 4}}, "runner: processor count 4 repeated"},
		{"bad-machine-json", Request{Experiments: []string{"spec"}, Machine: json.RawMessage(`{`)}, "machine config"},
		{"unknown-machine-field", Request{Experiments: []string{"spec"}, Machine: json.RawMessage(`{"NoSuchKnob":1}`)}, "machine config"},
		{"invalid-machine", Request{Experiments: []string{"spec"}, Machine: json.RawMessage(`{"Banks":0}`)}, "machine config"},
		// Every fig8 unit would panic building a 100 B-line profiler.
		{"dcache-line-off-column", Request{Experiments: []string{"fig8"}, Machine: json.RawMessage(`{"DCacheLineBytes":100}`)}, "D-cache line 100 != column 512"},
		// The Inter-Node Cache lives in the 32 MiB DRAM array.
		{"inc-over-array", Request{Experiments: []string{"fig13"}, Machine: json.RawMessage(`{"INCBytes":68719476736}`)}, "INC 68719476736 B outside"},
		// The SPLASH units build integrated nodes from any machine, so
		// one that is not integrated cannot dodge the INC bound.
		{"not-integrated", Request{Experiments: []string{"fig13"}, Machine: json.RawMessage(`{"Integrated":false,"INCBytes":68719476736}`)}, `"Integrated": false`},
		// Each design-space axis takes up to MaxAxisValues values, the
		// cap the iramsim -ds-* flags enforce.
		{"ds_banks-at-cap", Request{Experiments: []string{"designspace"}, DSBanks: distinct(MaxAxisValues)}, ""},
		{"ds_banks-over-cap", Request{Experiments: []string{"designspace"}, DSBanks: make([]int, MaxAxisValues+1)}, "ds_banks has 4097 values"},
		{"ds_columns-at-cap", Request{Experiments: []string{"designspace"}, DSColumns: distinct(MaxAxisValues)}, ""},
		{"ds_columns-over-cap", Request{Experiments: []string{"designspace"}, DSColumns: make([]int, MaxAxisValues+1)}, "ds_columns has 4097 values"},
		{"ds_ways-at-cap", Request{Experiments: []string{"designspace"}, DSWays: distinct(MaxAxisValues)}, ""},
		{"ds_ways-over-cap", Request{Experiments: []string{"designspace"}, DSWays: make([]int, MaxAxisValues+1)}, "ds_ways has 4097 values"},
		{"ds_victims-at-cap", Request{Experiments: []string{"designspace"}, DSVictims: distinct(MaxAxisValues)}, ""},
		{"ds_victims-over-cap", Request{Experiments: []string{"designspace"}, DSVictims: make([]int, MaxAxisValues+1)}, "ds_victims has 4097 values"},
		// A repeated axis value would build its lattice points twice.
		{"ds_banks-repeated", Request{Experiments: []string{"designspace"}, DSBanks: []int{8, 8}}, "runner: ds_banks value 8 repeated"},
		{"ds_victims-repeated", Request{Experiments: []string{"designspace"}, DSVictims: []int{0, 16, 0}}, "runner: ds_victims value 0 repeated"},
		// The lattice is the product of the four axis lengths, an empty
		// axis at its default length (ways 1, victims 2 here).
		{"lattice-at-cap", Request{Experiments: []string{"designspace"}, DSBanks: distinct(MaxAxisValues), DSColumns: distinct(8)}, ""},
		{"lattice-default-axes-counted", Request{Experiments: []string{"designspace"}, DSBanks: distinct(MaxAxisValues), DSColumns: distinct(16)}, "design-space lattice has 131072 points, more than 65536"},
		// 65,537 is prime, so 3641 x 6 x 3 x 1 is the smallest lattice
		// over the cap that axes of at most MaxAxisValues can build.
		{"lattice-over-cap", Request{Experiments: []string{"designspace"}, DSBanks: distinct(3641), DSColumns: distinct(6), DSWays: distinct(3), DSVictims: distinct(1)}, "design-space lattice has 65538 points, more than 65536"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.req.Validate()
			if c.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, c.want)
			}
		})
	}
}

// distinct returns the n distinct values 1..n.
func distinct(n int) []int {
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i + 1
	}
	return vals
}

// FuzzRequest decodes arbitrary bodies the way iramsimd's POST /v1/runs
// does (unknown fields rejected) and validates them: bad input must
// come back as an error, never a panic.
func FuzzRequest(f *testing.F) {
	for _, seed := range []string{
		`{"experiments":["fig7"],"quick":true,"budget":50000}`,
		`{"experiments":["all"]}`,
		`{"experiments":["cost","all"]}`,
		`{"experiments":["fig14"],"procs":[1,64]}`,
		`{"experiments":["fig14"],"procs":[0,65]}`,
		`{"experiments":["fig13"],"procs":[4,4]}`,
		`{"experiments":["designspace"],"ds_banks":[8,16],"ds_columns":[512],"ds_ways":[1,2],"ds_victims":[0,16]}`,
		`{"experiments":["spec"],"machine":{"DRAM":{"Banks":32,"ColumnBytes":256},"ICacheBytes":8192,"ICacheLineBytes":256,"DCacheBytes":16384,"DCacheLineBytes":256,"VictimEntries":8}}`,
		`{"experiments":["fig13"],"machine":{"INCBytes":68719476736}}`,
		`{"experiments":["fig13"],"machine":{"INCBytes":-512}}`,
		`{"experiments":["fig13"],"machine":{"Integrated":false,"INCBytes":-512}}`,
		`{"experiments":["fig13"],"machine":{"INCBytes":0}}`,
		`{"experiments":["spec"],"machine":{"DRAM":{"PrechargeCycles":0}}}`,
		`{"experiments":["fig7"],"bogus":1}`,
		`{"experiments":`,
		``,
		`{"experiments":["designspace"],"quick":true,"budget":50000,"ds_banks":[8,8],"ds_columns":[512],"ds_victims":[0]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		_ = req.Validate() // an error is the daemon's 400; only a panic fails
	})
}

func TestExpandNames(t *testing.T) {
	all := ExpandNames([]string{"all"})
	if len(all) < 10 || all[0] != "spec" || all[len(all)-1] != "selftest" {
		t.Errorf("ExpandNames(all) = %v", all)
	}
	plain := []string{"fig7", "fig8"}
	if got := ExpandNames(plain); len(got) != 2 || got[0] != "fig7" {
		t.Errorf("ExpandNames(%v) = %v", plain, got)
	}
}

// TestRunRendersAndReports: Run renders every requested experiment to
// Out in request order and mirrors each through OnResult.
func TestRunRendersAndReports(t *testing.T) {
	var out bytes.Buffer
	var results []Result
	err := Run(context.Background(), quickReq("cost", "spec"), Config{
		Out:      &out,
		OnResult: func(r Result) { results = append(results, r) },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Len() == 0 {
		t.Fatal("Run produced no output")
	}
	if len(results) != 2 || results[0].Name != "cost" || results[1].Name != "spec" {
		t.Fatalf("OnResult order = %+v, want cost then spec", results)
	}
	if results[0].Units != 1 || results[0].Value == nil {
		t.Errorf("cost result = %+v", results[0])
	}
}

// TestRunUnknownExperiment: a name that slips past Validate fails the
// run, naming the experiment, before any unit is scheduled.
func TestRunUnknownExperiment(t *testing.T) {
	err := Run(context.Background(), quickReq("fig99"), Config{})
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "fig99"`) {
		t.Fatalf("Run = %v, want unknown-experiment error", err)
	}
}

// TestRunCanceled: a pre-canceled context runs nothing and reports
// context.Canceled; no result is ever delivered.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	called := 0
	err := Run(ctx, quickReq("cost"), Config{
		Out:      &out,
		OnResult: func(Result) { called++ },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if called != 0 || out.Len() != 0 {
		t.Errorf("canceled run delivered results (OnResult %d, %d bytes out)", called, out.Len())
	}
}

// TestRunWarmCache: the second run against the same result-cache dir is
// served entirely from cache (hits > 0, misses == 0) with byte-identical
// rendered output — the property the daemon's overlapping-request
// workload depends on. Each run opens its own store over the directory,
// as two processes would. Every entry in the store is accounted for:
// the cold run reports one store and the warm run one hit and one
// OnUnit event per entry, designspace's GSPN wave included.
func TestRunWarmCache(t *testing.T) {
	dir := t.TempDir()
	open := func() *resultstore.Store {
		t.Helper()
		store, err := resultstore.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	req := quickReq("fig7", "designspace")

	var cold bytes.Buffer
	coldReg := obs.NewRegistry()
	if err := Run(context.Background(), req, Config{
		Out: &cold, Obs: coldReg, ResultCache: open(), Workers: 4,
	}); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if misses := coldReg.Counter("resultcache", "misses").Value(); misses == 0 {
		t.Fatalf("cold run reported no misses")
	}
	res, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil {
		t.Fatal(err)
	}
	entries := int64(len(res))
	if stores := coldReg.Counter("resultcache", "stores").Value(); stores != entries {
		t.Errorf("cold run reported %d stores for %d entries", stores, entries)
	}

	var warm bytes.Buffer
	warmReg := obs.NewRegistry()
	var units, skipped int
	if err := Run(context.Background(), req, Config{
		Out: &warm, Obs: warmReg, ResultCache: open(), Workers: 2,
		OnUnit: func(ev sweep.UnitEvent) {
			units++
			if ev.Skipped {
				skipped++
			}
		},
	}); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Error("warm output differs from cold")
	}
	hits := warmReg.Counter("resultcache", "hits").Value()
	misses := warmReg.Counter("resultcache", "misses").Value()
	if hits != entries || misses != 0 {
		t.Errorf("warm run: hits=%d misses=%d, want hits=%d (one per entry) misses==0", hits, misses, entries)
	}
	if int64(units) != entries || skipped != 0 {
		t.Errorf("OnUnit saw %d units (%d skipped), want %d (one per entry)", units, skipped, entries)
	}
}

// TestRunWarmSharedValues: warm runs through one store share the values
// it decoded, across runs and render modes, so each must print the cold
// output, and afterwards every kept value must still deep-equal a fresh
// decode of its entry: no Assemble, table or JSON path wrote into a
// row, map, slice or summary it was given. The experiments cover every
// codec type that carries a reference: maps in rows (fig7, fig8,
// mattson), a slice per unit (fig12) and a shared pointer (the
// designspace family summaries). The other unit results are plain
// values, which the assemblies' type assertions copy.
func TestRunWarmSharedValues(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation run")
	}
	store, err := resultstore.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := quickReq("fig7", "fig8", "fig12", "mattson", "designspace")
	render := func(jsonMode bool) ([]byte, *obs.Registry) {
		t.Helper()
		var out bytes.Buffer
		reg := obs.NewRegistry()
		if err := Run(context.Background(), req, Config{
			Out: &out, Obs: reg, ResultCache: store, Workers: 4, JSON: jsonMode,
		}); err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), reg
	}
	cold, _ := render(false)
	var firstJSON []byte
	for i, jsonMode := range []bool{false, true, false, true} {
		out, reg := render(jsonMode)
		if misses := reg.Counter("resultcache", "misses").Value(); misses != 0 {
			t.Errorf("warm run %d: %d misses", i, misses)
		}
		if i > 0 && reg.Counter("resultcache", "memory_hits").Value() == 0 {
			t.Errorf("warm run %d: no memory hits", i)
		}
		switch {
		case !jsonMode && !bytes.Equal(out, cold):
			t.Errorf("warm run %d printed other bytes than the cold run", i)
		case jsonMode && firstJSON == nil:
			firstJSON = out
		case jsonMode && !bytes.Equal(out, firstJSON):
			t.Errorf("warm run %d printed other JSON than the first JSON run", i)
		}
	}

	opts, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}
	ms := experiments.NewMeasurementSet(opts)
	checked := 0
	for _, name := range req.Experiments {
		j, err := experiments.JobFor(name, opts, ms)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range j.Units {
			if u.Key == "" {
				continue
			}
			kept, ok := store.Decoded(u.Key)
			if !ok {
				t.Errorf("%s: no value kept", u.Name)
				continue
			}
			data, ok := store.Get(u.Key)
			if !ok {
				t.Fatalf("%s: entry missing", u.Name)
			}
			fresh, err := u.Codec.Decode(data)
			if err != nil {
				t.Fatalf("%s: %v", u.Name, err)
			}
			if !reflect.DeepEqual(kept, fresh) {
				t.Errorf("%s: kept value changed after it was shared:\nkept  %+v\nentry %+v", u.Name, kept, fresh)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no keyed units checked")
	}
}

// TestRunFrontierExport: the designspace frontier lands at
// Config.FrontierPath without any CLI globals involved.
func TestRunFrontierExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pareto.csv")
	var out bytes.Buffer
	if err := Run(context.Background(), quickReq("designspace"), Config{
		Out: &out, FrontierPath: path,
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("frontier not written: %v", err)
	}
	if lines := bytes.Count(data, []byte("\n")); lines < 2 {
		t.Errorf("frontier CSV has %d lines, want header + rows:\n%s", lines, data)
	}
}

// BenchmarkServeWarm reruns the serve-warm request of bench/iramperf
// (quick fig7 fig8 fig11 fig12 table3 table4 banks) over one warm store
// with one sweep worker, as an iramsimd run answers it: every unit is a
// result-cache hit, and from the second run on a memory hit. What is
// left is job building, assembly and rendering.
func BenchmarkServeWarm(b *testing.B) {
	store, err := resultstore.NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	req := Request{Experiments: []string{"fig7", "fig8", "fig11", "fig12", "table3", "table4", "banks"}, Quick: true}
	run := func() {
		if err := Run(context.Background(), req, Config{Out: io.Discard, ResultCache: store, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	run() // untimed cold pass populates the store
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed())/float64(b.N)/1e6, "ms/op")
}
