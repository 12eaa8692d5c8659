package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
		{"bad-machine-json", Request{Experiments: []string{"spec"}, Machine: json.RawMessage(`{`)}, "machine config"},
		{"unknown-machine-field", Request{Experiments: []string{"spec"}, Machine: json.RawMessage(`{"NoSuchKnob":1}`)}, "machine config"},
		{"invalid-machine", Request{Experiments: []string{"spec"}, Machine: json.RawMessage(`{"Banks":0}`)}, "machine config"},
		// The Inter-Node Cache lives in the 32 MiB DRAM array.
		{"inc-over-array", Request{Experiments: []string{"fig13"}, Machine: json.RawMessage(`{"INCBytes":68719476736}`)}, "INC 68719476736 B outside"},
		// Each design-space axis takes up to MaxAxisValues values, the
		// cap the iramsim -ds-* flags enforce.
		{"ds_banks-at-cap", Request{Experiments: []string{"designspace"}, DSBanks: make([]int, MaxAxisValues)}, ""},
		{"ds_banks-over-cap", Request{Experiments: []string{"designspace"}, DSBanks: make([]int, MaxAxisValues+1)}, "ds_banks has 4097 values"},
		{"ds_columns-at-cap", Request{Experiments: []string{"designspace"}, DSColumns: make([]int, MaxAxisValues)}, ""},
		{"ds_columns-over-cap", Request{Experiments: []string{"designspace"}, DSColumns: make([]int, MaxAxisValues+1)}, "ds_columns has 4097 values"},
		{"ds_ways-at-cap", Request{Experiments: []string{"designspace"}, DSWays: make([]int, MaxAxisValues)}, ""},
		{"ds_ways-over-cap", Request{Experiments: []string{"designspace"}, DSWays: make([]int, MaxAxisValues+1)}, "ds_ways has 4097 values"},
		{"ds_victims-at-cap", Request{Experiments: []string{"designspace"}, DSVictims: make([]int, MaxAxisValues)}, ""},
		{"ds_victims-over-cap", Request{Experiments: []string{"designspace"}, DSVictims: make([]int, MaxAxisValues+1)}, "ds_victims has 4097 values"},
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
		`{"experiments":["designspace"],"ds_banks":[8,16],"ds_columns":[512],"ds_ways":[1,2],"ds_victims":[0,16],"ds_coarse":2,"ds_refine":1}`,
		`{"experiments":["spec"],"machine":{"DRAM":{"Banks":32,"ColumnBytes":256},"ICacheBytes":8192,"ICacheLineBytes":256,"DCacheBytes":16384,"DCacheLineBytes":256,"VictimEntries":8}}`,
		`{"experiments":["fig13"],"machine":{"INCBytes":68719476736}}`,
		`{"experiments":["fig13"],"machine":{"INCBytes":-512}}`,
		`{"experiments":["fig13"],"machine":{"INCBytes":0}}`,
		`{"experiments":["spec"],"machine":{"DRAM":{"PrechargeCycles":0}}}`,
		`{"experiments":["fig7"],"bogus":1}`,
		`{"experiments":`,
		``,
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
// as two processes would.
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
	req := quickReq("fig7")

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
	if hits == 0 || misses != 0 {
		t.Errorf("warm run: hits=%d misses=%d, want hits>0 misses==0", hits, misses)
	}
	if units == 0 || skipped != 0 {
		t.Errorf("OnUnit saw %d units (%d skipped)", units, skipped)
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
