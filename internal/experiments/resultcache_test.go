package experiments

import (
	"context"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/resultstore"
	"repro/internal/sweep"
)

// rcQuick returns the reduced-fidelity options the result-cache tests
// share: small budgets, deterministic seed.
func rcQuick() Options {
	o := Quick()
	o.Budget = 50_000
	o.GSPNInstr = 2_000
	return o
}

// runJob executes one job through a cache-equipped engine and returns
// the assembled value.
func runJob(t *testing.T, j sweep.Job, workers int, cache sweep.ResultCache) interface{} {
	t.Helper()
	eng := &sweep.Engine{Workers: workers, Cache: cache}
	var got interface{}
	if err := eng.Run(context.Background(), []sweep.Job{j}, func(r sweep.JobResult) error {
		got = r.Value
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestResultKeysStableAndUnique is the key-stability guard: every
// registered experiment's keyed units must carry mutually distinct keys
// and stable names, key derivation must be deterministic across job
// rebuilds, and it must not depend on runtime knobs like the worker
// count. A unit RENAME changes its key — that is the documented
// invalidation mechanism (sweep.Unit.Key), and this test is what fails
// when a rename happens accidentally.
func TestResultKeysStableAndUnique(t *testing.T) {
	build := func(o Options) (names []string, keys []string, codecs []bool) {
		for _, name := range SweepNames() {
			ms := NewMeasurementSet(o)
			j, err := JobFor(name, o, ms)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range j.Units {
				names = append(names, j.Name+"|"+u.Name)
				keys = append(keys, u.Key)
				codecs = append(codecs, u.Codec != nil)
			}
		}
		return
	}

	oA := rcQuick()
	oB := rcQuick()
	oB.Workers = 7 // a runtime knob; must not reach the keys

	namesA, keysA, codecsA := build(oA)
	namesB, keysB, _ := build(oB)

	if !reflect.DeepEqual(namesA, namesB) {
		t.Fatal("unit names differ between two builds with equal fidelity options")
	}
	if !reflect.DeepEqual(keysA, keysB) {
		for i := range keysA {
			if keysA[i] != keysB[i] {
				t.Errorf("key for %s not deterministic:\n  %s\n  %s", namesA[i], keysA[i], keysB[i])
			}
		}
		t.Fatal("keys differ between two builds with equal fidelity options")
	}

	seenName := make(map[string]string)
	seenKey := make(map[string]string)
	for i, name := range namesA {
		if prev, dup := seenName[name]; dup {
			t.Errorf("duplicate unit name %q (also %q)", name, prev)
		}
		seenName[name] = name
		if keysA[i] == "" {
			continue // unkeyed units are legitimately uncacheable
		}
		if !codecsA[i] {
			t.Errorf("unit %s has a key but no codec", name)
		}
		if prev, dup := seenKey[keysA[i]]; dup {
			t.Errorf("units %s and %s share key %s", name, prev, keysA[i])
		}
		seenKey[keysA[i]] = name
	}

	// A fidelity parameter change must re-key the units that read it.
	oC := rcQuick()
	oC.Budget = oA.Budget + 1
	_, keysC, _ := build(oC)
	changed := false
	for i := range keysA {
		if keysA[i] != "" && keysA[i] != keysC[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("changing the budget re-keyed no unit")
	}
}

// TestEngineCacheRoundTripFig7: a cold run populates the store, a warm
// run decodes every unit, and the assembled results are identical.
func TestEngineCacheRoundTripFig7(t *testing.T) {
	o := rcQuick()
	store, err := resultstore.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	cold := runJob(t, Fig7Job(o, NewMeasurementSet(o)), 4, store).(*Fig7Result)
	entries, err := os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(Fig7Job(o, NewMeasurementSet(o)).Units) {
		t.Fatalf("cold run stored %d entries, want one per unit", len(entries))
	}
	warm := runJob(t, Fig7Job(o, NewMeasurementSet(o)), 2, store).(*Fig7Result)
	if !reflect.DeepEqual(cold, warm) {
		t.Error("warm result differs from cold result")
	}
	none := runJob(t, Fig7Job(o, NewMeasurementSet(o)), 1, nil).(*Fig7Result)
	if !reflect.DeepEqual(cold, none) {
		t.Error("cached result differs from uncached result")
	}
}

// TestEngineCacheCorruptionRecovers: corrupt and stale-schema cache
// entries at the units' real keys must read as misses — the experiment
// recomputes and the result is identical, never wrong.
func TestEngineCacheCorruptionRecovers(t *testing.T) {
	o := rcQuick()
	store, err := resultstore.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := runJob(t, Fig7Job(o, NewMeasurementSet(o)), 4, store).(*Fig7Result)
	units := Fig7Job(o, NewMeasurementSet(o)).Units

	t.Run("bit-flip", func(t *testing.T) {
		for _, u := range units {
			raw, err := os.ReadFile(store.Path(u.Key))
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-3] ^= 0x20
			if err := os.WriteFile(store.Path(u.Key), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got := runJob(t, Fig7Job(o, NewMeasurementSet(o)), 4, store).(*Fig7Result)
		if !reflect.DeepEqual(want, got) {
			t.Error("recomputed result differs after corruption")
		}
	})

	t.Run("truncated", func(t *testing.T) {
		for _, u := range units {
			raw, err := os.ReadFile(store.Path(u.Key))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(store.Path(u.Key), raw[:len(raw)/3], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got := runJob(t, Fig7Job(o, NewMeasurementSet(o)), 4, store).(*Fig7Result)
		if !reflect.DeepEqual(want, got) {
			t.Error("recomputed result differs after truncation")
		}
	})

	t.Run("stale-schema-version", func(t *testing.T) {
		// An entry written at the current key but with an older codec
		// version (e.g. by a buggy or rolled-back writer): the header
		// check fails, the engine recomputes and heals the entry.
		stale := gobCodec[Fig7Row]{name: fig7Codec.name, version: fig7Codec.version - 1}
		for i, u := range units {
			data, err := stale.Encode(Fig7Row{Bench: "stale", Conv: map[int]float64{8: float64(i)}})
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Put(u.Key, data); err != nil {
				t.Fatal(err)
			}
		}
		got := runJob(t, Fig7Job(o, NewMeasurementSet(o)), 4, store).(*Fig7Result)
		if !reflect.DeepEqual(want, got) {
			t.Error("stale-schema entries leaked into the result")
		}
		for _, row := range got.Rows {
			if row.Bench == "stale" {
				t.Fatal("a stale entry's payload surfaced as a result row")
			}
		}
		// The recompute healed the entries: a further run decodes them.
		again := runJob(t, Fig7Job(o, NewMeasurementSet(o)), 4, store).(*Fig7Result)
		if !reflect.DeepEqual(want, again) {
			t.Error("healed entries decode to a different result")
		}
	})
}

// TestDesignspaceCachedMatchesUncached: the search with a result cache
// — cold, then warm, including the nested GSPN stage — must reproduce
// the uncached search exactly, accounting included. The accounting
// counts the passes the search is built from, so a warm run that
// decodes every family summary reports the same ledger as a cold one;
// the work a run did shows up as result-cache misses instead.
func TestDesignspaceCachedMatchesUncached(t *testing.T) {
	o := rcQuick()
	plain := run[*DesignspaceResult](t, "designspace", o, nil)

	store, err := resultstore.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o.ResultCache = store
	o.Workers = 4
	cold := runJob(t, DesignspaceJob(o, nil), 4, store).(*DesignspaceResult)
	warm := runJob(t, DesignspaceJob(o, nil), 2, store).(*DesignspaceResult)

	if !reflect.DeepEqual(plain.Rows, cold.Rows) || !reflect.DeepEqual(plain.Frontier, cold.Frontier) {
		t.Error("cold cached search differs from uncached search")
	}
	if plain.Accounting != cold.Accounting {
		t.Errorf("cold accounting %+v != uncached %+v", cold.Accounting, plain.Accounting)
	}
	if !reflect.DeepEqual(plain.Rows, warm.Rows) || !reflect.DeepEqual(plain.Frontier, warm.Frontier) {
		t.Error("warm cached search differs from uncached search")
	}
	if warm.Accounting != plain.Accounting {
		t.Errorf("warm accounting %+v != uncached %+v", warm.Accounting, plain.Accounting)
	}

	// Refinement reuse: widening an axis re-keys only the families whose
	// registered point set changed; unchanged families decode from the
	// store. The victim axis is shared by every column family here, so
	// instead widen banks — both families change registration, but the
	// gspn stage's keys for previously evaluated (point, bench) pairs are
	// registration-independent and must hit.
	names := map[string]bool{}
	for _, u := range DesignspaceJob(o, nil).Units {
		names[u.Key] = true
	}
	o2 := o
	o2.DSBanks = []int{8, 16, 32, 64}
	for _, u := range DesignspaceJob(o2, nil).Units {
		if names[u.Key] {
			t.Errorf("family unit key unchanged after widening the banks axis: %s", u.Key)
		}
		if !strings.Contains(u.Key, "-") {
			t.Errorf("malformed key %q", u.Key)
		}
	}
}
