package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety: a nil registry and all nil metric handles are usable
// no-ops — the "instrumentation off" configuration every hot path
// compiles against.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("f", "c").Inc()
	r.Counter("f", "c").Add(5)
	r.Gauge("f", "g").Set(3)
	r.Gauge("f", "g").SetMax(9)
	r.Running("f", "r").Add(1.5)
	r.Histogram("f", "h", 0, 1, 4).Add(0.5)
	if got := r.Counter("f", "c").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	if len(r.Snapshot()) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

// TestRegistryIdempotent: the same (family, name) always yields the
// same metric, so concurrent publishers accumulate.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("fam", "n")
	b := r.Counter("fam", "n")
	if a != b {
		t.Fatal("Counter not idempotent")
	}
	a.Add(2)
	b.Add(3)
	if got := r.Counter("fam", "n").Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if h1, h2 := r.Histogram("f", "h", 0, 10, 4), r.Histogram("f", "h", 0, 99, 7); h1 != h2 {
		t.Error("Histogram not idempotent")
	}
}

// TestConcurrentCounters: many goroutines bumping the same counters and
// gauges produce exact totals (run under -race in CI).
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("f", "ops")
			g := r.Gauge("f", "hi")
			a := r.Running("f", "x")
			for i := 0; i < each; i++ {
				c.Inc()
				g.SetMax(int64(w*each + i))
				a.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("f", "ops").Value(); got != workers*each {
		t.Errorf("ops = %d, want %d", got, workers*each)
	}
	if got := r.Gauge("f", "hi").Value(); got != workers*each-1 {
		t.Errorf("hi = %d, want %d", got, workers*each-1)
	}
	snap := r.Running("f", "x").Snapshot()
	if got := snap.N(); got != workers*each {
		t.Errorf("running n = %d, want %d", got, workers*each)
	}
}

// TestWriteJSONSanitised: the dump parses with encoding/json even when
// the underlying statistics could misbehave, and empty accumulators
// render n=0 with all-zero moments rather than NaN.
func TestWriteJSONSanitised(t *testing.T) {
	r := NewRegistry()
	r.Counter("sweep", "units").Add(7)
	r.Running("sweep", "empty") // n == 0: every derived stat must be 0
	one := r.Running("sweep", "single")
	one.Add(42)                                      // n == 1: stderr/CI must be 0, not NaN
	r.Histogram("cache", "lat", 0, 100, 10).Add(250) // clamped
	r.Histogram("cache", "none", 0, 1, 2)            // empty

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if s := buf.String(); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Fatalf("dump contains NaN/Inf:\n%s", s)
	}
	var parsed map[string]map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("dump does not parse: %v\n%s", err, buf.String())
	}
	if _, ok := parsed["sweep"]; !ok {
		t.Error("missing sweep family")
	}
	single := parsed["sweep"]["single"].(map[string]interface{})
	if single["n"].(float64) != 1 || single["stderr"].(float64) != 0 {
		t.Errorf("single-sample running = %v, want n=1 stderr=0", single)
	}
}

// TestSafe: the sanitiser maps every non-finite value to 0.
func TestSafe(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := safe(v); got != 0 {
			t.Errorf("safe(%v) = %v, want 0", v, got)
		}
	}
	if got := safe(1.5); got != 1.5 {
		t.Errorf("safe(1.5) = %v", got)
	}
}

// TestServeDebug: the debug server exposes expvar, pprof, and the
// metrics dump over HTTP on an ephemeral port.
func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("mpsim", "accesses").Add(11)
	srv, err := r.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	defer srv.Close()
	for path, want := range map[string]string{
		"/debug/metrics":      `"accesses": 11`,
		"/debug/vars":         `"iramsim"`,
		"/debug/pprof/":       "profiles",
		"/debug/pprof/symbol": "",
	} {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var body bytes.Buffer
		_, _ = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if want != "" && !strings.Contains(body.String(), want) {
			t.Errorf("GET %s: body missing %q:\n%s", path, want, body.String())
		}
	}
}
