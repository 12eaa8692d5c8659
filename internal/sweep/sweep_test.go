package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// slowFirst builds a job whose first unit finishes last under a
// parallel pool, so emission order is exercised against completion
// order.
func slowFirst(name string, n int) Job {
	units := make([]Unit, n)
	for i := range units {
		i := i
		d := time.Duration(n-i) * time.Millisecond
		units[i] = Unit{
			Name: fmt.Sprintf("%s/u%d", name, i),
			Run: func() (interface{}, error) {
				time.Sleep(d)
				return i * i, nil
			},
		}
	}
	return Job{Name: name, Units: units, Assemble: func(parts []interface{}) (interface{}, error) {
		sum := 0
		for _, p := range parts {
			sum += p.(int)
		}
		return sum, nil
	}}
}

func runAll(t *testing.T, workers int, jobs []Job) []JobResult {
	t.Helper()
	var got []JobResult
	e := &Engine{Workers: workers}
	if err := e.Run(context.Background(), jobs, func(r JobResult) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatalf("Run(workers=%d): %v", workers, err)
	}
	return got
}

// TestOrderingAcrossWorkerCounts: jobs are emitted in submission order
// with identical values regardless of the worker count, even when unit
// completion order is reversed by construction.
func TestOrderingAcrossWorkerCounts(t *testing.T) {
	mk := func() []Job {
		return []Job{slowFirst("a", 5), slowFirst("b", 3), slowFirst("c", 4)}
	}
	ref := runAll(t, 1, mk())
	if len(ref) != 3 {
		t.Fatalf("got %d results, want 3", len(ref))
	}
	for _, workers := range []int{2, 4, 16} {
		got := runAll(t, workers, mk())
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i].Name != ref[i].Name || !reflect.DeepEqual(got[i].Value, ref[i].Value) ||
				got[i].Units != ref[i].Units {
				t.Errorf("workers=%d job %d: got (%s, %v, %d), want (%s, %v, %d)",
					workers, i, got[i].Name, got[i].Value, got[i].Units,
					ref[i].Name, ref[i].Value, ref[i].Units)
			}
		}
	}
}

// TestRunSerialParity: Engine.Run and RunSerial assemble the same
// values from the same job.
func TestRunSerialParity(t *testing.T) {
	serial, err := RunSerial(slowFirst("p", 4))
	if err != nil {
		t.Fatal(err)
	}
	got := runAll(t, 8, []Job{slowFirst("p", 4)})
	if !reflect.DeepEqual(got[0].Value, serial) {
		t.Errorf("parallel %v != serial %v", got[0].Value, serial)
	}
}

// TestErrorPropagation: the first failing unit's name wraps the error,
// later units are canceled, and no further jobs are emitted.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	var ranLate sync.Mutex
	late := 0
	jobs := []Job{
		{
			Name: "bad",
			Units: []Unit{
				{Name: "bad/ok", Run: func() (interface{}, error) { return 1, nil }},
				{Name: "bad/fail", Run: func() (interface{}, error) { return nil, boom }},
			},
			Assemble: func(parts []interface{}) (interface{}, error) { return parts, nil },
		},
	}
	// Cancellation is best-effort: the stop flag is set by the
	// coordinator after it sees the failure, so a unit already pulled by
	// a worker may still run. With many slow trailing units the flag
	// must land well before the queue drains.
	const trailing = 50
	afterUnits := make([]Unit, trailing)
	for i := range afterUnits {
		afterUnits[i] = Unit{
			Name: fmt.Sprintf("after/u%d", i),
			Run: func() (interface{}, error) {
				time.Sleep(time.Millisecond)
				ranLate.Lock()
				late++
				ranLate.Unlock()
				return 2, nil
			},
		}
	}
	jobs = append(jobs, Job{
		Name:     "after",
		Units:    afterUnits,
		Assemble: func(parts []interface{}) (interface{}, error) { return len(parts), nil },
	})
	var emitted []string
	e := &Engine{Workers: 1}
	err := e.Run(context.Background(), jobs, func(r JobResult) error {
		emitted = append(emitted, r.Name)
		return nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "bad/fail") {
		t.Errorf("error %q does not name the failing unit", err)
	}
	if len(emitted) != 0 {
		t.Errorf("emitted %v after failure, want none", emitted)
	}
	ranLate.Lock()
	defer ranLate.Unlock()
	if late >= trailing {
		t.Errorf("all %d trailing units ran after the failure, want cancellation", trailing)
	}
}

// TestAssembleError: an assembly failure is reported with the job name.
func TestAssembleError(t *testing.T) {
	j := Job{
		Name:  "asm",
		Units: []Unit{{Name: "asm/u", Run: func() (interface{}, error) { return 1, nil }}},
		Assemble: func(parts []interface{}) (interface{}, error) {
			return nil, errors.New("mismatch")
		},
	}
	e := &Engine{Workers: 2}
	err := e.Run(context.Background(), []Job{j}, nil)
	if err == nil || !strings.Contains(err.Error(), "asm") {
		t.Fatalf("err = %v, want assembly error naming job", err)
	}
}

// TestPanicsFailTheRun: a panic in a unit or in an assembly fails the
// run like an error, instead of ending the process. The error names the
// unit or job and carries the panic value and the stack, the failed
// unit is counted, later units are skipped, and the panicking cacheable
// unit leaves no result-store entry and releases its key.
func TestPanicsFailTheRun(t *testing.T) {
	t.Run("unit", func(t *testing.T) {
		const trailing = 50
		var ran atomic.Int64
		after := make([]Unit, trailing)
		for i := range after {
			after[i] = Unit{Name: fmt.Sprintf("after/u%d", i), Run: func() (interface{}, error) {
				time.Sleep(time.Millisecond)
				ran.Add(1)
				return 0, nil
			}}
		}
		jobs := []Job{
			{Name: "bad", Units: []Unit{{Name: "bad/panics", Key: "bad-key", Codec: intCodec{},
				Run: func() (interface{}, error) { panic("boom") }}},
				Assemble: func(parts []interface{}) (interface{}, error) { return parts[0], nil }},
			{Name: "after", Units: after, Assemble: func(parts []interface{}) (interface{}, error) { return len(parts), nil }},
		}
		cache := newMapCache()
		reg := obs.NewRegistry()
		var failed []UnitEvent
		e := &Engine{Workers: 1, Cache: cache, Obs: reg, OnUnit: func(ev UnitEvent) {
			if ev.Err != nil {
				failed = append(failed, ev)
			}
		}}
		err := e.Run(context.Background(), jobs, func(r JobResult) error {
			t.Errorf("emitted %s after a unit panicked", r.Name)
			return nil
		})
		if err == nil {
			t.Fatal("a panicking unit did not fail the run")
		}
		for _, want := range []string{"bad/panics", "panic: boom", "TestPanicsFailTheRun"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error does not carry %q:\n%v", want, err)
			}
		}
		if len(failed) != 1 || failed[0].Unit != "bad/panics" {
			t.Errorf("failed unit events %+v, want one for bad/panics", failed)
		}
		if got := reg.Counter("sweep", "units_failed").Value(); got != 1 {
			t.Errorf("units_failed = %d, want 1", got)
		}
		if got := reg.Counter("sweep", "units_skipped").Value(); got == 0 || ran.Load()+got != trailing {
			t.Errorf("%d units skipped and %d ran after the panic, want skips accounting for the rest of %d", got, ran.Load(), trailing)
		}
		if _, ok := cache.Get("bad-key"); ok {
			t.Error("the panicking unit wrote a result-store entry")
		}
		cache.Acquire("bad-key")() // hangs if the panic left the key held
	})

	t.Run("assembly", func(t *testing.T) {
		j := Job{
			Name:     "asm",
			Units:    []Unit{{Name: "asm/u", Run: func() (interface{}, error) { return 1, nil }}},
			Assemble: func(parts []interface{}) (interface{}, error) { panic(fmt.Sprintf("bad part %v", parts[0])) },
		}
		e := &Engine{Workers: 2}
		_, err := e.RunJob(context.Background(), j)
		if err == nil {
			t.Fatal("a panicking assembly did not fail the run")
		}
		for _, want := range []string{"asm: panic: bad part 1", "TestPanicsFailTheRun"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error does not carry %q:\n%v", want, err)
			}
		}
	})
}

// TestEmitError: an emit failure stops the sweep and is returned,
// wrapped with the job name exactly like Assemble errors are.
func TestEmitError(t *testing.T) {
	stop := errors.New("emit failed")
	e := &Engine{Workers: 2}
	err := e.Run(context.Background(), []Job{slowFirst("x", 2)}, func(JobResult) error { return stop })
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want emit error", err)
	}
	if !strings.Contains(err.Error(), "x:") {
		t.Errorf("emit error %q does not name the job like Assemble errors do", err)
	}
}

// TestMoreWorkersThanUnits: worker count far above the unit count.
func TestMoreWorkersThanUnits(t *testing.T) {
	got := runAll(t, 64, []Job{slowFirst("w", 2)})
	if len(got) != 1 || got[0].Value.(int) != 1 {
		t.Fatalf("got %+v", got)
	}
}

// TestZeroUnitJobs: empty jobs assemble and emit in order, including
// at the head, middle, and tail of the queue, and with no jobs at all.
func TestZeroUnitJobs(t *testing.T) {
	empty := func(name string) Job {
		return Job{Name: name, Assemble: func(parts []interface{}) (interface{}, error) {
			if len(parts) != 0 {
				return nil, fmt.Errorf("got %d parts", len(parts))
			}
			return name, nil
		}}
	}
	got := runAll(t, 4, []Job{empty("head"), slowFirst("mid", 2), empty("in"), empty("tail")})
	names := make([]string, len(got))
	for i, r := range got {
		names[i] = r.Name
	}
	want := []string{"head", "mid", "in", "tail"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("emit order %v, want %v", names, want)
	}

	if got := runAll(t, 4, nil); len(got) != 0 {
		t.Errorf("no jobs: emitted %d results", len(got))
	}
}

// TestSingle: Single wraps a function as a one-unit job.
func TestSingle(t *testing.T) {
	j := Single("one", func() (interface{}, error) { return "v", nil })
	if len(j.Units) != 1 || j.Units[0].Name != "one" {
		t.Fatalf("bad job %+v", j)
	}
	v, err := RunSerial(j)
	if err != nil || v != "v" {
		t.Fatalf("RunSerial = %v, %v", v, err)
	}
}

// TestEngineObs: the engine publishes unit/job accounting into the
// registry, and each unit event names the worker that ran it and when
// that worker picked it up.
func TestEngineObs(t *testing.T) {
	reg := obs.NewRegistry()
	var events []UnitEvent
	before := time.Now()
	e := &Engine{Workers: 2, Obs: reg, OnUnit: func(ev UnitEvent) { events = append(events, ev) }}
	jobs := []Job{slowFirst("a", 3), slowFirst("b", 2)}
	if err := e.Run(context.Background(), jobs, func(JobResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"units_total":     5,
		"units_completed": 5,
		"units_failed":    0,
		"units_skipped":   0,
		"jobs_emitted":    2,
	} {
		if got := reg.Counter("sweep", name).Value(); got != want {
			t.Errorf("sweep/%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("sweep", "workers").Value(); got != 2 {
		t.Errorf("workers gauge = %d, want 2", got)
	}
	snap := reg.Running("sweep", "unit_seconds").Snapshot()
	if snap.N() != 5 {
		t.Errorf("unit_seconds n = %d, want 5", snap.N())
	}
	if len(events) != 5 {
		t.Fatalf("got %d unit events, want 5", len(events))
	}
	for _, ev := range events {
		if ev.Worker < 0 || ev.Worker >= 2 {
			t.Errorf("%s: Worker = %d, want 0 or 1", ev.Unit, ev.Worker)
		}
		if ev.Start.Before(before) {
			t.Errorf("%s: Start %v not set to the pickup time", ev.Unit, ev.Start)
		}
	}
}

// mapCache is an in-memory ResultCache for engine tests.
type mapCache struct {
	mu   sync.Mutex
	m    map[string][]byte
	held map[string]bool
	// overlap is set if two holders ever acquire one key concurrently.
	overlap bool
}

func newMapCache() *mapCache {
	return &mapCache{m: map[string][]byte{}, held: map[string]bool{}}
}

func (c *mapCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.m[key]
	return b, ok
}

func (c *mapCache) Put(key string, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = append([]byte(nil), data...)
	return nil
}

func (c *mapCache) Acquire(key string) func() {
	for {
		c.mu.Lock()
		if !c.held[key] {
			c.held[key] = true
			c.mu.Unlock()
			return func() {
				c.mu.Lock()
				c.held[key] = false
				c.mu.Unlock()
			}
		}
		c.overlap = true
		c.mu.Unlock()
		time.Sleep(100 * time.Microsecond)
	}
}

// intCodec encodes ints as decimal strings.
type intCodec struct{}

func (intCodec) Encode(v interface{}) ([]byte, error) {
	return []byte(fmt.Sprintf("%d", v.(int))), nil
}

func (intCodec) Decode(data []byte) (interface{}, error) {
	var n int
	if _, err := fmt.Sscanf(string(data), "%d", &n); err != nil {
		return nil, err
	}
	return n, nil
}

// cachedJob builds a job of n keyed units that count their executions.
func cachedJob(name string, n int, ran *int64) Job {
	units := make([]Unit, n)
	for i := range units {
		i := i
		units[i] = Unit{
			Name:  fmt.Sprintf("%s/u%d", name, i),
			Key:   fmt.Sprintf("%s-u%d-key", name, i),
			Codec: intCodec{},
			Run: func() (interface{}, error) {
				atomic.AddInt64(ran, 1)
				return i * i, nil
			},
		}
	}
	return Job{Name: name, Units: units, Assemble: func(parts []interface{}) (interface{}, error) {
		sum := 0
		for _, p := range parts {
			sum += p.(int)
		}
		return sum, nil
	}}
}

// TestEngineCache: a cold run computes and stores every keyed unit; a
// warm run decodes every one without calling Run, with identical
// assembled values, and the resultcache metrics account for both.
func TestEngineCache(t *testing.T) {
	cache := newMapCache()
	reg := obs.NewRegistry()
	var ran int64

	e := &Engine{Workers: 4, Cache: cache, Obs: reg}
	cold, err := e.RunJob(context.Background(), cachedJob("c", 6, &ran))
	if err != nil {
		t.Fatal(err)
	}
	if ran != 6 {
		t.Fatalf("cold run executed %d units, want 6", ran)
	}
	for name, want := range map[string]int64{
		"hits": 0, "misses": 6, "stores": 6, "decode_failures": 0,
	} {
		if got := reg.Counter("resultcache", name).Value(); got != want {
			t.Errorf("cold resultcache/%s = %d, want %d", name, got, want)
		}
	}

	warm, err := e.RunJob(context.Background(), cachedJob("c", 6, &ran))
	if err != nil {
		t.Fatal(err)
	}
	if ran != 6 {
		t.Errorf("warm run executed %d more units, want 0", ran-6)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm value %v != cold value %v", warm, cold)
	}
	if got := reg.Counter("resultcache", "hits").Value(); got != 6 {
		t.Errorf("warm hits = %d, want 6", got)
	}
	if got := reg.Counter("resultcache", "bytes_read").Value(); got == 0 {
		t.Error("bytes_read stayed 0 across a warm run")
	}
	if got := reg.Counter("resultcache", "bytes_written").Value(); got == 0 {
		t.Error("bytes_written stayed 0 across a cold run")
	}
	if cache.overlap {
		t.Error("two units held one key concurrently")
	}
}

// TestEngineCacheDecodeFailure: a corrupt entry is a counted miss that
// recomputes and heals the cache — never an error, never a wrong value.
func TestEngineCacheDecodeFailure(t *testing.T) {
	cache := newMapCache()
	reg := obs.NewRegistry()
	var ran int64

	e := &Engine{Workers: 2, Cache: cache, Obs: reg}
	if _, err := e.RunJob(context.Background(), cachedJob("d", 3, &ran)); err != nil {
		t.Fatal(err)
	}
	for k := range cache.m {
		cache.m[k] = []byte("not a number")
	}
	v, err := e.RunJob(context.Background(), cachedJob("d", 3, &ran))
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 0+1+4 {
		t.Errorf("value after corruption = %v, want 5", v)
	}
	if ran != 6 {
		t.Errorf("corrupt entries recomputed %d units, want 3", ran-3)
	}
	if got := reg.Counter("resultcache", "decode_failures").Value(); got != 3 {
		t.Errorf("decode_failures = %d, want 3", got)
	}
	// The recompute overwrote the corrupt entries: a third run hits.
	if _, err := e.RunJob(context.Background(), cachedJob("d", 3, &ran)); err != nil {
		t.Fatal(err)
	}
	if ran != 6 {
		t.Errorf("run after heal executed %d more units, want 0", ran-6)
	}
}

// TestEngineCacheUnkeyedUnits: units without Key or Codec bypass the
// cache entirely.
func TestEngineCacheUnkeyedUnits(t *testing.T) {
	cache := newMapCache()
	var ran int64
	mk := func() Job {
		return Job{Name: "u", Units: []Unit{{
			Name: "u/plain",
			Run: func() (interface{}, error) {
				atomic.AddInt64(&ran, 1)
				return 7, nil
			},
		}}, Assemble: func(parts []interface{}) (interface{}, error) { return parts[0], nil }}
	}
	e := &Engine{Workers: 1, Cache: cache}
	for i := 0; i < 2; i++ {
		if _, err := e.RunJob(context.Background(), mk()); err != nil {
			t.Fatal(err)
		}
	}
	if ran != 2 {
		t.Errorf("unkeyed unit ran %d times, want 2 (no caching)", ran)
	}
	if len(cache.m) != 0 {
		t.Errorf("unkeyed unit stored %d entries", len(cache.m))
	}
}

// TestQueueDepth: queue_depth_max records the true high-water mark of
// outstanding units (not a one-shot len(tasks) stamp) and queue_depth
// drains back to zero; a smaller later run on the same registry leaves
// the mark at the larger batch.
func TestQueueDepth(t *testing.T) {
	reg := obs.NewRegistry()
	e := &Engine{Workers: 2, Obs: reg}
	if err := e.Run(context.Background(), []Job{slowFirst("big", 5)}, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("sweep", "queue_depth_max").Value(); got != 5 {
		t.Errorf("queue_depth_max = %d, want 5", got)
	}
	if got := reg.Gauge("sweep", "queue_depth").Value(); got != 0 {
		t.Errorf("queue_depth after run = %d, want 0", got)
	}
	if err := e.Run(context.Background(), []Job{slowFirst("small", 2)}, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("sweep", "queue_depth_max").Value(); got != 5 {
		t.Errorf("queue_depth_max after smaller run = %d, want 5 (high-water)", got)
	}
	if got := reg.Gauge("sweep", "queue_depth").Value(); got != 0 {
		t.Errorf("queue_depth after second run = %d, want 0", got)
	}
}

// TestRunContextCancel: canceling mid-sweep skips everything still
// queued with the same accounting as post-failure skips (counted,
// reported, Completed never skips numbers), leaves no cache entry for a
// unit that never ran, and returns ctx.Err().
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cache := newMapCache()
	reg := obs.NewRegistry()

	started := make(chan struct{}, 2)
	release := make(chan struct{})
	var lateRan int64
	units := make([]Unit, 4)
	for i := range units {
		i := i
		units[i] = Unit{
			Name:  fmt.Sprintf("cancel/u%d", i),
			Key:   fmt.Sprintf("cancel-u%d-key", i),
			Codec: intCodec{},
		}
		if i < 2 {
			units[i].Run = func() (interface{}, error) {
				started <- struct{}{}
				<-release
				return i, nil
			}
		} else {
			units[i].Run = func() (interface{}, error) {
				atomic.AddInt64(&lateRan, 1)
				return i, nil
			}
		}
	}
	job := Job{Name: "cancel", Units: units, Assemble: func(parts []interface{}) (interface{}, error) {
		return len(parts), nil
	}}

	emitted := 0
	var events []UnitEvent
	e := &Engine{Workers: 2, Obs: reg, Cache: cache, OnUnit: func(ev UnitEvent) { events = append(events, ev) }}
	errCh := make(chan error, 1)
	go func() {
		errCh <- e.Run(ctx, []Job{job}, func(JobResult) error {
			emitted++
			return nil
		})
	}()
	<-started
	<-started // both workers are mid-unit; units 2 and 3 still queued
	cancel()
	close(release)
	err := <-errCh

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if lateRan != 0 {
		t.Errorf("queued units ran %d times after cancellation, want 0", lateRan)
	}
	if emitted != 0 {
		t.Errorf("job with skipped units was emitted %d times, want 0", emitted)
	}
	if got := reg.Counter("sweep", "units_skipped").Value(); got != 2 {
		t.Errorf("units_skipped = %d, want 2", got)
	}
	if got := reg.Counter("sweep", "units_completed").Value(); got != 2 {
		t.Errorf("units_completed = %d, want 2", got)
	}
	skipped := 0
	for i, ev := range events {
		if ev.Completed != i+1 || ev.Total != 4 {
			t.Errorf("event %d: Completed/Total = %d/%d, want %d/4", i, ev.Completed, ev.Total, i+1)
		}
		if ev.Skipped {
			skipped++
		}
	}
	if len(events) != 4 || skipped != 2 {
		t.Errorf("got %d events with %d skipped, want 4 with 2 skipped", len(events), skipped)
	}
	// In-flight units committed their results; skipped units must not
	// have partial (or any) entries.
	for i, u := range units {
		_, ok := cache.m[u.Key]
		if want := i < 2; ok != want {
			t.Errorf("cache entry for %s: present=%v, want %v", u.Name, ok, want)
		}
	}
}

// TestRunContextPreCanceled: a sweep started with an already-canceled
// context runs nothing, skips every unit, and emits no job.
func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	e := &Engine{Workers: 4}
	v, err := e.RunJob(ctx, cachedJob("pre", 6, &ran))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunJob = (%v, %v), want context.Canceled", v, err)
	}
	if ran != 0 {
		t.Errorf("%d units ran under a pre-canceled context", ran)
	}
	if v != nil {
		t.Errorf("canceled job returned a value: %v", v)
	}
}

// TestOnUnitEvents: OnUnit receives one event per unit in completion
// order, with Completed counting 1..Total and failures/skips marked.
func TestOnUnitEvents(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job{
		slowFirst("ok", 2),
		{Name: "bad", Units: []Unit{{Name: "bad/u0", Run: func() (interface{}, error) {
			return nil, boom
		}}}},
		slowFirst("after", 2),
	}
	var events []UnitEvent
	e := &Engine{Workers: 1, OnUnit: func(ev UnitEvent) { events = append(events, ev) }}
	err := e.Run(context.Background(), jobs, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want boom", err)
	}
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5: %+v", len(events), events)
	}
	var failed, skipped, completed int
	for i, ev := range events {
		if ev.Completed != i+1 || ev.Total != 5 {
			t.Errorf("event %d: Completed/Total = %d/%d, want %d/5", i, ev.Completed, ev.Total, i+1)
		}
		switch {
		case ev.Err != nil:
			failed++
			if ev.Job != "bad" {
				t.Errorf("failure attributed to job %q, want bad", ev.Job)
			}
		case ev.Skipped:
			skipped++
		default:
			completed++
			if ev.Elapsed < 0 {
				t.Errorf("event %d: negative Elapsed", i)
			}
		}
	}
	// The stop flag is advisory for the worker loop, so how many of the
	// trailing units run vs skip is timing-dependent; the invariant is
	// that every unit is accounted exactly once.
	if failed != 1 || completed+skipped != 4 {
		t.Errorf("completed/failed/skipped = %d/%d/%d, want 1 failure and 4 others", completed, failed, skipped)
	}
}
