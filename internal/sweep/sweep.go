// Package sweep is the experiment sweep engine: it fans independent
// experiment units out across a pool of worker goroutines and
// reassembles their results in a deterministic order, so that a
// parallel sweep produces byte-identical output to a serial one.
//
// The model is the same shape as a batch scheduler: an experiment is a
// Job made of enumerable Units (the smallest independently runnable
// pieces — one workload measurement, one GSPN evaluation, one
// multiprocessor run), each a function of its inputs alone (any seed
// is one of them), never of scheduling. Workers execute units in
// whatever order the pool dictates; the engine buffers the
// partial results and assembles each job exactly once, emitting
// finished jobs strictly in submission order as their frontier
// completes. Determinism therefore holds for any worker count,
// including 1, which is the serial reference.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Unit is one independently runnable piece of an experiment. Run must
// be self-contained: any randomness must come from seeds closed over
// explicitly, and it must not mutate state shared with other units
// except through concurrency-safe structures (e.g. the single-flight
// measurement cache in internal/experiments).
type Unit struct {
	// Name labels the unit in progress and error reports
	// (e.g. "fig13/p=4/integrated + victim"). Unit names are cache-key
	// components (see Key): renaming a unit IS a cache invalidation,
	// deliberately — a rename usually accompanies a semantic change,
	// and a spurious miss only costs recomputation.
	Name string
	// Run computes the unit's partial result.
	Run func() (interface{}, error)
	// Key, when non-empty, content-addresses the unit's result: an
	// engine with a Cache consults it before calling Run and commits
	// the encoded result after. The key must cover every input Run's
	// value depends on (device hash, experiment, unit name, params,
	// seed, result schema version — see internal/experiments); two
	// units may share a key only if their results are byte-identical.
	// Empty means never cached.
	Key string
	// Codec encodes Run's result for the cache and decodes it back.
	// Required (along with Key) for the unit to be cacheable.
	Codec Codec
}

// Codec translates one unit-result type to and from cacheable bytes.
// Decode must return a value of the exact dynamic type Run produces —
// job Assemble steps type-assert on it — and must fail (not guess) on
// payloads written by another type or schema version; the engine
// treats any decode error as a miss and recomputes.
type Codec interface {
	Encode(v interface{}) ([]byte, error)
	Decode(data []byte) (interface{}, error)
}

// ResultCache is the on-disk result store seam (implemented by
// internal/resultstore): opaque keys to opaque payloads. Get reports a
// miss — never an error — for any absent or invalid entry; Put
// replaces atomically; Acquire single-flights in-process work per key
// so concurrent units sharing a key compute once.
type ResultCache interface {
	Get(key string) ([]byte, bool)
	Put(key string, data []byte) error
	Acquire(key string) (release func())
}

// Job is one experiment: an ordered list of units plus an assembly
// step that combines the partial results (given in unit order) into
// the experiment's final value.
type Job struct {
	Name  string
	Units []Unit
	// Assemble combines the unit results, parts[i] being Units[i]'s
	// return value. It runs on the coordinating goroutine, exactly
	// once, after every unit of the job has completed.
	Assemble func(parts []interface{}) (interface{}, error)
}

// Single wraps one function as a single-unit job.
func Single(name string, run func() (interface{}, error)) Job {
	return Job{
		Name:     name,
		Units:    []Unit{{Name: name, Run: run}},
		Assemble: func(parts []interface{}) (interface{}, error) { return parts[0], nil },
	}
}

// JobResult is one assembled experiment.
type JobResult struct {
	Name    string
	Value   interface{}
	Units   int
	Elapsed time.Duration // summed unit wall time (not wall-clock)
}

// Engine schedules units across workers.
type Engine struct {
	// Workers is the worker-pool size; values below 1 mean 1 (serial).
	Workers int
	// Obs, when non-nil, receives sweep metrics under the "sweep"
	// family: unit/job completion counters, per-unit and per-job
	// timings, worker count, and queue-depth high-water mark. A nil
	// registry costs one pointer check per hook.
	Obs *obs.Registry
	// Cache, when non-nil, memoizes unit results on disk: units
	// carrying a Key and a Codec decode a stored result instead of
	// running, and commit their result after running. Metrics appear
	// under the "resultcache" family. Store failures are non-fatal —
	// a broken cache degrades to recomputation, never to an error.
	Cache ResultCache
	// OnUnit, when non-nil, receives one structured event per unit as
	// it completes (or is skipped after a failure/cancellation). It is
	// the engine's only per-unit report: the CLI renders its progress
	// lines and -trace log from it, and the daemon streams it to HTTP
	// clients. It is called on the coordinating goroutine, in
	// completion order, so implementations need no locking but must
	// not block for long — the sweep's emit frontier waits behind it.
	OnUnit func(UnitEvent)
}

// UnitEvent describes one unit's completion for Engine.OnUnit.
type UnitEvent struct {
	// Job and Unit name the completed unit.
	Job, Unit string
	// Completed counts units finished so far (this one included);
	// Total is the sweep's unit count. Completed never skips numbers:
	// skipped and failed units count too.
	Completed, Total int
	// Worker is the pool worker (0-based) that ran or skipped the
	// unit, and Start is when that worker picked it up.
	Worker int
	Start  time.Time
	// Skipped marks a unit abandoned after an earlier failure or a
	// context cancellation; its Err is nil and it did not run.
	Skipped bool
	// Err is the unit's failure, nil on success and on skip.
	Err error
	// Elapsed is the unit's wall time (zero when skipped).
	Elapsed time.Duration
}

// cacheCounters holds the resolved "resultcache" metric handles; all
// nil-safe no-ops when the engine has no registry.
type cacheCounters struct {
	hits, misses, stores           *obs.Counter
	bytesRead, bytesWritten        *obs.Counter
	decodeFailures, encodeFailures *obs.Counter
}

func (e *Engine) cacheCounters() cacheCounters {
	return cacheCounters{
		hits:           e.Obs.Counter("resultcache", "hits"),
		misses:         e.Obs.Counter("resultcache", "misses"),
		stores:         e.Obs.Counter("resultcache", "stores"),
		bytesRead:      e.Obs.Counter("resultcache", "bytes_read"),
		bytesWritten:   e.Obs.Counter("resultcache", "bytes_written"),
		decodeFailures: e.Obs.Counter("resultcache", "decode_failures"),
		encodeFailures: e.Obs.Counter("resultcache", "encode_failures"),
	}
}

// execUnit runs one unit through the result cache when the unit is
// cacheable, otherwise directly. Acquire single-flights the key for
// the whole lookup-or-compute-and-store span, so N concurrent units
// sharing a key cost one computation and N-1 decodes. A panic in the
// unit becomes its error (see recovered) and stores nothing.
func (e *Engine) execUnit(u *Unit, cc *cacheCounters) (v interface{}, err error) {
	defer recovered(&err)
	if e.Cache == nil || u.Key == "" || u.Codec == nil {
		return u.Run()
	}
	release := e.Cache.Acquire(u.Key)
	defer release()
	if data, ok := e.Cache.Get(u.Key); ok {
		cc.bytesRead.Add(int64(len(data)))
		if v, err := u.Codec.Decode(data); err == nil {
			cc.hits.Inc()
			return v, nil
		}
		// Stale schema, foreign type, or garbled gob: recompute and
		// overwrite. Never an error, never a wrong result.
		cc.decodeFailures.Inc()
	}
	cc.misses.Inc()
	v, err = u.Run()
	if err != nil {
		return nil, err
	}
	if data, encErr := u.Codec.Encode(v); encErr == nil {
		if e.Cache.Put(u.Key, data) == nil {
			cc.stores.Inc()
			cc.bytesWritten.Add(int64(len(data)))
		}
	} else {
		cc.encodeFailures.Inc()
	}
	return v, nil
}

// recovered, deferred, turns a panic in the calling function into its
// error, carrying the panic value and the stack, so a panic in one
// unit or assembly fails that run like any other error instead of
// ending the process (the daemon included).
func recovered(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("panic: %v\n\n%s", p, debug.Stack())
	}
}

// errCanceled marks units skipped after the first failure.
var errCanceled = errors.New("sweep: canceled")

// task addresses one unit in the flattened schedule.
type task struct{ job, unit int }

type completion struct {
	t      task
	worker int
	start  time.Time
	val    interface{}
	err    error
	dur    time.Duration
}

// Run executes every unit of every job across the worker pool and
// calls emit for each job, in job order, as soon as the job's units
// and every earlier job are complete (so output streams during the
// sweep). It returns the first unit or assembly error; emit may have
// been called for jobs that finished before the failure.
//
// When ctx is canceled the engine stops scheduling units — workers
// skip everything still queued (each skip accounted exactly like a
// post-failure skip: counted and reported, so the Completed count
// never skips numbers) — in-flight units run to completion, and Run
// returns ctx.Err(). Jobs whose every unit completed are still
// assembled and emitted; a job with any skipped unit never assembles,
// so no partially assembled job is ever emitted, and a skipped
// cacheable unit leaves no result-store entry (it never ran). An
// abandoned HTTP request cancels its sweep this way, freeing the
// worker pool for the next queued run.
func (e *Engine) Run(ctx context.Context, jobs []Job, emit func(JobResult) error) error {
	workers := e.Workers
	if workers < 1 {
		workers = 1
	}

	var tasks []task
	for ji := range jobs {
		for ui := range jobs[ji].Units {
			tasks = append(tasks, task{ji, ui})
		}
	}
	if workers > len(tasks) && len(tasks) > 0 {
		workers = len(tasks)
	}

	// Metric handles are resolved once here; all of them are nil-safe
	// no-ops when e.Obs is nil.
	cCompleted := e.Obs.Counter("sweep", "units_completed")
	cFailed := e.Obs.Counter("sweep", "units_failed")
	cSkipped := e.Obs.Counter("sweep", "units_skipped")
	cEmitted := e.Obs.Counter("sweep", "jobs_emitted")
	rUnit := e.Obs.Running("sweep", "unit_seconds")
	rJob := e.Obs.Running("sweep", "job_seconds")
	gQueue := e.Obs.Gauge("sweep", "queue_depth")
	gQueueMax := e.Obs.Gauge("sweep", "queue_depth_max")
	e.Obs.Gauge("sweep", "workers").Set(int64(workers))
	e.Obs.Counter("sweep", "units_total").Add(int64(len(tasks)))
	cc := e.cacheCounters()

	// queue_depth tracks outstanding (queued + running) units live and
	// queue_depth_max is its high-water mark: it rises as tasks are
	// submitted below and falls as completions drain, so across every
	// Run sharing a registry it reads as the most units outstanding at
	// once, and it returns to zero when all sweeps are done.
	taskCh := make(chan task, len(tasks))
	for _, t := range tasks {
		taskCh <- t
		gQueueMax.SetMax(gQueue.Add(1))
	}
	close(taskCh)

	doneCh := make(chan completion, workers+1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for t := range taskCh {
				start := time.Now()
				if stop.Load() || ctx.Err() != nil {
					doneCh <- completion{t: t, worker: w, start: start, err: errCanceled}
					continue
				}
				v, err := e.execUnit(&jobs[t.job].Units[t.unit], &cc)
				doneCh <- completion{t: t, worker: w, start: start, val: v, err: err, dur: time.Since(start)}
			}
		}(w)
	}

	parts := make([][]interface{}, len(jobs))
	elapsed := make([]time.Duration, len(jobs))
	remaining := make([]int, len(jobs))
	for ji := range jobs {
		parts[ji] = make([]interface{}, len(jobs[ji].Units))
		remaining[ji] = len(jobs[ji].Units)
	}

	next := 0 // frontier: next job to assemble and emit
	var firstErr error

	// flush assembles and emits every complete job at the frontier.
	flush := func() {
		for next < len(jobs) && remaining[next] == 0 && firstErr == nil {
			j := jobs[next]
			v, err := assemble(j, parts[next])
			if err != nil {
				firstErr = fmt.Errorf("%s: %w", j.Name, err)
				stop.Store(true)
				return
			}
			if emit != nil {
				if err := emit(JobResult{Name: j.Name, Value: v, Units: len(j.Units), Elapsed: elapsed[next]}); err != nil {
					// Wrapped with the job name just like Assemble
					// errors, so callers see which job's emit failed.
					firstErr = fmt.Errorf("%s: %w", j.Name, err)
					stop.Store(true)
					return
				}
			}
			cEmitted.Inc()
			rJob.Add(elapsed[next].Seconds())
			parts[next] = nil // release partials once assembled
			next++
		}
	}
	flush() // zero-unit jobs at the head of the queue

	completed := 0
	for range tasks {
		c := <-doneCh
		completed++
		gQueue.Add(-1)
		ev := UnitEvent{
			Job:       jobs[c.t.job].Name,
			Unit:      jobs[c.t.job].Units[c.t.unit].Name,
			Completed: completed,
			Total:     len(tasks),
			Worker:    c.worker,
			Start:     c.start,
			Elapsed:   c.dur,
		}
		switch {
		case c.err == nil:
			parts[c.t.job][c.t.unit] = c.val
			elapsed[c.t.job] += c.dur
			remaining[c.t.job]--
			cCompleted.Inc()
			rUnit.Add(c.dur.Seconds())
		case errors.Is(c.err, errCanceled):
			// Canceled after an earlier failure or a context
			// cancellation. The unit still counts toward Completed —
			// report it, so the counter the user watches never skips
			// numbers.
			cSkipped.Inc()
			ev.Skipped = true
		default:
			cFailed.Inc()
			rUnit.Add(c.dur.Seconds())
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", ev.Unit, c.err)
				stop.Store(true)
			}
			ev.Err = c.err
		}
		if e.OnUnit != nil {
			e.OnUnit(ev)
		}
		if c.err == nil {
			flush()
		}
	}
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	// A canceled sweep reports the cancellation, not success: whatever
	// was skipped is missing from the output, and callers (the daemon)
	// key their run state off errors.Is(err, context.Canceled).
	if err := ctx.Err(); err != nil {
		return err
	}
	flush() // jobs with zero units after the last task
	return firstErr
}

// assemble runs j's Assemble, turning a panic in it into its error.
func assemble(j Job, parts []interface{}) (v interface{}, err error) {
	defer recovered(&err)
	return j.Assemble(parts)
}

// RunJob runs a single job through the engine and returns its
// assembled value. It is the one-job convenience over Run, used by the
// design-space search to fan its screened GSPN evaluations out from
// its assembly step instead of hand-rolling a goroutine pool.
// Canceling ctx abandons the job's queued units, as for Run.
func (e *Engine) RunJob(ctx context.Context, j Job) (interface{}, error) {
	var out interface{}
	err := e.Run(ctx, []Job{j}, func(r JobResult) error {
		out = r.Value
		return nil
	})
	return out, err
}

// RunSerial executes one job's units in order on the calling
// goroutine and assembles the result. It is the serial reference
// implementation: Engine.Run with any worker count produces the same
// values.
func RunSerial(j Job) (interface{}, error) {
	parts := make([]interface{}, len(j.Units))
	for i, u := range j.Units {
		v, err := u.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.Name, err)
		}
		parts[i] = v
	}
	return j.Assemble(parts)
}
