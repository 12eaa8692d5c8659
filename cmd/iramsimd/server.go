package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/sweep"
)

// serverConfig sizes the daemon. The zero value is unusable; newServer
// applies the defaults noted on each field.
type serverConfig struct {
	Queue         int                // pending-run queue capacity (default 8)
	MaxRuns       int                // concurrent executor count (default 2)
	Workers       int                // sweep workers per run (default 1)
	Store         *resultstore.Store // shared result cache; nil = no cache
	CacheMaxBytes int64              // prune the store to this after each run (0 = never)
	Obs           *obs.Registry      // daemon-wide metrics (required)
	// RunFn is the execution seam; tests stub it. Defaults to runner.Run.
	RunFn func(context.Context, runner.Request, runner.Config) error
}

// keptRuns is how many finished runs the daemon keeps for GET. Each
// holds its event log and rendered output (about 72 KB for the quick
// fig7 fig8 fig11 fig12 table3 table4 banks request), so without a cap
// memory grows with every request. The oldest finished run goes first;
// a queued or running run is never evicted, and an evicted id answers
// 404. A constant rather than a flag: one value serves every use.
const keptRuns = 64

// server is the simulation service: a bounded queue of runs drained by
// a fixed executor pool, every run sharing one result store so
// overlapping requests single-flight their common units. All state
// transitions happen under mu; queue sends also happen under mu so the
// drain-time close(queue) can never race a send.
type server struct {
	cfg serverConfig
	mux *http.ServeMux

	mu       sync.Mutex
	draining bool
	queue    chan *run
	runs     map[string]*run
	finished []string // ids of the kept finished runs, oldest first
	nextID   int
	wg       sync.WaitGroup // executors

	mQueueDepth *obs.Gauge
	mActive     *obs.Gauge
	mAccepted   *obs.Counter
	mRejected   *obs.Counter
	mCanceled   *obs.Counter
	mCompleted  *obs.Counter
	mFailed     *obs.Counter
	mCacheHits  *obs.Counter
	mCacheMem   *obs.Counter
	mCacheMiss  *obs.Counter
}

// run is one submitted request moving through queued -> running ->
// done|failed|canceled. Events and output accumulate under mu; cond
// broadcasts wake every streaming reader on each append.
type run struct {
	id     string
	seq    int // submission number; id is "r<seq>"
	req    runner.Request
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	cond   *sync.Cond
	state  string
	errMsg string
	events []json.RawMessage
	output bytes.Buffer
	closed bool          // terminal: no more events will arrive
	done   chan struct{} // closed with closed=true
}

func newRun(seq int, req runner.Request) *run {
	ctx, cancel := context.WithCancel(context.Background())
	ru := &run{id: fmt.Sprintf("r%d", seq), seq: seq, req: req, ctx: ctx, cancel: cancel,
		state: "queued", done: make(chan struct{})}
	ru.cond = sync.NewCond(&ru.mu)
	return ru
}

// appendEvent marshals v onto the run's event log and wakes readers.
func (ru *run) appendEvent(v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		return // event shapes are static; unreachable in practice
	}
	ru.mu.Lock()
	ru.events = append(ru.events, b)
	ru.mu.Unlock()
	ru.cond.Broadcast()
}

// finish moves the run to a terminal state exactly once.
func (ru *run) finish(state, errMsg string) {
	ru.mu.Lock()
	if ru.closed {
		ru.mu.Unlock()
		return
	}
	ru.state = state
	ru.errMsg = errMsg
	ru.closed = true
	ru.mu.Unlock()
	ru.cond.Broadcast()
	close(ru.done)
}

func (ru *run) snapshot() (state, errMsg string, events, outputBytes int) {
	ru.mu.Lock()
	defer ru.mu.Unlock()
	return ru.state, ru.errMsg, len(ru.events), ru.output.Len()
}

// lockedOutput serializes the runner's rendering goroutine against
// HTTP readers of the same buffer.
type lockedOutput struct{ ru *run }

func (w lockedOutput) Write(p []byte) (int, error) {
	w.ru.mu.Lock()
	defer w.ru.mu.Unlock()
	return w.ru.output.Write(p)
}

func newServer(cfg serverConfig) *server {
	if cfg.Queue <= 0 {
		cfg.Queue = 8
	}
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = 2
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.RunFn == nil {
		cfg.RunFn = runner.Run
	}
	s := &server{
		cfg:   cfg,
		queue: make(chan *run, cfg.Queue),
		runs:  make(map[string]*run),

		mQueueDepth: cfg.Obs.Gauge("iramsimd", "queue_depth"),
		mActive:     cfg.Obs.Gauge("iramsimd", "active_runs"),
		mAccepted:   cfg.Obs.Counter("iramsimd", "runs_accepted"),
		mRejected:   cfg.Obs.Counter("iramsimd", "runs_rejected"),
		mCanceled:   cfg.Obs.Counter("iramsimd", "runs_canceled"),
		mCompleted:  cfg.Obs.Counter("iramsimd", "runs_completed"),
		mFailed:     cfg.Obs.Counter("iramsimd", "runs_failed"),
		mCacheHits:  cfg.Obs.Counter("iramsimd", "cache_hits"),
		mCacheMem:   cfg.Obs.Counter("iramsimd", "cache_memory_hits"),
		mCacheMiss:  cfg.Obs.Counter("iramsimd", "cache_misses"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/runs/{id}/output", s.handleOutput)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	cfg.Obs.DebugHandlers(mux)
	s.mux = mux
	for i := 0; i < cfg.MaxRuns; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s
}

func (s *server) Handler() http.Handler { return s.mux }

// submit enqueues a validated request. The queue send happens under mu
// after the draining check, so it can never race beginDrain's close.
func (s *server) submit(req runner.Request) (*run, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, http.StatusServiceUnavailable, errors.New("server is draining")
	}
	s.nextID++
	ru := newRun(s.nextID, req)
	select {
	case s.queue <- ru:
	default:
		s.nextID--  // id was never visible; reuse it
		ru.cancel() // release the context before discarding the run
		s.mRejected.Inc()
		return nil, http.StatusTooManyRequests,
			fmt.Errorf("queue full (%d pending)", cap(s.queue))
	}
	s.runs[ru.id] = ru
	s.mAccepted.Inc()
	s.mQueueDepth.Set(int64(len(s.queue)))
	ru.appendEvent(map[string]interface{}{"type": "queued", "run": ru.id})
	return ru, http.StatusAccepted, nil
}

func (s *server) lookup(id string) *run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

// executor drains the queue until beginDrain closes it.
func (s *server) executor() {
	defer s.wg.Done()
	for ru := range s.queue {
		s.mQueueDepth.Set(int64(len(s.queue)))
		s.execute(ru)
	}
}

// retire moves the run to a terminal state and keeps it among the
// finished runs, evicting the oldest finished run beyond keptRuns.
func (s *server) retire(ru *run, state, errMsg string) {
	ru.finish(state, errMsg)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, ru.id)
	for len(s.finished) > keptRuns {
		delete(s.runs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// execute runs one dequeued request to its terminal state.
func (s *server) execute(ru *run) {
	if ru.ctx.Err() != nil { // canceled while still queued
		s.mCanceled.Inc()
		ru.appendEvent(map[string]interface{}{"type": "done", "run": ru.id, "state": "canceled"})
		s.retire(ru, "canceled", context.Canceled.Error())
		return
	}
	s.mActive.Add(1)
	defer s.mActive.Add(-1)
	ru.mu.Lock()
	ru.state = "running"
	ru.mu.Unlock()
	ru.appendEvent(map[string]interface{}{"type": "start", "run": ru.id})

	// Per-run registry: the run's own cache hit ratio is part of its
	// result, then folds into the daemon-wide totals.
	reg := obs.NewRegistry()
	// A nil *Store must stay a nil interface, or the engine would call
	// methods on a typed-nil cache.
	var cache sweep.ResultCache
	if s.cfg.Store != nil {
		cache = s.cfg.Store
	}
	err := s.cfg.RunFn(ru.ctx, ru.req, runner.Config{
		Workers:     s.cfg.Workers,
		Out:         lockedOutput{ru},
		Obs:         reg,
		ResultCache: cache,
		OnUnit: func(ev sweep.UnitEvent) {
			e := map[string]interface{}{
				"type": "unit", "job": ev.Job, "unit": ev.Unit,
				"completed": ev.Completed, "total": ev.Total,
			}
			if ev.Skipped {
				e["skipped"] = true
			}
			if ev.Err != nil {
				e["error"] = ev.Err.Error()
			}
			if ev.Elapsed > 0 {
				e["elapsed_ms"] = float64(ev.Elapsed) / float64(time.Millisecond)
			}
			ru.appendEvent(e)
		},
		OnResult: func(r runner.Result) {
			ru.appendEvent(map[string]interface{}{
				"type": "result", "experiment": r.Name, "units": r.Units,
				"elapsed_ms": float64(r.Elapsed) / float64(time.Millisecond),
			})
		},
	})

	hits := reg.Counter("resultcache", "hits").Value()
	memHits := reg.Counter("resultcache", "memory_hits").Value()
	misses := reg.Counter("resultcache", "misses").Value()
	s.mCacheHits.Add(hits)
	s.mCacheMem.Add(memHits)
	s.mCacheMiss.Add(misses)

	state, errMsg := "done", ""
	switch {
	case err == nil:
		s.mCompleted.Inc()
	case errors.Is(err, context.Canceled):
		state, errMsg = "canceled", err.Error()
		s.mCanceled.Inc()
	default:
		state, errMsg = "failed", err.Error()
		s.mFailed.Inc()
	}
	_, _, _, outBytes := ru.snapshot()
	ev := map[string]interface{}{
		"type": "done", "run": ru.id, "state": state,
		"cache_hits": hits, "cache_memory_hits": memHits, "cache_misses": misses,
		"output_bytes": outBytes,
	}
	if errMsg != "" {
		ev["error"] = errMsg
	}
	ru.appendEvent(ev)
	s.retire(ru, state, errMsg)

	if s.cfg.CacheMaxBytes > 0 && s.cfg.Store != nil {
		_, _, _ = s.cfg.Store.Prune(s.cfg.CacheMaxBytes)
	}
}

// beginDrain rejects new submissions and closes the queue so executors
// exit once it is empty.
func (s *server) beginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	close(s.queue)
}

// cancelAll cancels every run that has not reached a terminal state.
func (s *server) cancelAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ru := range s.runs {
		ru.cancel()
	}
}

// drain gracefully shuts the run pipeline down: no new work, queued and
// in-flight runs finish, and past the deadline everything left is
// canceled (in-flight units still complete; queued ones are skipped).
func (s *server) drain(timeout time.Duration) {
	s.beginDrain()
	idle := make(chan struct{})
	go func() { s.wg.Wait(); close(idle) }()
	select {
	case <-idle:
	case <-time.After(timeout):
		s.cancelAll()
		<-idle
	}
}

// ---------------------------------------------------------------------
// HTTP handlers.
// ---------------------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// handleSubmit accepts a runner.Request JSON body. Malformed bodies and
// invalid requests are 400s with the validation error verbatim; a full
// queue is 429 + Retry-After; a draining server is 503. With ?stream=1
// the response streams the run's events until it finishes, and closing
// the connection early cancels the run — a ^C on the curl is a cancel.
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req runner.Request
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ru, status, err := s.submit(req)
	if err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, err)
		return
	}
	if r.URL.Query().Get("stream") != "" {
		s.streamEvents(w, r, ru, true)
		return
	}
	writeJSON(w, status, map[string]string{
		"id":     ru.id,
		"state":  "queued",
		"events": "/v1/runs/" + ru.id + "/events",
		"output": "/v1/runs/" + ru.id + "/output",
	})
}

// handleList lists the kept runs in submission order.
func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.runs))
	for _, ru := range s.runs {
		runs = append(runs, ru)
	}
	s.mu.Unlock()
	sort.Slice(runs, func(i, j int) bool { return runs[i].seq < runs[j].seq })
	out := make([]map[string]interface{}, 0, len(runs))
	for _, ru := range runs {
		state, _, _, _ := ru.snapshot()
		out = append(out, map[string]interface{}{"id": ru.id, "state": state})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	ru := s.lookup(r.PathValue("id"))
	if ru == nil {
		writeError(w, http.StatusNotFound, errors.New("no such run"))
		return
	}
	state, errMsg, events, outBytes := ru.snapshot()
	v := map[string]interface{}{
		"id": ru.id, "state": state, "events": events, "output_bytes": outBytes,
	}
	if errMsg != "" {
		v["error"] = errMsg
	}
	writeJSON(w, http.StatusOK, v)
}

// handleEvents replays the run's event log from the start and follows
// it live until the run reaches a terminal state. NDJSON by default,
// server-sent events when the client asks for text/event-stream.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	ru := s.lookup(r.PathValue("id"))
	if ru == nil {
		writeError(w, http.StatusNotFound, errors.New("no such run"))
		return
	}
	s.streamEvents(w, r, ru, false)
}

// streamEvents writes the run's events to the client as they arrive.
// When cancelOnDisconnect is set (the streaming submit path), the
// client hanging up before the run finishes cancels the run.
func (s *server) streamEvents(w http.ResponseWriter, r *http.Request, ru *run, cancelOnDisconnect bool) {
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	if fl != nil {
		fl.Flush()
	}
	ctx := r.Context()
	// Wake the wait loop when the client goes away. Firing after the
	// run finished is harmless: cancel on a terminal run is a no-op.
	stop := context.AfterFunc(ctx, func() {
		if cancelOnDisconnect {
			ru.cancel()
		}
		ru.cond.Broadcast()
	})
	defer stop()

	i := 0
	for {
		ru.mu.Lock()
		for i >= len(ru.events) && !ru.closed && ctx.Err() == nil {
			ru.cond.Wait()
		}
		batch := ru.events[i:]
		i = len(ru.events)
		closed := ru.closed
		ru.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		for _, e := range batch {
			if sse {
				fmt.Fprintf(w, "data: %s\n\n", e)
			} else {
				_, _ = w.Write(append(e, '\n'))
			}
		}
		if fl != nil {
			fl.Flush()
		}
		if closed {
			return
		}
	}
}

// handleOutput blocks until the run finishes, then returns the rendered
// experiment output — the same bytes `iramsim <names>` prints, which is
// what makes warm responses byte-comparable across transports.
func (s *server) handleOutput(w http.ResponseWriter, r *http.Request) {
	ru := s.lookup(r.PathValue("id"))
	if ru == nil {
		writeError(w, http.StatusNotFound, errors.New("no such run"))
		return
	}
	select {
	case <-ru.done:
	case <-r.Context().Done():
		return
	}
	state, errMsg, _, _ := ru.snapshot()
	switch state {
	case "failed":
		writeError(w, http.StatusInternalServerError, errors.New(errMsg))
		return
	case "canceled":
		writeError(w, http.StatusConflict, errors.New("run canceled"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	ru.mu.Lock()
	out := append([]byte(nil), ru.output.Bytes()...)
	ru.mu.Unlock()
	_, _ = w.Write(out)
}

// handleCancel requests cancellation: queued units are abandoned,
// in-flight units finish. The run reaches "canceled" asynchronously.
func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	ru := s.lookup(r.PathValue("id"))
	if ru == nil {
		writeError(w, http.StatusNotFound, errors.New("no such run"))
		return
	}
	ru.cancel()
	state, _, _, _ := ru.snapshot()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": ru.id, "state": state})
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
