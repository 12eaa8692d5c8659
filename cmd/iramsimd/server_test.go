package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/sweep"
)

// newTestServer stands up a server with the given config defaulted for
// tests and tears it down with the test.
func newTestServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	s := newServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.drain(10 * time.Second)
	})
	return s, ts
}

func post(t *testing.T, url string, req runner.Request) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func submitID(t *testing.T, ts *httptest.Server, req runner.Request) string {
	t.Helper()
	resp := post(t, ts.URL+"/v1/runs", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, b)
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// doneEvent is the terminal event every run stream ends with.
type doneEvent struct {
	Type        string `json:"type"`
	State       string `json:"state"`
	Error       string `json:"error"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
}

// submitAndWait POSTs one streaming run and returns its rendered output
// plus the terminal done event. It reports failures as errors, so
// concurrent clients can call it off the test goroutine.
func submitAndWait(baseURL string, req runner.Request) ([]byte, doneEvent, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, doneEvent{}, err
	}
	resp, err := http.Post(baseURL+"/v1/runs?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, doneEvent{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, doneEvent{}, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var id string
	var done doneEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var ev struct {
			doneEvent
			Run string `json:"run"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, doneEvent{}, fmt.Errorf("bad event %q: %w", sc.Text(), err)
		}
		if ev.Run != "" {
			id = ev.Run
		}
		if ev.Type == "done" {
			done = ev.doneEvent
		}
	}
	if err := sc.Err(); err != nil {
		return nil, doneEvent{}, err
	}
	if done.Type != "done" {
		return nil, doneEvent{}, fmt.Errorf("stream ended without a done event")
	}
	outResp, err := http.Get(baseURL + "/v1/runs/" + id + "/output")
	if err != nil {
		return nil, doneEvent{}, err
	}
	defer outResp.Body.Close()
	output, err := io.ReadAll(outResp.Body)
	if err != nil {
		return nil, doneEvent{}, err
	}
	if outResp.StatusCode != http.StatusOK {
		return nil, done, fmt.Errorf("output: %s: %s", outResp.Status, bytes.TrimSpace(output))
	}
	return output, done, nil
}

// waitState polls the run until it reaches a terminal state.
func waitState(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch v.State {
		case "done", "failed", "canceled":
			return v.State
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s never reached a terminal state", id)
	return ""
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %s", resp.Status)
	}
}

func TestSubmitBadRequests(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	cases := []struct {
		name, body, want string
	}{
		{"malformed", `{`, "bad request body"},
		{"unknown-field", `{"experiments":["fig7"],"bogus":1}`, "bad request body"},
		{"no-experiments", `{}`, "no experiments"},
		{"unknown-experiment", `{"experiments":["fig99"]}`, `unknown experiment \"fig99\"`},
		{"all-with-others", `{"experiments":["cost","all"]}`, `\"all\" must be the only experiment`},
		{"bad-machine", `{"experiments":["fig7"],"machine":{"Banks":0}}`, "machine config"},
		{"zero-ways-machine", `{"experiments":["fig8"],"machine":{"DCacheWays":0,"DCacheBytes":0,"DRAM":{"BuffersPerBank":1}}}`, "machine config"},
		// Each used to pass validation and then panic in a sweep worker,
		// taking the daemon down: a zero precharge time in the GSPN, a
		// 65th node in the coherence directory.
		{"zero-precharge-machine", `{"experiments":["table3"],"machine":{"DRAM":{"PrechargeCycles":0}}}`, "machine config"},
		{"procs-over-cap", `{"experiments":["fig14"],"quick":true,"procs":[65]}`, "processor count 65 outside 1..64"},
		// About 10 KB, well under the body limit: the axis cap, not the
		// size limit, must reject it.
		{"axis-over-cap", `{"experiments":["designspace"],"ds_banks":[8` + strings.Repeat(",8", 4999) + `]}`, "ds_banks has 5000 values"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %s, want 400 (%s)", resp.Status, b)
			}
			if !strings.Contains(string(b), c.want) {
				t.Errorf("body = %s, want %q", b, c.want)
			}
		})
	}
}

// TestSubmitStreamsEvents: a stubbed run's unit events, result event,
// and terminal done event arrive over the streaming submit, and the
// output endpoint returns what the stub rendered.
func TestSubmitStreamsEvents(t *testing.T) {
	stub := func(ctx context.Context, req runner.Request, cfg runner.Config) error {
		cfg.OnUnit(sweep.UnitEvent{Job: "fig7", Unit: "u0", Completed: 1, Total: 2})
		cfg.OnUnit(sweep.UnitEvent{Job: "fig7", Unit: "u1", Completed: 2, Total: 2})
		fmt.Fprintln(cfg.Out, "rendered table")
		cfg.OnResult(runner.Result{Name: "fig7", Units: 2})
		return nil
	}
	_, ts := newTestServer(t, serverConfig{RunFn: stub})

	resp := post(t, ts.URL+"/v1/runs?stream=1", runner.Request{Experiments: []string{"fig7"}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream submit = %s", resp.Status)
	}
	var types []string
	var id string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Type  string `json:"type"`
			Run   string `json:"run"`
			State string `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event %q: %v", sc.Text(), err)
		}
		if ev.Run != "" {
			id = ev.Run
		}
		types = append(types, ev.Type)
		if ev.Type == "done" && ev.State != "done" {
			t.Errorf("done state = %q", ev.State)
		}
	}
	want := []string{"queued", "start", "unit", "unit", "result", "done"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Errorf("event types = %v, want %v", types, want)
	}

	out, err := http.Get(ts.URL + "/v1/runs/" + id + "/output")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Body.Close()
	b, _ := io.ReadAll(out.Body)
	if string(b) != "rendered table\n" {
		t.Errorf("output = %q", b)
	}
}

// TestListSubmissionOrder: GET /v1/runs lists runs in submission
// order, so r10 comes after r9, not after r1.
func TestListSubmissionOrder(t *testing.T) {
	stub := func(ctx context.Context, req runner.Request, cfg runner.Config) error { return nil }
	_, ts := newTestServer(t, serverConfig{Queue: 16, RunFn: stub})
	var want []string
	for i := 0; i < 12; i++ {
		want = append(want, submitID(t, ts, runner.Request{Experiments: []string{"cost"}}))
	}
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var runs []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&runs); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ru := range runs {
		got = append(got, ru.ID)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("listed %v, want submission order %v", got, want)
	}
}

// TestQueueFullRejects: with one executor blocked and the queue full,
// the next submission is shed with 429 + Retry-After — and accepted
// runs still complete once the blockage clears.
func TestQueueFullRejects(t *testing.T) {
	release := make(chan struct{})
	stub := func(ctx context.Context, req runner.Request, cfg runner.Config) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	_, ts := newTestServer(t, serverConfig{Queue: 1, MaxRuns: 1, RunFn: stub})
	req := runner.Request{Experiments: []string{"fig7"}}

	running := submitID(t, ts, req) // occupies the executor
	queued := submitID(t, ts, req)  // fills the queue

	// Third must bounce. Allow a moment for the executor to dequeue the
	// first run (the queue slot frees asynchronously).
	deadline := time.Now().Add(5 * time.Second)
	var resp *http.Response
	for {
		resp = post(t, ts.URL+"/v1/runs", req)
		if resp.StatusCode == http.StatusTooManyRequests || time.Now().After(deadline) {
			break
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("unexpected status %s", resp.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit = %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Shedding load is not failing: the server stays live.
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("healthz while shedding = %s, want 200", health.Status)
	}

	close(release)
	if got := waitState(t, ts, running); got != "done" {
		t.Errorf("first run = %q", got)
	}
	if got := waitState(t, ts, queued); got != "done" {
		t.Errorf("queued run = %q", got)
	}
}

// TestCancelFreesQueuedRun: DELETE on a queued run resolves it to
// canceled without executing it, and the executor moves on.
func TestCancelFreesQueuedRun(t *testing.T) {
	release := make(chan struct{})
	var executed []string
	stub := func(ctx context.Context, req runner.Request, cfg runner.Config) error {
		executed = append(executed, req.Experiments[0])
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	_, ts := newTestServer(t, serverConfig{Queue: 2, MaxRuns: 1, RunFn: stub})

	running := submitID(t, ts, runner.Request{Experiments: []string{"fig7"}})
	victim := submitID(t, ts, runner.Request{Experiments: []string{"fig8"}})

	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+victim, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE = %s", dresp.Status)
	}

	close(release)
	if got := waitState(t, ts, victim); got != "canceled" {
		t.Errorf("canceled-while-queued run = %q", got)
	}
	if got := waitState(t, ts, running); got != "done" {
		t.Errorf("running run = %q", got)
	}
	for _, name := range executed {
		if name == "fig8" {
			t.Error("canceled run was executed")
		}
	}
}

// TestStreamDisconnectCancels: the submitter hanging up on a streaming
// POST cancels the run — abandoned requests never hold a worker.
func TestStreamDisconnectCancels(t *testing.T) {
	started := make(chan struct{})
	stub := func(ctx context.Context, req runner.Request, cfg runner.Config) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	}
	_, ts := newTestServer(t, serverConfig{RunFn: stub})

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(runner.Request{Experiments: []string{"fig7"}})
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/runs?stream=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel() // client walks away
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		list, err := http.Get(ts.URL + "/v1/runs")
		if err != nil {
			t.Fatal(err)
		}
		var runs []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		}
		err = json.NewDecoder(list.Body).Decode(&runs)
		list.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) == 1 && runs[0].State == "canceled" {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("run was not canceled after client disconnect")
}

// TestDrain: a draining server rejects new work with 503 on both the
// submit and health endpoints while the in-flight run finishes cleanly.
func TestDrain(t *testing.T) {
	release := make(chan struct{})
	stub := func(ctx context.Context, req runner.Request, cfg runner.Config) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s, ts := newTestServer(t, serverConfig{RunFn: stub})
	id := submitID(t, ts, runner.Request{Experiments: []string{"fig7"}})

	s.beginDrain()
	resp := post(t, ts.URL+"/v1/runs", runner.Request{Experiments: []string{"fig7"}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %s, want 503", resp.Status)
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %s, want 503", health.Status)
	}

	close(release)
	if got := waitState(t, ts, id); got != "done" {
		t.Errorf("in-flight run drained to %q, want done", got)
	}
	s.drain(10 * time.Second) // idempotent; waits for executors
}

// TestWarmCacheEndToEnd drives the real runner over a shared result
// store: after one cold run, warm runs — one alone, then eight at once,
// overlapping on the same cache entries — must each be answered
// entirely from cache with the cold run's bytes. That is the daemon's
// core value proposition.
func TestWarmCacheEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation run")
	}
	store, err := resultstore.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, serverConfig{Store: store, Workers: 4, Obs: reg})
	req := runner.Request{Experiments: []string{"fig7"}, Quick: true, Budget: 50_000}

	cold, coldDone, err := submitAndWait(ts.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if coldDone.CacheMisses == 0 {
		t.Fatalf("cold run reported no misses: %+v", coldDone)
	}
	warm, warmDone, err := submitAndWait(ts.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if warmDone.CacheHits == 0 || warmDone.CacheMisses != 0 {
		t.Errorf("warm run: hits=%d misses=%d, want hits>0 misses==0",
			warmDone.CacheHits, warmDone.CacheMisses)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("warm output differs from cold")
	}
	if hits := reg.Counter("iramsimd", "cache_hits").Value(); hits == 0 {
		t.Error("daemon-wide cache_hits not accumulated")
	}

	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, done, err := submitAndWait(ts.URL, req)
			switch {
			case err != nil:
				t.Errorf("client %d: %v", i, err)
			case done.State != "done":
				t.Errorf("client %d: state %q (%s)", i, done.State, done.Error)
			case done.CacheHits == 0 || done.CacheMisses != 0:
				t.Errorf("client %d: hits=%d misses=%d, want hits>0 misses==0", i, done.CacheHits, done.CacheMisses)
			case !bytes.Equal(out, cold):
				t.Errorf("client %d: output differs from the cold run", i)
			}
		}(i)
	}
	wg.Wait()
}
