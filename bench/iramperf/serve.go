package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running iramsimd child, started with the load shape the
// benchmark fixes: two concurrent runs of one sweep worker each.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	client   *http.Client
	cacheDir string
	logDone  chan struct{} // closed once the child's stderr reaches EOF
}

// startDaemon starts iramsimd on a free loopback port over the result
// cache in cacheDir and waits until it reports its address.
func (e *env) startDaemon(cacheDir string) (*daemon, error) {
	cmd := exec.Command(e.iramsimd, "-addr", "127.0.0.1:0", "-result-cache", cacheDir, "-runs", "2", "-j", "1")
	cmd.Dir = e.root
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start iramsimd: %w", err)
	}
	d := &daemon{cmd: cmd, cacheDir: cacheDir, logDone: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			const marker = "listening on http://"
			if i := strings.Index(sc.Text(), marker); i >= 0 {
				a, _, _ := strings.Cut(sc.Text()[i+len(marker):], " ")
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.logDone:
		err = errors.New("iramsimd exited before listening")
	case <-time.After(30 * time.Second):
		err = errors.New("iramsimd did not report a listen address")
	}
	d.stop()
	return nil, err
}

// stop drains the daemon with SIGTERM, as an operator would, kills it
// if the drain hangs, and waits for it to exit.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(30*time.Second, func() { _ = d.cmd.Process.Kill() })
	defer kill.Stop()
	<-d.logDone // Wait closes the pipe, so the reader must finish first
	err := d.cmd.Wait()
	d.client.CloseIdleConnections()
	return err
}

// doneEvent is the terminal event of a streamed run.
type doneEvent struct {
	Type        string `json:"type"`
	Run         string `json:"run"`
	State       string `json:"state"`
	Error       string `json:"error"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
}

// errRejected marks a submission the daemon shed with 429.
var errRejected = errors.New("rejected with 429")

// do is one client operation: POST the run with ?stream=1, read events
// until the done event, then GET the rendered output. The caller of
// iramsimd submits and waits, so two clients calling do in a loop form
// a closed loop.
func (d *daemon) do(ctx context.Context, body []byte) ([]byte, doneEvent, error) {
	var done doneEvent
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/runs?stream=1", bytes.NewReader(body))
	if err != nil {
		return nil, done, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, done, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		return nil, done, errRejected
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, done, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var id string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var ev doneEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, done, fmt.Errorf("bad event %q: %w", sc.Text(), err)
		}
		if ev.Run != "" {
			id = ev.Run
		}
		if ev.Type == "done" {
			done = ev
		}
	}
	if err := sc.Err(); err != nil {
		return nil, done, err
	}
	if done.Type != "done" {
		return nil, done, errors.New("event stream ended without a done event")
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/runs/"+id+"/output", nil)
	if err != nil {
		return nil, done, err
	}
	out, err := d.client.Do(req)
	if err != nil {
		return nil, done, err
	}
	defer out.Body.Close()
	b, err := io.ReadAll(out.Body)
	if err != nil {
		return nil, done, err
	}
	if out.StatusCode != http.StatusOK {
		return nil, done, fmt.Errorf("output: %s: %s", out.Status, bytes.TrimSpace(b))
	}
	return b, done, nil
}

// warmCheck is the per-request check of a warm run: it finished, the
// result cache answered every unit, and the bytes match the cold run.
func warmCheck(out []byte, done doneEvent, want []byte) error {
	switch {
	case done.State != "done":
		return fmt.Errorf("run %s ended %q: %s", done.Run, done.State, done.Error)
	case done.CacheMisses != 0 || done.CacheHits == 0:
		return fmt.Errorf("run %s: %d cache hits, %d misses; want all hits", done.Run, done.CacheHits, done.CacheMisses)
	case !bytes.Equal(out, want):
		return fmt.Errorf("run %s: output differs from the cold run", done.Run)
	}
	return nil
}

// loadResult is what a closed loop of clients measured.
type loadResult struct {
	lat      latencies // seconds per request; failures are +Inf
	failed   int
	rejected int
	elapsed  float64
	firstErr error
}

func (r *loadResult) merge(o loadResult) {
	r.lat = append(r.lat, o.lat...)
	r.failed += o.failed
	r.rejected += o.rejected
	r.elapsed += o.elapsed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// closedLoop drives the daemon with clients concurrent callers, each
// submitting its next request when the previous one finished, until
// deadline or until maxReqs requests have been sent. It always sends at
// least one.
func (d *daemon) closedLoop(ctx context.Context, body, want []byte, clients int, deadline time.Time, maxReqs int) loadResult {
	var (
		mu   sync.Mutex
		sent int
		res  loadResult
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				if sent >= maxReqs || sent > 0 && !time.Now().Before(deadline) {
					mu.Unlock()
					return
				}
				sent++
				mu.Unlock()
				t0 := time.Now()
				out, done, err := d.do(ctx, body)
				if err == nil {
					err = warmCheck(out, done, want)
				}
				sec := time.Since(t0).Seconds()
				mu.Lock()
				if err != nil {
					res.lat.fail()
					res.failed++
					if errors.Is(err, errRejected) {
						res.rejected++
					}
					if res.firstErr == nil {
						res.firstErr = err
					}
				} else {
					res.lat.add(sec)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start).Seconds()
	return res
}

// procCPU reads a process's CPU seconds so far from /proc: utime and
// stime, fields 14 and 15 of its stat line, in clock ticks (USER_HZ,
// 100 on Linux).
func procCPU(pid int) (float64, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100, nil
}

// procMem reads a process's peak and current resident set from /proc.
// These count the process's own address space only. wait4's ru_maxrss
// does not: on Linux a child started by vfork reports at least its
// parent's peak at the moment of exec, so it is not used here.
func procMem(pid int) (hwmKB, rssKB int64, err error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		switch k {
		case "VmHWM":
			hwmKB = n
		case "VmRSS":
			rssKB = n
		}
	}
	return hwmKB, rssKB, nil
}
