package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"radiocolor"
)

// fakeOutcome is what hooked runs return; real outcomes are covered by
// the integration tests below.
func fakeOutcome() *radiocolor.Outcome {
	return &radiocolor.Outcome{Colors: []int{1, 0}, Proper: true, Complete: true, NumColors: 2}
}

// newTestServer builds a Server plus an httptest front end and tears
// both down at cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, req JobRequest) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode accepted body: %v", err)
		}
	}
	return resp, st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// ringAdjacency builds a cycle on n nodes.
func ringAdjacency(n int) [][]int {
	adj := make([][]int, n)
	for v := range adj {
		adj[v] = []int{(v + n - 1) % n, (v + 1) % n}
	}
	return adj
}

// TestOutcomeMatchesDirectCall is the end-to-end determinism contract:
// a job's Outcome must be identical to calling ColorGraphContext
// directly with the same inputs and seed (wall-clock rates excluded).
func TestOutcomeMatchesDirectCall(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	adj := ringAdjacency(16)
	resp, st := submit(t, ts, JobRequest{Adjacency: adj, Seed: 9, Wakeup: "uniform", Metrics: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone || final.Outcome == nil {
		t.Fatalf("job ended %s (err %q)", final.State, final.Error)
	}

	direct, err := radiocolor.ColorGraphContext(context.Background(), adj,
		radiocolor.Options{Seed: 9, Wakeup: radiocolor.WakeupUniform, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}

	// Wall-clock rates are the only nondeterministic fields.
	scrub := func(o *radiocolor.Outcome) {
		if o.Stats != nil {
			o.Stats.SlotsPerSec = 0
			o.Stats.Wall = 0
		}
	}
	scrub(final.Outcome)
	scrub(direct)
	got, _ := json.Marshal(final.Outcome)
	want, _ := json.Marshal(direct)
	if !bytes.Equal(got, want) {
		t.Fatalf("outcome differs from direct call:\n served: %s\n direct: %s", got, want)
	}
}

// TestBackpressure429 is the load-shedding contract: 64 concurrent
// submissions against a queue of 16 and 4 busy workers → the overflow
// is rejected with 429 + Retry-After, every accepted job completes,
// and retrying the rejected submissions eventually lands all 64. Also
// doubles as the goroutine-leak check for the whole pool lifecycle.
func TestBackpressure429(t *testing.T) {
	before := runtime.NumGoroutine()

	gate := make(chan struct{})
	s := New(Config{
		QueueCap: 16,
		Workers:  4,
		run: func(ctx context.Context, j *job) (*radiocolor.Outcome, error) {
			select {
			case <-gate:
				return fakeOutcome(), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	ts := httptest.NewServer(s)

	const total = 64
	req := JobRequest{Adjacency: ringAdjacency(4)}
	body, _ := json.Marshal(req)

	type result struct {
		code       int
		id         string
		retryAfter string
	}
	results := make([]result, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			r := result{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
			if resp.StatusCode == http.StatusAccepted {
				var st JobStatus
				if err := json.NewDecoder(resp.Body).Decode(&st); err == nil {
					r.id = st.ID
				}
			}
			results[i] = r
		}(i)
	}
	wg.Wait()

	accepted, rejected := 0, 0
	ids := make([]string, 0, total)
	for _, r := range results {
		switch r.code {
		case http.StatusAccepted:
			accepted++
			ids = append(ids, r.id)
		case http.StatusTooManyRequests:
			rejected++
			if r.retryAfter == "" {
				t.Error("429 without Retry-After header")
			}
		default:
			t.Errorf("unexpected status %d", r.code)
		}
	}
	if accepted+rejected != total {
		t.Fatalf("accepted %d + rejected %d != %d", accepted, rejected, total)
	}
	// Queue(16) + at most Workers(4) in-flight bound the admissions.
	if accepted < 16 || accepted > 20 {
		t.Fatalf("accepted %d, want within [16, 20]", accepted)
	}
	if rejected < total-20 {
		t.Fatalf("rejected %d, want ≥ %d", rejected, total-20)
	}

	// Unblock the pool; every accepted job must complete, and retrying
	// the rejected submissions drains the rest of the workload.
	close(gate)
	deadline := time.Now().Add(30 * time.Second)
	for len(ids) < total && time.Now().Before(deadline) {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusAccepted {
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, st.ID)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if len(ids) != total {
		t.Fatalf("only %d/%d jobs admitted after retries", len(ids), total)
	}
	for _, id := range ids {
		if st := waitTerminal(t, ts, id); st.State != StateDone {
			t.Fatalf("job %s ended %s (err %q)", id, st.State, st.Error)
		}
	}
	if got := s.completed.Load(); got != total {
		t.Fatalf("completed counter = %d, want %d", got, total)
	}
	if s.rejected.Load() < int64(rejected) {
		t.Fatalf("rejected counter = %d, want ≥ %d", s.rejected.Load(), rejected)
	}

	// Drain everything and verify the pool leaks no goroutines.
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Client().CloseIdleConnections()
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines: before %d, after %d", before, runtime.NumGoroutine())
}

func TestCancelQueuedAndRunning(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers:  1,
		QueueCap: 8,
		run: func(ctx context.Context, j *job) (*radiocolor.Outcome, error) {
			select {
			case <-gate:
				return fakeOutcome(), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	defer close(gate)

	_, running := submit(t, ts, JobRequest{Adjacency: ringAdjacency(4)})
	_, queued := submit(t, ts, JobRequest{Adjacency: ringAdjacency(4)})

	// Wait for the first job to occupy the single worker.
	waitFor(t, func() bool { return getStatus(t, ts, running.ID).State == StateRunning })

	del := func(id string) JobStatus {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Canceling a queued job is immediate.
	if st := del(queued.ID); st.State != StateCanceled {
		t.Fatalf("queued job after DELETE: %s", st.State)
	}
	// Canceling a running job fires its context.
	del(running.ID)
	if st := waitTerminal(t, ts, running.ID); st.State != StateCanceled {
		t.Fatalf("running job after DELETE: %s (err %q)", st.State, st.Error)
	}
	// Canceling a finished job is a no-op that reports the final state.
	if st := del(running.ID); st.State != StateCanceled {
		t.Fatalf("second DELETE: %s", st.State)
	}
	if got := s.canceled.Load(); got != 2 {
		t.Fatalf("canceled counter = %d, want 2", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}

// TestShutdownDrains verifies the graceful path: in-flight jobs finish
// under the deadline, queued ones are canceled, and Shutdown returns
// nil.
func TestShutdownDrains(t *testing.T) {
	s := New(Config{
		Workers:  2,
		QueueCap: 8,
		run: func(ctx context.Context, j *job) (*radiocolor.Outcome, error) {
			select {
			case <-time.After(30 * time.Millisecond):
				return fakeOutcome(), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var ids []string
	for i := 0; i < 6; i++ {
		_, st := submit(t, ts, JobRequest{Adjacency: ringAdjacency(4)})
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	done, canceled := 0, 0
	for _, id := range ids {
		switch st := getStatus(t, ts, id); st.State {
		case StateDone:
			done++
		case StateCanceled:
			canceled++
		default:
			t.Fatalf("job %s left in state %s", id, st.State)
		}
	}
	if done+canceled != 6 {
		t.Fatalf("done %d + canceled %d != 6", done, canceled)
	}
	if done == 0 {
		t.Fatal("expected at least the in-flight jobs to drain as done")
	}
	// A post-drain submission is refused.
	resp, _ := submit(t, ts, JobRequest{Adjacency: ringAdjacency(4)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: status %d", resp.StatusCode)
	}
	// Health reports draining.
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: status %d", hresp.StatusCode)
	}
}

// TestShutdownDeadlineCancels verifies the forced path: jobs that
// ignore the drain deadline are canceled via context and the pool still
// exits.
func TestShutdownDeadlineCancels(t *testing.T) {
	s := New(Config{
		Workers:  2,
		QueueCap: 4,
		run: func(ctx context.Context, j *job) (*radiocolor.Outcome, error) {
			<-ctx.Done() // never finishes voluntarily
			return nil, ctx.Err()
		},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, a := submit(t, ts, JobRequest{Adjacency: ringAdjacency(4)})
	_, b := submit(t, ts, JobRequest{Adjacency: ringAdjacency(4)})
	waitFor(t, func() bool {
		return getStatus(t, ts, a.ID).State == StateRunning && getStatus(t, ts, b.ID).State == StateRunning
	})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown err = %v, want DeadlineExceeded", err)
	}
	for _, id := range []string{a.ID, b.ID} {
		if st := getStatus(t, ts, id); st.State != StateCanceled {
			t.Fatalf("job %s state %s, want canceled", id, st.State)
		}
	}
}

func TestStreamNDJSONAndSSE(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	_, ts := newTestServer(t, Config{
		Workers:        1,
		StreamInterval: 5 * time.Millisecond,
		run: func(ctx context.Context, j *job) (*radiocolor.Outcome, error) {
			select {
			case <-gate:
				return fakeOutcome(), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	_, st := submit(t, ts, JobRequest{Adjacency: ringAdjacency(4)})

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var events []StreamEvent
	sawProgress := false
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
		if ev.Type == "progress" {
			sawProgress = true
			once.Do(func() { close(gate) }) // saw the run live; let it finish
		}
		if ev.Type == "done" {
			break
		}
	}
	if len(events) < 2 {
		t.Fatalf("got %d events, want ≥ 2", len(events))
	}
	if events[0].Type != "status" {
		t.Fatalf("first event %q, want status", events[0].Type)
	}
	if !sawProgress {
		t.Fatal("no progress event observed")
	}
	last := events[len(events)-1]
	if last.Type != "done" || last.Status == nil || last.Status.Outcome == nil || last.State != StateDone {
		t.Fatalf("bad final event: %+v", last)
	}

	// A stream opened after completion replays status + done
	// immediately, and SSE framing is honored.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp2, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	raw := new(bytes.Buffer)
	if _, err := raw.ReadFrom(resp2.Body); err != nil {
		t.Fatal(err)
	}
	text := raw.String()
	for _, want := range []string{"event: status\n", "event: done\n", "data: {"} {
		if !strings.Contains(text, want) {
			t.Fatalf("SSE body missing %q:\n%s", want, text)
		}
	}
}

// TestTopologyCacheMeasuredReuse runs the same generated topology twice
// and verifies the second job hits the deployment cache, reuses the
// measured parameters, and still produces the identical outcome.
func TestTopologyCacheMeasuredReuse(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	req := JobRequest{Topology: &TopologySpec{Kind: "ring", N: 24}, Seed: 3}

	_, first := submit(t, ts, req)
	f1 := waitTerminal(t, ts, first.ID)
	if f1.State != StateDone {
		t.Fatalf("first job: %s (%s)", f1.State, f1.Error)
	}
	if f1.CacheHit {
		t.Fatal("first job cannot be a cache hit")
	}

	_, second := submit(t, ts, req)
	f2 := waitTerminal(t, ts, second.ID)
	if f2.State != StateDone {
		t.Fatalf("second job: %s (%s)", f2.State, f2.Error)
	}
	if !f2.CacheHit {
		t.Fatal("second job should hit the deployment cache")
	}
	if !reflect.DeepEqual(f1.Outcome.Colors, f2.Outcome.Colors) || f1.Outcome.Slots != f2.Outcome.Slots {
		t.Fatal("cached run diverged from the first run")
	}
	if f1.Outcome.Delta != f2.Outcome.Delta || f1.Outcome.Kappa2 != f2.Outcome.Kappa2 {
		t.Fatal("measured parameters diverged")
	}
	if s.cache.hits.Load() == 0 {
		t.Fatal("cache hit counter not incremented")
	}

	// The aggregate phase gauges must return to zero once no job runs:
	// each run seeds its node count in and subtracts its terminal
	// occupancy back out.
	snap := s.obsReg.Snapshot()
	for p, v := range snap.PhaseNodes {
		if v != 0 {
			t.Fatalf("aggregate phase gauge %d = %d after all jobs finished", p, v)
		}
	}
	if snap.Slots == 0 || snap.Decisions == 0 {
		t.Fatal("aggregate registry saw no events")
	}
}

func TestSubmitValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxNodes: 10})
	post := func(body string) *http.Response {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post("{nope"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", resp.StatusCode)
	}
	if resp := post(`{"unknown_field":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", resp.StatusCode)
	}
	if resp := post(`{}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no input: %d", resp.StatusCode)
	}
	if resp := post(`{"topology":{"kind":"udg","n":11}}`); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over MaxNodes: %d", resp.StatusCode)
	}
	if resp := post(`{"topology":{"kind":"moebius","n":4}}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown topology: %d", resp.StatusCode)
	}
	if resp := post(`{"adjacency":[[1],[0]],"wakeup":"never"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wakeup: %d", resp.StatusCode)
	}
	for _, scale := range []string{"1e308", "-2"} {
		if resp := post(`{"adjacency":[[1],[0]],"param_scale":` + scale + `}`); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("param_scale %s: %d", scale, resp.StatusCode)
		}
	}
	for _, path := range []string{"/v1/jobs/j-999999", "/v1/jobs/j-999999/stream"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 5})
	_, st := submit(t, ts, JobRequest{Adjacency: ringAdjacency(8), Seed: 2})
	waitTerminal(t, ts, st.ID)

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.QueueCapacity != 5 || h.JobsDone != 1 {
		t.Fatalf("health = %+v", h)
	}

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"colord_jobs_submitted_total 1",
		"colord_jobs_accepted_total 1",
		"colord_jobs_completed_total{state=\"done\"} 1",
		"colord_queue_capacity 5",
		"colord_job_duration_seconds_bucket{le=\"+Inf\"} 1",
		"colord_job_duration_seconds_count 1",
		"radiocolor_slots_total",
		"radiocolor_transmissions_total",
		"radiocolor_phase_nodes{phase=\"colored\"} 0",
		"# TYPE colord_job_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// scrapeCounters reads the /metrics exposition into name → value for
// its unlabeled series.
func scrapeCounters(t *testing.T, ts *httptest.Server) map[string]int64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var name string
		var v int64
		if _, err := fmt.Sscanf(sc.Text(), "%s %d", &name, &v); err == nil && !strings.HasPrefix(name, "#") {
			got[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMetricsMatchOutcomeStats: colord's simulation counters are fed
// through the job's Observer, so on a fresh server one built-in-rule
// job's scrape must equal the run's own counts in Outcome.Stats. The
// registry exports no counter that nothing feeds: after a medium job
// the SINR and capture series are absent, not constant zeros.
func TestMetricsMatchOutcomeStats(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, st := submit(t, ts, JobRequest{Topology: &TopologySpec{Kind: "udg", N: 40}, Seed: 3, Metrics: true})
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone || fin.Outcome == nil || fin.Outcome.Stats == nil {
		t.Fatalf("job: state %s, outcome %+v (err %q)", fin.State, fin.Outcome, fin.Error)
	}
	s := fin.Outcome.Stats
	got := scrapeCounters(t, ts)
	for name, want := range map[string]int64{
		"transmissions": s.Transmissions,
		"deliveries":    s.Deliveries,
		"collisions":    s.Collisions,
		"wakeups":       s.Wakeups,
		"decisions":     s.Decisions,
		"slots":         s.Slots,
	} {
		series := "radiocolor_" + name + "_total"
		if v, ok := got[series]; !ok || v != want {
			t.Errorf("%s = %d (present %v), want the run's %d", series, v, ok, want)
		}
	}
	if s.Transmissions == 0 || s.Collisions == 0 || s.Wakeups != 40 || s.Decisions != 40 {
		t.Errorf("vacuous run: %+v", s)
	}

	_, st = submit(t, ts, JobRequest{Adjacency: ringAdjacency(12), Seed: 4, Medium: "multichannel,k=2"})
	if fin := waitTerminal(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("medium job: state %s (err %q)", fin.State, fin.Error)
	}
	got = scrapeCounters(t, ts)
	for _, series := range []string{"radiocolor_captures_total", "radiocolor_drowned_total", "radiocolor_below_noise_total"} {
		if v, ok := got[series]; ok {
			t.Errorf("%s exported (= %d), but nothing feeds it", series, v)
		}
	}
	if got["radiocolor_wakeups_total"] != 52 {
		t.Errorf("radiocolor_wakeups_total = %d after both jobs, want 52", got["radiocolor_wakeups_total"])
	}
}

func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, a := submit(t, ts, JobRequest{Adjacency: ringAdjacency(4), Seed: 1})
	_, b := submit(t, ts, JobRequest{Adjacency: ringAdjacency(4), Seed: 2})
	waitTerminal(t, ts, a.ID)
	waitTerminal(t, ts, b.ID)
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != a.ID || list[1].ID != b.ID {
		t.Fatalf("list = %+v", list)
	}
	for _, st := range list {
		if st.Outcome != nil {
			t.Fatal("list must not carry outcomes")
		}
	}
}

// TestListJobsStateFilterAndLimit covers the ?state= and ?limit=
// parameters: deterministic Seq order, store-backed filtering, bounded
// page size, and 400s on garbage.
func TestListJobsStateFilterAndLimit(t *testing.T) {
	gate := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Workers:  1,
		QueueCap: 16,
		run: func(ctx context.Context, j *job) (*radiocolor.Outcome, error) {
			select {
			case <-gate:
				return fakeOutcome(), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	defer close(gate)
	var ids []string
	for i := 0; i < 5; i++ {
		_, st := submit(t, ts, JobRequest{Adjacency: ringAdjacency(4), Seed: int64(i + 1)})
		ids = append(ids, st.ID)
	}
	// One running (held at the gate), the rest queued.
	waitFor(t, func() bool { return getStatus(t, ts, ids[0]).State == StateRunning })

	fetch := func(query string, wantCode int) []JobStatus {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET /v1/jobs%s: status %d, want %d", query, resp.StatusCode, wantCode)
		}
		if wantCode != http.StatusOK {
			return nil
		}
		var list []JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		return list
	}

	queued := fetch("?state=queued", http.StatusOK)
	if len(queued) != 4 {
		t.Fatalf("queued list = %+v", queued)
	}
	for i, st := range queued {
		if st.ID != ids[i+1] || st.State != StateQueued {
			t.Fatalf("queued[%d] = %+v, want %s", i, st, ids[i+1])
		}
	}
	if running := fetch("?state=running", http.StatusOK); len(running) != 1 || running[0].ID != ids[0] {
		t.Fatalf("running list = %+v", running)
	}
	if limited := fetch("?state=queued&limit=2", http.StatusOK); len(limited) != 2 || limited[0].ID != ids[1] {
		t.Fatalf("limited list = %+v", limited)
	}
	if done := fetch("?state=done", http.StatusOK); len(done) != 0 {
		t.Fatalf("done list = %+v", done)
	}
	fetch("?state=bogus", http.StatusBadRequest)
	fetch("?limit=0", http.StatusBadRequest)
	fetch("?limit=banana", http.StatusBadRequest)
}

func TestRetentionPrunesTerminalJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxRetained: 3})
	var ids []string
	for i := 0; i < 6; i++ {
		_, st := submit(t, ts, JobRequest{Adjacency: ringAdjacency(4), Seed: int64(i + 1)})
		ids = append(ids, st.ID)
		waitTerminal(t, ts, st.ID)
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n > 4 { // MaxRetained plus the one admitted before pruning ran
		t.Fatalf("retained %d jobs, want ≤ 4", n)
	}
	// The most recent job must still be queryable.
	if st := getStatus(t, ts, ids[len(ids)-1]); !st.State.Terminal() {
		t.Fatalf("latest job state %s", st.State)
	}
}

// TestPanicInJobIsContained ensures the worker's panic recovery
// turns a crashing job into a failed status instead of killing a
// worker.
func TestPanicInJobIsContained(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		run: func(ctx context.Context, j *job) (*radiocolor.Outcome, error) {
			panic("boom")
		},
	})
	_, st := submit(t, ts, JobRequest{Adjacency: ringAdjacency(4)})
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "boom") {
		t.Fatalf("state %s err %q", final.State, final.Error)
	}
	// The worker survived: the next job still runs.
	_, st2 := submit(t, ts, JobRequest{Adjacency: ringAdjacency(4)})
	if got := waitTerminal(t, ts, st2.ID); got.State != StateFailed {
		t.Fatalf("second job state %s", got.State)
	}
}

func TestUnitDiskJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	pts := make([][2]float64, 9)
	for i := range pts {
		pts[i] = [2]float64{float64(i % 3), float64(i / 3)}
	}
	_, st := submit(t, ts, JobRequest{Points: pts, Radius: 1.1, Seed: 4})
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone || final.Outcome == nil || !final.Outcome.Proper {
		t.Fatalf("unit disk job: %+v", final)
	}
	direct, err := radiocolor.ColorUnitDisk(pts, 1.1, radiocolor.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Colors, final.Outcome.Colors) {
		t.Fatalf("colors differ: %v vs %v", direct.Colors, final.Outcome.Colors)
	}
}

func ExampleServer() {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	body := `{"topology":{"kind":"clique","n":6},"seed":1}`
	resp, _ := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	var st JobStatus
	_ = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	for !st.State.Terminal() {
		time.Sleep(10 * time.Millisecond)
		r, _ := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		_ = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
	}
	fmt.Println(st.State, st.Outcome.Proper, st.Outcome.Complete)
	// Output: done true true
}

func TestJobTimeoutFromRequest(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1,
		run: func(ctx context.Context, j *job) (*radiocolor.Outcome, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	_, st := submit(t, ts, JobRequest{Adjacency: ringAdjacency(4), TimeoutMS: 30})
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateTimedOut {
		t.Fatalf("state = %s (err %q), want timed_out", fin.State, fin.Error)
	}
	if !strings.Contains(fin.Error, "timeout") {
		t.Fatalf("error %q does not mention the timeout", fin.Error)
	}
	if got := s.timedOut.Load(); got != 1 {
		t.Fatalf("timedOut counter = %d, want 1", got)
	}
	if got := s.canceled.Load(); got != 0 {
		t.Fatalf("timeout must not count as cancellation (canceled = %d)", got)
	}

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	if want := "colord_jobs_completed_total{state=\"timed_out\"} 1"; !strings.Contains(buf.String(), want) {
		t.Fatalf("metrics missing %q:\n%s", want, buf.String())
	}
}

func TestJobTimeoutServerDefaultAndCancelPrecedence(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:    2,
		JobTimeout: 25 * time.Millisecond,
		run: func(ctx context.Context, j *job) (*radiocolor.Outcome, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	// No timeout_ms in the request: the server default applies.
	_, st := submit(t, ts, JobRequest{Adjacency: ringAdjacency(4)})
	if fin := waitTerminal(t, ts, st.ID); fin.State != StateTimedOut {
		t.Fatalf("server-default timeout: state = %s, want timed_out", fin.State)
	}
	// An explicit DELETE on a job with a generous timeout must surface
	// as canceled, not timed_out.
	_, long := submit(t, ts, JobRequest{Adjacency: ringAdjacency(4), TimeoutMS: int64(2 * time.Hour / time.Millisecond)})
	waitFor(t, func() bool { return getStatus(t, ts, long.ID).State == StateRunning })
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+long.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fin := waitTerminal(t, ts, long.ID); fin.State != StateCanceled {
		t.Fatalf("canceled job: state = %s, want canceled", fin.State)
	}
}

func TestFaultsJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, st := submit(t, ts, JobRequest{Adjacency: ringAdjacency(12), Seed: 5, Faults: "loss=0.3,seed=7"})
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("faulted job: state = %s (err %q)", fin.State, fin.Error)
	}
	if fin.Outcome == nil || fin.Outcome.Faults == nil {
		t.Fatalf("outcome missing fault report: %+v", fin.Outcome)
	}
	if fin.Outcome.Faults.Lost == 0 {
		t.Fatalf("30%% loss on a ring injected nothing: %+v", fin.Outcome.Faults)
	}
	if !fin.Outcome.Faults.Graceful {
		t.Fatalf("pure link loss must degrade gracefully: %+v", fin.Outcome.Faults)
	}

	// Malformed fault specs and negative timeouts are rejected at
	// submission.
	post := func(body string) int {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"adjacency":[[1],[0]],"faults":"loss=2"}`); code != http.StatusBadRequest {
		t.Fatalf("loss=2: %d, want 400", code)
	}
	if code := post(`{"adjacency":[[1],[0]],"faults":"frobnicate=1"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown fault key: %d, want 400", code)
	}
	if code := post(`{"adjacency":[[1],[0]],"timeout_ms":-5}`); code != http.StatusBadRequest {
		t.Fatalf("negative timeout: %d, want 400", code)
	}
}

func TestChurnJob(t *testing.T) {
	// A long-running job accepts topology deltas: a node leaves, a new
	// one joins, and the outcome carries the churn counters plus the
	// present-subgraph verdict.
	_, ts := newTestServer(t, Config{Workers: 1})
	_, st := submit(t, ts, JobRequest{Adjacency: ringAdjacency(12), Seed: 5, Churn: "leave=2@50,join=7@80"})
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("churned job: state = %s (err %q)", fin.State, fin.Error)
	}
	out := fin.Outcome
	if out == nil || out.Churn == nil {
		t.Fatalf("outcome missing churn report: %+v", out)
	}
	if out.Churn.Joins != 1 || out.Churn.Leaves != 1 {
		t.Fatalf("churn counters: %+v, want 1 join / 1 leave", out.Churn)
	}
	if !out.Churn.Graceful || out.Churn.HardViolations != 0 {
		t.Fatalf("churned ring not graceful: %+v", out.Churn)
	}
	if len(out.Churn.Left) != 1 || out.Churn.Left[0] != 2 {
		t.Fatalf("Left = %v, want [2]", out.Churn.Left)
	}

	// The churn totals reach the server-aggregate registry: the /metrics
	// scrape must carry the finished job's joins and leaves.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbuf := new(bytes.Buffer)
	if _, err := mbuf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	for _, want := range []string{
		"radiocolor_joins_total 1",
		"radiocolor_leaves_total 1",
		"radiocolor_conflicts_repaired_total 0",
	} {
		if !strings.Contains(mbuf.String(), want) {
			t.Errorf("metrics scrape missing %q", want)
		}
	}

	// Malformed churn specs are rejected at submission.
	post := func(body string) int {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"adjacency":[[1],[0]],"churn":"teleport=1@5"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown churn key: %d, want 400", code)
	}
	if code := post(`{"adjacency":[[1],[0]],"churn":"move=0@10:1:1"}`); code != http.StatusBadRequest {
		t.Fatalf("mobility without positions: %d, want 400", code)
	}
}

func TestMediumJob(t *testing.T) {
	// A points job under the SINR medium runs end to end and matches the
	// direct library call; a sinr request without positions is rejected
	// at submission.
	_, ts := newTestServer(t, Config{Workers: 1})
	pts := make([][2]float64, 9)
	for i := range pts {
		pts[i] = [2]float64{float64(i % 3), float64(i / 3)}
	}
	const spec = "sinr,alpha=4,beta=1.5,noise=-12"
	_, st := submit(t, ts, JobRequest{Points: pts, Radius: 1.1, Seed: 4, Medium: spec})
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone || fin.Outcome == nil {
		t.Fatalf("sinr job: state = %s (err %q)", fin.State, fin.Error)
	}
	mc, err := radiocolor.ParseMedium(spec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := radiocolor.ColorUnitDisk(pts, 1.1, radiocolor.Options{Seed: 4, Medium: mc})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Colors, fin.Outcome.Colors) {
		t.Fatalf("sinr job colors differ from direct call: %v vs %v", direct.Colors, fin.Outcome.Colors)
	}

	post := func(body string) int {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"adjacency":[[1],[0]],"medium":"sinr"}`); code != http.StatusBadRequest {
		t.Fatalf("sinr without points: %d, want 400", code)
	}
	if code := post(`{"adjacency":[[1],[0]],"medium":"laser"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown medium: %d, want 400", code)
	}
}

func TestTilingJob(t *testing.T) {
	// A tiled job (tiling=-1 auto-selects the tile count) runs end to
	// end, produces a proper complete coloring, and matches the direct
	// library call bit-for-bit — with the same options, and with tiling
	// off: tiling changes speed, never the outcome.
	_, ts := newTestServer(t, Config{Workers: 1})
	adj := ringAdjacency(64)
	_, st := submit(t, ts, JobRequest{Adjacency: adj, Seed: 11, Tiling: -1})
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone || fin.Outcome == nil {
		t.Fatalf("tiled job: state = %s (err %q)", fin.State, fin.Error)
	}
	if !fin.Outcome.Proper || !fin.Outcome.Complete {
		t.Fatalf("tiled job outcome not a proper complete coloring: %+v", fin.Outcome)
	}
	direct, err := radiocolor.ColorGraphContext(context.Background(), adj,
		radiocolor.Options{Seed: 11, Tiling: -1})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(fin.Outcome)
	want, _ := json.Marshal(direct)
	if !bytes.Equal(got, want) {
		t.Fatalf("tiled job outcome differs from tiled direct call:\n served: %s\n direct: %s", got, want)
	}
	untiled, err := radiocolor.ColorGraphContext(context.Background(), adj, radiocolor.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if plain, _ := json.Marshal(untiled); !bytes.Equal(got, plain) {
		t.Fatalf("tiled job outcome differs from the untiled direct call:\n served:  %s\n untiled: %s", got, plain)
	}

	// An invalid tiling value is rejected at submission.
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"adjacency":[[1],[0]],"tiling":-2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tiling=-2: %d, want 400", resp.StatusCode)
	}
}
