package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"radiocolor"
)

func submitSweep(t *testing.T, ts *httptest.Server, req SweepRequest) (*http.Response, SweepStatus) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st SweepStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode accepted sweep body: %v", err)
		}
	}
	return resp, st
}

func getSweep(t *testing.T, ts *httptest.Server, id string) SweepStatus {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET sweep %s: status %d", id, resp.StatusCode)
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitSweepTerminal(t *testing.T, ts *httptest.Server, id string) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getSweep(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not finish", id)
	return SweepStatus{}
}

func TestSweepExpandDeterministicOrder(t *testing.T) {
	req := SweepRequest{
		Base:   JobRequest{Topology: &TopologySpec{Kind: "ring", N: 4}},
		N:      []int{4, 8},
		Seed:   []int64{1, 2, 3},
		Wakeup: []string{"synchronous", "uniform"},
	}
	cells, err := req.expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 12 {
		t.Fatalf("expanded %d cells, want 12", len(cells))
	}
	// Nesting order is n → seed → wakeup: the last dimension varies
	// fastest.
	want := []struct {
		n      int
		seed   int64
		wakeup string
	}{
		{4, 1, "synchronous"}, {4, 1, "uniform"},
		{4, 2, "synchronous"}, {4, 2, "uniform"},
		{4, 3, "synchronous"}, {4, 3, "uniform"},
		{8, 1, "synchronous"}, {8, 1, "uniform"},
		{8, 2, "synchronous"}, {8, 2, "uniform"},
		{8, 3, "synchronous"}, {8, 3, "uniform"},
	}
	for i, w := range want {
		c := cells[i]
		if c.Topology.N != w.n || c.Seed != w.seed || c.Wakeup != w.wakeup {
			t.Fatalf("cell %d = {n:%d seed:%d wakeup:%s}, want %+v", i, c.Topology.N, c.Seed, c.Wakeup, w)
		}
	}
	// Sweeping n without a topology cannot work.
	bad := SweepRequest{Base: JobRequest{Adjacency: ringAdjacency(4)}, N: []int{4, 8}}
	if _, err := bad.expand(); err == nil {
		t.Fatal("expand accepted an n sweep without a topology")
	}
}

// TestSweepAggregateMatchesIndividualJobs is the issue's byte-identity
// contract: a 12-cell sweep's aggregate must contain, for each cell,
// exactly the outcome bytes that submitting that cell as an individual
// job would have stored. Real simulations on small rings keep it fast.
func TestSweepAggregateMatchesIndividualJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueCap: 64})
	req := SweepRequest{
		Base:   JobRequest{Topology: &TopologySpec{Kind: "ring", N: 8}},
		N:      []int{8, 12},
		Seed:   []int64{1, 2, 3},
		Wakeup: []string{"synchronous", "uniform"},
	}
	resp, st := submitSweep(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/sweeps/"+st.ID {
		t.Fatalf("Location %q", loc)
	}
	if st.Cells != 12 || len(st.CellIDs) != 12 {
		t.Fatalf("sweep admitted with %d cells (%d ids), want 12", st.Cells, len(st.CellIDs))
	}

	final := waitSweepTerminal(t, ts, st.ID)
	if final.State != StateDone || final.CellsDone != 12 {
		t.Fatalf("sweep ended %s with %d done cells: %+v", final.State, final.CellsDone, final)
	}
	if final.Result == nil || len(final.Result.Cells) != 12 {
		t.Fatalf("aggregate missing or short: %+v", final.Result)
	}

	cells, err := req.expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, cellReq := range cells {
		cell := final.Result.Cells[i]
		if cell.Cell != i || cell.State != StateDone {
			t.Fatalf("aggregate cell %d = %+v", i, cell)
		}
		// Run the identical request as a plain job and compare the raw
		// result bytes in the store.
		jresp, jst := submit(t, ts, cellReq)
		if jresp.StatusCode != http.StatusAccepted {
			t.Fatalf("cell %d individual submit: status %d", i, jresp.StatusCode)
		}
		if got := waitTerminal(t, ts, jst.ID); got.State != StateDone {
			t.Fatalf("cell %d individual job ended %s", i, got.State)
		}
		rec, err := s.st.Get(jst.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cell.Outcome, rec.Result) {
			t.Fatalf("cell %d aggregate bytes differ from individual job:\nsweep: %s\nsolo:  %s",
				i, cell.Outcome, rec.Result)
		}
	}

	// The control counters saw the sweep.
	snap := s.ctrl.Snapshot()
	if snap.Sweeps != 1 || snap.SweepCells != 12 || snap.SweepsDone != 1 {
		t.Fatalf("control counters: %+v", snap)
	}
}

func TestSweepValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxSweepCells: 4})
	// A bad cell is reported with its index and nothing is admitted.
	resp, _ := submitSweep(t, ts, SweepRequest{
		Base:   JobRequest{Adjacency: ringAdjacency(4)},
		Wakeup: []string{"synchronous", "no-such-schedule"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wakeup cell: status %d", resp.StatusCode)
	}
	// Grid size over MaxSweepCells is refused outright.
	resp, _ = submitSweep(t, ts, SweepRequest{
		Base: JobRequest{Adjacency: ringAdjacency(4)},
		Seed: []int64{1, 2, 3, 4, 5},
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized sweep: status %d", resp.StatusCode)
	}
	// Unknown sweep ids 404, and plain job ids are not sweeps.
	r, err := ts.Client().Get(ts.URL + "/v1/sweeps/s-999999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown sweep: status %d", r.StatusCode)
	}
}

// TestSweepRejectsTilingAxis pins the removed tiling dimension: tiling
// never changes an outcome, so a sweep naming it is an unknown field
// (the job-level "tiling" field stays).
func TestSweepRejectsTilingAxis(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := ts.Client().Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"base":{"adjacency":[[1],[0]]},"seed":[1,2],"tiling":[0,4]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `unknown field "tiling"`) {
		t.Fatalf("sweep with a tiling axis: %d %q, want 400 naming the unknown field", resp.StatusCode, e.Error)
	}
	// A tiled base job still sweeps.
	resp, _ = submitSweep(t, ts, SweepRequest{
		Base: JobRequest{Adjacency: ringAdjacency(4), Tiling: 4},
		Seed: []int64{1, 2},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep with a tiled base: status %d", resp.StatusCode)
	}
}

func TestSweepCancelFansOut(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers: 1,
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
	_, st := submitSweep(t, ts, SweepRequest{
		Base: JobRequest{Adjacency: ringAdjacency(4)},
		Seed: []int64{1, 2, 3, 4},
	})
	// Let the single worker pick up one cell so the cancel exercises
	// both the queued and the running paths.
	waitFor(t, func() bool {
		c, err := s.st.Counts()
		return err == nil && c["running"] == 1
	})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep cancel: status %d", resp.StatusCode)
	}
	final := waitSweepTerminal(t, ts, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("canceled sweep ended %s", final.State)
	}
	waitFor(t, func() bool {
		cur := getSweep(t, ts, st.ID)
		return cur.CellsQueued == 0 && cur.CellsRunning == 0
	})
	if cur := getSweep(t, ts, st.ID); cur.CellsFailed != 4 || cur.CellsDone != 0 {
		t.Fatalf("cells after cancel: %+v", cur)
	}
}

// TestSweepStream exercises the aggregated stream: cell events as each
// cell lands, a final done frame carrying the aggregate.
func TestSweepStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, StreamInterval: 5 * time.Millisecond})
	_, st := submitSweep(t, ts, SweepRequest{
		Base: JobRequest{Adjacency: ringAdjacency(6)},
		Seed: []int64{1, 2, 3},
	})
	resp, err := ts.Client().Get(ts.URL + "/v1/sweeps/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	cells := map[int]bool{}
	var last SweepStreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev SweepStreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if ev.Type == "cell" {
			if ev.Cell == nil {
				t.Fatal("cell event without a cell")
			}
			cells[ev.Cell.Cell] = true
		}
		last = ev
	}
	if len(cells) != 3 {
		t.Fatalf("saw %d cell events, want 3", len(cells))
	}
	if last.Type != "done" || last.Status == nil || last.Status.Result == nil {
		t.Fatalf("last event = %+v", last)
	}
	if got := len(last.Status.Result.Cells); got != 3 {
		t.Fatalf("done aggregate has %d cells", got)
	}
	// SSE replay of a finished sweep.
	sreq, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/sweeps/"+st.ID+"/stream", nil)
	sreq.Header.Set("Accept", "text/event-stream")
	sresp, err := ts.Client().Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	raw := new(strings.Builder)
	if _, err := io.Copy(raw, sresp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(raw.String(), "event: done\n") {
		t.Fatalf("SSE replay missing done frame: %q", raw.String())
	}
}
