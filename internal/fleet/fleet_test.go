package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// fakeProgress counts callbacks; safe for concurrent use.
type fakeProgress struct {
	total, done, failed atomic.Int64
}

func (p *fakeProgress) AddTotal(n int) { p.total.Add(int64(n)) }
func (p *fakeProgress) JobDone()       { p.done.Add(1) }
func (p *fakeProgress) JobFailed()     { p.failed.Add(1) }

// intDecode is a Checkpoint.Decode reviving int payloads, so restored
// and freshly executed results compare with ==.
func intDecode(b []byte) (any, error) {
	var v int
	err := json.Unmarshal(b, &v)
	return v, err
}

func squareJobs(n int, execs []atomic.Int64) []Job {
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{
			ID: fmt.Sprintf("sq/%d", i),
			Run: func() (any, error) {
				if execs != nil {
					execs[i].Add(1)
				}
				return i * i, nil
			},
		}
	}
	return jobs
}

func TestResultsInSubmissionOrder(t *testing.T) {
	const n = 64
	prog := &fakeProgress{}
	results, err := New(Config{Workers: 8, Progress: prog}).Run(squareJobs(n, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Index != i || r.ID != fmt.Sprintf("sq/%d", i) {
			t.Fatalf("result %d out of order: index=%d id=%s", i, r.Index, r.ID)
		}
		if r.Err != nil || r.Value.(int) != i*i {
			t.Fatalf("result %d: value=%v err=%v", i, r.Value, r.Err)
		}
		if r.Attempts != 1 || r.FromCheckpoint {
			t.Fatalf("result %d: attempts=%d fromCheckpoint=%v", i, r.Attempts, r.FromCheckpoint)
		}
	}
	if prog.total.Load() != n || prog.done.Load() != n || prog.failed.Load() != 0 {
		t.Fatalf("progress counters: total=%d done=%d failed=%d",
			prog.total.Load(), prog.done.Load(), prog.failed.Load())
	}
}

func TestBatchValidation(t *testing.T) {
	ok := func() (any, error) { return nil, nil }
	cases := []struct {
		name string
		jobs []Job
		want string
	}{
		{"empty id", []Job{{ID: "", Run: ok}}, "empty id"},
		{"nil run", []Job{{ID: "a", Run: nil}}, "nil Run"},
		{"duplicate id", []Job{{ID: "a", Run: ok}, {ID: "a", Run: ok}}, "duplicate"},
	}
	for _, c := range cases {
		if _, err := New(Config{}).Run(c.jobs); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
}

func TestPanicRecovery(t *testing.T) {
	var runs atomic.Int64
	prog := &fakeProgress{}
	results, err := New(Config{Workers: 2, Progress: prog}).Run([]Job{
		{ID: "panics", Run: func() (any, error) { runs.Add(1); panic("boom") }},
		{ID: "ok", Run: func() (any, error) { return "ok", nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if !r.Failed() || r.Value != nil || r.Attempts != 1 || runs.Load() != 1 {
		t.Fatalf("panicking job: value=%v err=%v attempts=%d runs=%d", r.Value, r.Err, r.Attempts, runs.Load())
	}
	if !strings.Contains(r.Err.Error(), "job panicked: boom") {
		t.Fatalf("panic error %q", r.Err)
	}
	if results[1].Err != nil || results[1].Value != "ok" {
		t.Fatalf("the other job: %+v", results[1])
	}
	if prog.done.Load() != 1 || prog.failed.Load() != 1 {
		t.Fatalf("progress: done=%d failed=%d", prog.done.Load(), prog.failed.Load())
	}
}

func TestPermanentFailureIsPerJob(t *testing.T) {
	prog := &fakeProgress{}
	results, err := New(Config{Workers: 4, Progress: prog}).Run([]Job{
		{ID: "good", Run: func() (any, error) { return 1, nil }},
		{ID: "panics", Run: func() (any, error) { panic("boom") }},
		{ID: "errors", Run: func() (any, error) { return nil, errors.New("nope") }},
	})
	if err != nil {
		t.Fatalf("per-job failures must not fail Run: %v", err)
	}
	if results[0].Failed() || results[0].Value.(int) != 1 {
		t.Fatalf("good job: %+v", results[0])
	}
	var pe *PanicError
	if !errors.As(results[1].Err, &pe) || pe.Value != "boom" || !strings.Contains(pe.Stack, "goroutine") {
		t.Fatalf("panicking job should yield a *PanicError with a stack, got %v", results[1].Err)
	}
	if !results[2].Failed() || results[2].Attempts != 1 {
		t.Fatalf("erroring job: %+v", results[2])
	}
	if prog.done.Load() != 1 || prog.failed.Load() != 2 {
		t.Fatalf("progress: done=%d failed=%d", prog.done.Load(), prog.failed.Load())
	}
}

// TestCheckpointResume simulates a killed sweep: a first engine finishes
// only a prefix of the batch, a second engine gets the full batch plus
// the same checkpoint, and its output must match an uninterrupted run
// with the prefix restored rather than re-executed.
func TestCheckpointResume(t *testing.T) {
	const n, killedAfter = 8, 3
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ck := func() *Checkpoint { return &Checkpoint{Path: path, Decode: intDecode} }

	execs := make([]atomic.Int64, n)
	jobs := squareJobs(n, execs)

	// Phase 1: the "killed" sweep completes only the first 3 jobs.
	if _, err := New(Config{Workers: 2, Checkpoint: ck()}).Run(jobs[:killedAfter]); err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume with the full batch.
	prog := &fakeProgress{}
	results, err := New(Config{Workers: 4, Checkpoint: ck(), Progress: prog}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || r.Value.(int) != i*i {
			t.Fatalf("resumed result %d: value=%v err=%v", i, r.Value, r.Err)
		}
		wantRestored := i < killedAfter
		if r.FromCheckpoint != wantRestored {
			t.Fatalf("result %d: FromCheckpoint=%v, want %v", i, r.FromCheckpoint, wantRestored)
		}
		wantExecs := int64(1)
		if got := execs[i].Load(); got != wantExecs {
			t.Fatalf("job %d executed %d times across both phases, want %d", i, got, wantExecs)
		}
	}
	if prog.done.Load() != n {
		t.Fatalf("restored jobs must count as done: done=%d want=%d", prog.done.Load(), n)
	}

	// Phase 3: a rerun restores everything and executes nothing.
	results, err = New(Config{Workers: 4, Checkpoint: ck()}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.FromCheckpoint || r.Value.(int) != i*i {
			t.Fatalf("rerun result %d: fromCheckpoint=%v value=%v", i, r.FromCheckpoint, r.Value)
		}
		if got := execs[i].Load(); got != 1 {
			t.Fatalf("job %d re-executed on full rerun (%d executions)", i, got)
		}
	}
}

func TestCheckpointTruncatedTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	full := `{"id":"a","attempts":1,"payload":7}` + "\n"
	trunc := `{"id":"b","attempts":1,"pay` // kill mid-write
	if err := os.WriteFile(path, []byte(full+trunc), 0o644); err != nil {
		t.Fatal(err)
	}
	var bRuns atomic.Int64
	var warns []string
	ck := &Checkpoint{Path: path, Decode: intDecode, Warn: func(m string) { warns = append(warns, m) }}
	results, err := New(Config{Checkpoint: ck}).Run([]Job{
		{ID: "a", Run: func() (any, error) { t.Error("job a must be restored, not re-run"); return 0, nil }},
		{ID: "b", Run: func() (any, error) { bRuns.Add(1); return 42, nil }},
	})
	if err != nil {
		t.Fatalf("truncated final line must be tolerated: %v", err)
	}
	if !results[0].FromCheckpoint || results[0].Value.(int) != 7 {
		t.Fatalf("job a: %+v", results[0])
	}
	if results[1].FromCheckpoint || bRuns.Load() != 1 || results[1].Value.(int) != 42 {
		t.Fatalf("job b should recompute: %+v (runs=%d)", results[1], bRuns.Load())
	}
	// The dropped tail is skipped loudly, exactly once.
	if len(warns) != 1 || !strings.Contains(warns[0], "truncated final line") {
		t.Fatalf("warnings = %q", warns)
	}
	// A clean file (job b's record now appended after the repair run)
	// must not warn — only kills mid-write do. The truncated fragment is
	// still in the middle of the file, which load treats as corruption,
	// so rebuild a clean file to check the quiet path.
	clean := full + `{"id":"b","attempts":1,"payload":42}` + "\n"
	if err := os.WriteFile(path, []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	warns = nil
	if _, err := New(Config{Checkpoint: ck}).Run([]Job{{ID: "a", Run: func() (any, error) { return 0, nil }}}); err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Fatalf("clean load warned: %q", warns)
	}
}

func TestCheckpointCorruptionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	corrupt := "not json at all\n" + `{"id":"a","attempts":1,"payload":7}` + "\n"
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Checkpoint: &Checkpoint{Path: path}}).Run(squareJobs(1, nil))
	if err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("a malformed line followed by more data is corruption, got %v", err)
	}
}

func TestCheckpointLastRecordWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	lines := `{"id":"a","attempts":1,"payload":1}` + "\n" + `{"id":"a","attempts":2,"payload":2}` + "\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	results, err := New(Config{Checkpoint: &Checkpoint{Path: path, Decode: intDecode}}).Run([]Job{
		{ID: "a", Run: func() (any, error) { return 0, nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].FromCheckpoint || results[0].Value.(int) != 2 {
		t.Fatalf("want the newest payload (2), got %+v", results[0])
	}
}

func TestFailedJobsNotCheckpointed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	jobs := []Job{
		{ID: "ok", Run: func() (any, error) { return 1, nil }},
		{ID: "bad", Run: func() (any, error) { return nil, errors.New("x") }},
	}
	if _, err := New(Config{Checkpoint: &Checkpoint{Path: path}}).Run(jobs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"bad"`) {
		t.Fatalf("failed job leaked into the checkpoint: %s", data)
	}
	// The failed job re-executes on resume and is checkpointed once fixed.
	var ran atomic.Int64
	jobs[1].Run = func() (any, error) { ran.Add(1); return 2, nil }
	results, err := New(Config{Checkpoint: &Checkpoint{Path: path, Decode: intDecode}}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].FromCheckpoint || results[1].FromCheckpoint || ran.Load() != 1 || results[1].Value.(int) != 2 {
		t.Fatalf("resume after failure: %+v %+v (ran=%d)", results[0], results[1], ran.Load())
	}
}

func TestOnResultStreamsInOrderWithOneWorker(t *testing.T) {
	const n = 16
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	jobs := squareJobs(n, nil)
	ck := &Checkpoint{Path: path, Decode: intDecode}
	// Pre-finish a scattered subset so restored and executed jobs mix.
	if _, err := New(Config{Workers: 2, Checkpoint: ck}).Run([]Job{jobs[1], jobs[4], jobs[5]}); err != nil {
		t.Fatal(err)
	}
	var got []string
	_, err := New(Config{
		Workers:    1,
		Checkpoint: ck,
		OnResult:   func(r Result) { got = append(got, r.ID) },
	}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Restored jobs stream first in batch order, then executed jobs in
	// completion order — which with one worker is batch order too.
	want := []string{"sq/1", "sq/4", "sq/5"}
	for i := 0; i < n; i++ {
		if i != 1 && i != 4 && i != 5 {
			want = append(want, fmt.Sprintf("sq/%d", i))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("OnResult calls = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OnResult order[%d] = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestDefaultDecodeYieldsRawJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	type payload struct{ X int }
	if _, err := New(Config{Checkpoint: &Checkpoint{Path: path}}).Run([]Job{
		{ID: "a", Run: func() (any, error) { return payload{X: 9}, nil }},
	}); err != nil {
		t.Fatal(err)
	}
	results, err := New(Config{Checkpoint: &Checkpoint{Path: path}}).Run([]Job{
		{ID: "a", Run: func() (any, error) { t.Error("must restore"); return nil, nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := results[0].Value.(json.RawMessage)
	if !ok {
		t.Fatalf("default Decode should return json.RawMessage, got %T", results[0].Value)
	}
	var p payload
	if err := json.Unmarshal(raw, &p); err != nil || p.X != 9 {
		t.Fatalf("restored payload %s: %v", raw, err)
	}
}
