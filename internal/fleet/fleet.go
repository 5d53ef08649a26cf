// Package fleet is a generic batch-execution engine for embarrassingly
// parallel, deterministic jobs — the seed-sharded simulation trials the
// experiment suite is made of, and the substrate any large parameter
// sweep runs on.
//
// An Engine takes an ordered batch of Jobs and runs them on a bounded
// worker pool. Each job runs once; its panic is recovered and converted
// into an error, and a failing job is marked failed (the deterministic
// trials this engine runs fail deterministically too, so a retry would
// fail again). Results are returned in submission order
// regardless of completion order, so a batch of deterministic jobs
// produces deterministic output at any worker count. An optional
// Checkpoint streams every finished payload to a JSONL store, and a
// later Run with the same store restores finished jobs instead of
// recomputing them — an interrupted sweep resumes where it stopped.
package fleet

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Job is one unit of deterministic work, identified by an ID unique
// within its batch. IDs should encode everything the job's outcome
// depends on (experiment id, options, seed) so that checkpointed
// payloads are never replayed against a different configuration.
type Job struct {
	// ID uniquely names the job within the batch and keys its
	// checkpoint entry.
	ID string
	// Run computes the job's payload. It must be safe to call from any
	// goroutine and, for checkpointed batches, must be deterministic.
	Run func() (any, error)
}

// Result is the outcome of one job.
type Result struct {
	// ID echoes the job's ID.
	ID string
	// Index is the job's position in the submitted batch; Run returns
	// results sorted by it.
	Index int
	// Value is the payload produced by Job.Run (or restored from the
	// checkpoint). nil when the job failed.
	Value any
	// Err is the job's error (a *PanicError if the job panicked). nil
	// means success.
	Err error
	// Attempts counts executions of Job.Run: 1 for an executed job, 0
	// for a result restored from a checkpoint.
	Attempts int
	// FromCheckpoint marks results restored from the checkpoint store
	// without re-execution.
	FromCheckpoint bool
	// Duration is the wall time spent executing the job. 0 for restored
	// results.
	Duration time.Duration
}

// Failed reports whether the job ended without producing a payload.
func (r Result) Failed() bool { return r.Err != nil }

// PanicError wraps a panic recovered from a job so it is reported like
// an ordinary error.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

// Error implements the error interface.
func (p *PanicError) Error() string { return fmt.Sprintf("job panicked: %v", p.Value) }

// Progress receives live execution counts. *monitor.Progress implements
// it; fleet only depends on the interface so the engine stays free of
// simulator imports.
type Progress interface {
	// AddTotal grows the expected job count by n.
	AddTotal(n int)
	// JobDone records one successfully finished job.
	JobDone()
	// JobFailed records one failed job.
	JobFailed()
}

// Config parameterizes an Engine. The zero value is usable: GOMAXPROCS
// workers, no checkpoint, no progress.
type Config struct {
	// Workers bounds the number of concurrently executing jobs.
	// Defaults to runtime.GOMAXPROCS(0).
	Workers int
	// Checkpoint, when non-nil, streams finished payloads to a JSONL
	// store and restores already-finished jobs on the next Run.
	Checkpoint *Checkpoint
	// Progress, when non-nil, receives live job counts.
	Progress Progress
	// OnResult, when non-nil, is called once per job as it finishes
	// (restored jobs first, in batch order; executed jobs in completion
	// order). Calls are serialized; OnResult must not call back into
	// the engine.
	OnResult func(Result)
}

// Engine executes batches of jobs under one Config.
type Engine struct {
	cfg Config
}

// New creates an engine, applying Config defaults.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{cfg: cfg}
}

// Run executes the batch and returns one Result per job, in submission
// order. Per-job failures are reported in Result.Err, not as a Run
// error; Run itself fails only on malformed batches (duplicate or empty
// IDs, nil Run) and on checkpoint I/O errors.
func (e *Engine) Run(jobs []Job) ([]Result, error) {
	seen := make(map[string]int, len(jobs))
	for i, j := range jobs {
		if j.ID == "" {
			return nil, fmt.Errorf("fleet: job %d has an empty id", i)
		}
		if j.Run == nil {
			return nil, fmt.Errorf("fleet: job %q has a nil Run", j.ID)
		}
		if prev, dup := seen[j.ID]; dup {
			return nil, fmt.Errorf("fleet: duplicate job id %q (jobs %d and %d)", j.ID, prev, i)
		}
		seen[j.ID] = i
	}

	results := make([]Result, len(jobs))
	var restored map[string][]byte
	var store *checkpointWriter
	if e.cfg.Checkpoint != nil {
		var err error
		restored, err = e.cfg.Checkpoint.load()
		if err != nil {
			return nil, err
		}
		store, err = e.cfg.Checkpoint.openAppend()
		if err != nil {
			return nil, err
		}
		defer store.close()
	}

	if e.cfg.Progress != nil {
		e.cfg.Progress.AddTotal(len(jobs))
	}

	// Restore finished jobs, then queue the rest.
	var pending []int
	for i, j := range jobs {
		payload, ok := restored[j.ID]
		if !ok {
			pending = append(pending, i)
			continue
		}
		v, err := e.cfg.Checkpoint.decode(payload)
		if err != nil {
			return nil, fmt.Errorf("fleet: checkpoint %s: job %q: %w", e.cfg.Checkpoint.Path, j.ID, err)
		}
		results[i] = Result{ID: j.ID, Index: i, Value: v, FromCheckpoint: true}
	}
	var mu sync.Mutex // serializes checkpoint appends, OnResult and sinkErr
	var sinkErr error
	for i, j := range jobs {
		if _, ok := restored[j.ID]; !ok {
			continue
		}
		if e.cfg.Progress != nil {
			e.cfg.Progress.JobDone()
		}
		if e.cfg.OnResult != nil {
			e.cfg.OnResult(results[i])
		}
	}

	queue := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				res := e.execute(i, jobs[i])
				mu.Lock()
				if res.Err == nil && store != nil {
					if err := store.append(res.ID, res.Attempts, res.Value, e.cfg.Checkpoint); err != nil && sinkErr == nil {
						sinkErr = err
					}
				}
				if e.cfg.Progress != nil {
					if res.Err != nil {
						e.cfg.Progress.JobFailed()
					} else {
						e.cfg.Progress.JobDone()
					}
				}
				if e.cfg.OnResult != nil {
					e.cfg.OnResult(res)
				}
				mu.Unlock()
				results[i] = res
			}
		}()
	}
	for _, i := range pending {
		queue <- i
	}
	close(queue)
	wg.Wait()
	return results, sinkErr
}

// execute runs one job once.
func (e *Engine) execute(index int, j Job) Result {
	start := time.Now()
	v, err := recoverRun(j.Run)
	if err != nil {
		v = nil
	}
	return Result{ID: j.ID, Index: index, Value: v, Err: err, Attempts: 1, Duration: time.Since(start)}
}

// recoverRun invokes fn, converting a panic into a *PanicError.
func recoverRun(fn func() (any, error)) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	return fn()
}
