package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"radiocolor"
	"radiocolor/internal/graph"
	"radiocolor/internal/obs"
	"radiocolor/internal/radio"
	"radiocolor/internal/store"
)

// Config parameterizes a Server. The zero value is usable: an
// in-memory store, a queue bound of 64, GOMAXPROCS workers, a
// 128-entry deployment cache.
type Config struct {
	// Store is the job store backing the server — the source of truth
	// for every job. Nil defaults to an in-process store.Memory
	// (single replica, nothing survives the process). Pass a
	// *store.File opened on a shared directory to make jobs durable
	// and let several colord replicas share one backlog; the server
	// does not close a caller-provided store.
	Store store.Store
	// Replica names this process in the store's lease machinery. Two
	// live replicas must use distinct names; a rebooted replica reusing
	// its old name reclaims its own leases immediately. Defaults to
	// "r<pid>-<n>", unique per Server in this process.
	Replica string
	// LeaseTTL is how long a claimed job stays leased between
	// heartbeats; a replica that misses it is presumed dead and its
	// jobs are reclaimed. Defaults to 10s.
	LeaseTTL time.Duration
	// ClaimInterval is the idle worker's poll period for work created
	// by other replicas (local submissions wake workers immediately).
	// Defaults to 250ms.
	ClaimInterval time.Duration
	// Control receives store/lease/sweep metrics. Nil creates a
	// private registry. Pass the same registry to the store backend
	// (store.FileOptions.Control) so /metrics sees its counters.
	Control *obs.Control
	// QueueCap bounds the queued-job backlog admitted by THIS replica;
	// beyond it submissions are rejected with 429 + Retry-After. The
	// bound is evaluated against the shared store's queued count, so
	// with N replicas the effective bound is at most N×QueueCap.
	// Defaults to 64.
	QueueCap int
	// Workers is the number of jobs executing concurrently. Defaults to
	// runtime.GOMAXPROCS(0).
	Workers int
	// MaxSweepCells bounds the grid size of one sweep submission.
	// Defaults to 256.
	MaxSweepCells int
	// CacheSize bounds the deployment LRU (entries). 0 defaults to 128;
	// negative disables caching.
	CacheSize int
	// MaxNodes rejects jobs larger than this with 413 (admission
	// control: a single huge job should not starve the pool unnoticed).
	// Defaults to 200000.
	MaxNodes int
	// RetryAfter is the hint sent with 429 responses. Defaults to 1s.
	RetryAfter time.Duration
	// JobTimeout bounds each job's wall-clock execution; a job that
	// exceeds it finishes in state "timed_out". 0 means unlimited. A
	// request's timeout_ms overrides it per job.
	JobTimeout time.Duration
	// StreamInterval is the progress sampling period of the stream
	// endpoints. Defaults to 250ms.
	StreamInterval time.Duration
	// MaxBodyBytes bounds the request body. Defaults to 32 MiB (a
	// million-edge adjacency fits comfortably).
	MaxBodyBytes int64
	// MaxRetained bounds the finished jobs kept in the store for status
	// queries; older terminal jobs are pruned as new ones are admitted.
	// Defaults to 4096.
	MaxRetained int

	// run substitutes the job execution for tests.
	run func(ctx context.Context, j *job) (*radiocolor.Outcome, error)
	// now substitutes the clock for tests.
	now func() time.Time
}

// replicaSeq disambiguates default replica names of Servers sharing a
// process (in-process replica tests).
var replicaSeq atomic.Int64

func (c Config) withDefaults() Config {
	if c.Replica == "" {
		c.Replica = fmt.Sprintf("r%d-%d", os.Getpid(), replicaSeq.Add(1))
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.ClaimInterval <= 0 {
		c.ClaimInterval = 250 * time.Millisecond
	}
	if c.Control == nil {
		c.Control = obs.NewControl()
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxSweepCells <= 0 {
		c.MaxSweepCells = 256
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 200_000
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.StreamInterval <= 0 {
		c.StreamInterval = 250 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxRetained <= 0 {
		c.MaxRetained = 4096
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// job is the replica-local runtime of one submission: the decoded
// options, the built input, the live metrics registry, and the cancel
// hook. The durable record lives in the store; this struct exists on
// whichever replica admitted or executes the job (rehydrated from the
// stored spec on claim when needed) and is advisory — the store is the
// source of truth for state.
type job struct {
	id       string
	opt      radiocolor.Options
	adj      [][]int
	points   [][2]float64
	radius   float64
	cacheKey string
	cacheHit bool
	// timeout is the job's wall-clock bound (0 = none); exceeding it
	// ends the job in StateTimedOut.
	timeout time.Duration
	// metrics is the per-job live registry the stream endpoints sample;
	// the run feeds it (and the server aggregate) through the observer
	// seam.
	metrics *obs.Metrics

	submitted time.Time
	// done is closed at most once, when this replica drives the job
	// into a terminal state; streamers select on it as the fast local
	// path (and fall back to polling the store for remote jobs).
	done chan struct{}

	mu         sync.Mutex
	state      JobState
	started    time.Time
	finished   time.Time
	attempts   int
	canceled   bool // cancellation requested while running
	cancel     context.CancelFunc
	doneClosed bool
}

// closeDone closes j.done exactly once. Caller holds j.mu.
func (j *job) closeDone() {
	if !j.doneClosed {
		j.doneClosed = true
		close(j.done)
	}
}

// Server is the coloring service: HTTP handlers in front of a durable
// job store and a claim-loop worker pool. Create with New, serve with
// any http.Server, stop with Shutdown. Several Servers (in one process
// or many) sharing one durable store form a replica group: each job is
// executed by exactly one of them, arbitrated by the store's leases.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	st      store.Store
	ctrl    *obs.Control
	cache   *lru
	obsReg  *obs.Metrics
	latency *histogram
	start   time.Time
	// startSlots is radio.SimulatedSlots at creation, the base of the
	// /healthz simulation rate.
	startSlots int64

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	// stop ends the worker claim loops; wake nudges one idle worker
	// after a local submission (remote work arrives via ClaimInterval).
	stop chan struct{}
	wake chan struct{}
	// admitMu serializes the queued-count check with record creation so
	// concurrent submissions cannot overshoot QueueCap.
	admitMu sync.Mutex

	mu       sync.Mutex
	jobs     map[string]*job
	order    []*job // submission order, for retention pruning
	draining bool

	submitted atomic.Int64
	accepted  atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	timedOut  atomic.Int64
	inflight  atomic.Int64
	// runsOK and runsFailed count this replica's job executions by
	// outcome (the /healthz job counters). They move before the commit,
	// so a client that sees a job finish sees it counted.
	runsOK     atomic.Int64
	runsFailed atomic.Int64
}

// New builds a Server and starts its worker pool. With a durable store
// the pool immediately claims whatever backlog the store holds — boot
// resume is the ordinary claim path, rehydrating jobs from their
// persisted specs.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	st := cfg.Store
	if st == nil {
		st = store.NewMemory(cfg.Control)
	}
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		st:         st,
		ctrl:       cfg.Control,
		cache:      newLRU(cfg.CacheSize),
		obsReg:     obs.NewMetrics(),
		latency:    newHistogram(defaultLatencyBounds),
		start:      cfg.now(),
		startSlots: radio.SimulatedSlots(),
		stop:       make(chan struct{}),
		wake:       make(chan struct{}, 1),
		jobs:       make(map[string]*job),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *Server) now() time.Time { return s.cfg.now() }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepGet)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/stream", s.handleSweepStream)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// wakeWorkers nudges one idle worker; the rest follow via the claim
// loop (a woken worker claims until the backlog is empty).
func (s *Server) wakeWorkers() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// queuedCount reads the store's queued-job gauge (0 on store errors —
// health endpoints should not fail because a gauge did).
func (s *Server) queuedCount() int {
	c, err := s.st.Counts()
	if err != nil {
		return 0
	}
	return c[store.StateQueued]
}

// Shutdown drains the server: submissions are refused and workers stop
// claiming. What happens to the backlog depends on the store. With the
// default in-memory store (nothing survives anyway) queued jobs are
// canceled and in-flight jobs get until ctx's deadline before their
// contexts fire — the single-process contract. With a durable store,
// queued jobs are simply left queued and deadline-interrupted in-flight
// jobs are released back to the queue: another replica, or this
// process's next boot, picks them up. Returns nil when everything
// drained in time and ctx.Err() when the deadline forced interruption;
// in both cases the worker pool has fully exited on return. The store
// itself is closed by whoever opened it, not by the server.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	s.mu.Unlock()
	if !alreadyDraining {
		close(s.stop)
	}

	if !s.st.Durable() {
		// Single-process store: queued jobs can never run again, so
		// surface that as cancellation now.
		if recs, err := s.st.List(store.Filter{State: store.StateQueued}); err == nil {
			for _, rec := range recs {
				rec, changed, err := s.st.RequestCancel(rec.ID, s.now())
				if err != nil || !changed || rec.State != store.StateCanceled {
					continue
				}
				s.canceled.Add(1)
				if j := s.lookup(rec.ID); j != nil {
					j.mu.Lock()
					j.state = StateCanceled
					j.finished = rec.Finished
					j.closeDone()
					j.mu.Unlock()
				}
			}
		}
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline: cancel every in-flight job's context; the
		// simulation polls cancellation every ~1024 slots, so the pool
		// exits promptly.
		err = ctx.Err()
	}
	s.baseCancel()
	<-done
	return err
}

// worker claims jobs from the store until shutdown: drain the backlog,
// then sleep until a local submission wakes it or the claim ticker
// fires (work submitted by other replicas arrives silently in the
// shared store — polling is the only cross-process signal).
func (s *Server) worker() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.ClaimInterval)
	defer ticker.Stop()
	for {
		for {
			if s.isDraining() {
				return
			}
			rec, err := s.st.Claim(s.cfg.Replica, s.now(), s.cfg.LeaseTTL)
			if err != nil || rec == nil {
				break // empty backlog (or store hiccup: retry on the ticker)
			}
			s.execute(rec)
		}
		select {
		case <-s.stop:
			return
		case <-s.wake:
		case <-ticker.C:
		}
	}
}

// execute runs one claimed job through its lifecycle: rehydrate the
// runtime if this replica didn't admit it, run under a heartbeat that
// keeps the lease alive and observes cross-replica cancellation, and
// commit the terminal state — unless the lease was lost, in which case
// the result is discarded (the job is deterministic; whoever holds the
// lease commits the identical outcome).
func (s *Server) execute(rec *store.Job) {
	j := s.lookup(rec.ID)
	if j == nil {
		var err error
		j, err = s.buildRuntime(rec)
		if err != nil {
			// The spec was validated at submission, so this is data
			// corruption or version skew — fail the job explicitly
			// rather than leaving it to bounce between replicas.
			if ferr := s.st.Finish(rec.ID, s.cfg.Replica, store.StateFailed, nil, "rehydrate: "+err.Error(), s.now()); ferr == nil {
				s.failed.Add(1)
				s.afterFinish(rec)
			}
			return
		}
		s.register(j)
	}
	if rec.CancelRequested {
		// Reclaimed from a crashed owner after a cancel was requested.
		s.commit(j, rec, store.StateCanceled, nil, "canceled")
		return
	}

	ctx, cancel := context.WithCancel(s.baseCtx)
	if j.timeout > 0 {
		// The timeout wraps the cancelable context, so a DELETE still
		// surfaces as Canceled and only a genuine deadline as
		// DeadlineExceeded.
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, j.timeout)
		defer cancelT()
	}
	j.mu.Lock()
	j.state = StateRunning
	j.started = rec.Started
	j.attempts = rec.Attempts
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()

	// The heartbeat loop extends the lease while the job runs and is
	// how this replica learns about cancellation requests recorded by
	// others. A failed heartbeat means the lease moved: stop working,
	// the result would be discarded anyway.
	var leaseLost atomic.Bool
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		tick := time.NewTicker(s.cfg.LeaseTTL / 3)
		defer tick.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-tick.C:
				cancelReq, err := s.st.Heartbeat(rec.ID, s.cfg.Replica, s.now(), s.cfg.LeaseTTL)
				if err != nil {
					leaseLost.Store(true)
					cancel()
					return
				}
				if cancelReq {
					j.mu.Lock()
					j.canceled = true
					j.mu.Unlock()
					cancel()
				}
			}
		}
	}()

	s.inflight.Add(1)
	runStart := time.Now()
	outcome, runErr := s.runRecovered(ctx, j)
	s.latency.Observe(time.Since(runStart))
	if runErr == nil {
		s.runsOK.Add(1)
	} else {
		s.runsFailed.Add(1)
	}
	s.inflight.Add(-1)
	close(hbStop)
	hbWG.Wait()

	if leaseLost.Load() {
		s.discard(j)
		return
	}

	j.mu.Lock()
	wasCanceled := j.canceled
	j.mu.Unlock()
	var state store.State
	var errMsg string
	switch {
	case runErr == nil:
		state = store.StateDone
	case !wasCanceled && j.timeout > 0 && errors.Is(runErr, context.DeadlineExceeded):
		state = store.StateTimedOut
		errMsg = fmt.Sprintf("job exceeded its %v wall-clock timeout", j.timeout)
	case wasCanceled || errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded):
		state = store.StateCanceled
		errMsg = runErr.Error()
	default:
		state = store.StateFailed
		errMsg = runErr.Error()
	}

	if state == store.StateCanceled && !wasCanceled && s.isDraining() && s.st.Durable() {
		// Drain deadline interrupted a durable job nobody asked to
		// cancel: release it back to the queue so the next boot (or a
		// surviving replica) resumes it instead of losing the work.
		if err := s.st.Release(rec.ID, s.cfg.Replica, s.now()); err == nil {
			j.mu.Lock()
			j.state = StateQueued
			j.cancel = nil
			j.mu.Unlock()
			return
		}
		// Release can only fail if the lease moved; fall through to the
		// discard path via commit's own lease check.
	}

	s.commit(j, rec, state, outcome, errMsg)
}

// runRecovered runs the job, turning a panic into its error so that a
// crashing job fails instead of killing its worker.
func (s *Server) runRecovered(ctx context.Context, j *job) (out *radiocolor.Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("job panicked: %v", r)
		}
	}()
	return s.runJob(ctx, j)
}

// commit writes the terminal state to the store and, if this replica's
// lease still held, mirrors it into the runtime and the counters. A
// lost lease (or a cancel that beat us to a terminal state) discards
// the result.
func (s *Server) commit(j *job, rec *store.Job, state store.State, outcome *radiocolor.Outcome, errMsg string) {
	var result json.RawMessage
	if outcome != nil {
		var err error
		if result, err = json.Marshal(outcome); err != nil {
			state, outcome, errMsg = store.StateFailed, nil, "encode outcome: "+err.Error()
		}
	}
	if err := s.st.Finish(rec.ID, s.cfg.Replica, state, result, errMsg, s.now()); err != nil {
		s.discard(j)
		return
	}
	switch state {
	case store.StateDone:
		s.completed.Add(1)
	case store.StateFailed:
		s.failed.Add(1)
	case store.StateCanceled:
		s.canceled.Add(1)
	case store.StateTimedOut:
		s.timedOut.Add(1)
	}
	j.mu.Lock()
	j.state = JobState(state)
	j.finished = s.now()
	j.cancel = nil
	j.closeDone()
	j.mu.Unlock()

	if state == store.StateDone && j.cacheKey != "" && outcome != nil {
		// Record the measured parameters so the next job on this
		// deployment skips the measurement pass. Identical by
		// construction: measurement is deterministic.
		s.cache.setMeasured(j.cacheKey, radiocolor.Measured{
			Delta:  outcome.Delta,
			Kappa1: outcome.Kappa1,
			Kappa2: outcome.Kappa2,
		})
	}
	s.afterFinish(rec)
}

// discard throws away this replica's execution of a job whose lease
// moved: the new owner (which reran the deterministic job) commits the
// authoritative result. The runtime entry steps aside; status reads
// come from the store.
func (s *Server) discard(j *job) {
	j.mu.Lock()
	j.state = StateQueued
	j.cancel = nil
	j.mu.Unlock()
}

// afterFinish runs post-commit hooks: sweep children try to finalize
// their parent once the whole grid is terminal.
func (s *Server) afterFinish(rec *store.Job) {
	if rec.Parent != "" {
		s.finalizeSweep(rec.Parent)
	}
}

// buildRuntime rebuilds the runtime job from a stored record's spec —
// the rehydration path for jobs admitted by another replica or a
// previous boot of this one.
func (s *Server) buildRuntime(rec *store.Job) (*job, error) {
	var req JobRequest
	if err := json.Unmarshal(rec.Spec, &req); err != nil {
		return nil, err
	}
	j, err := s.assemble(&req)
	if err != nil {
		return nil, err
	}
	j.id = rec.ID
	j.submitted = rec.Submitted
	return j, nil
}

// assemble turns a validated request into a runtime job: options
// decoded, topology generated or fetched from the deployment cache.
func (s *Server) assemble(req *JobRequest) (*job, error) {
	opt, err := req.validate()
	if err != nil {
		return nil, err
	}
	j := &job{
		opt:       opt,
		timeout:   s.cfg.JobTimeout,
		state:     StateQueued,
		done:      make(chan struct{}),
		metrics:   obs.NewMetrics(),
		submitted: s.now(),
	}
	if req.TimeoutMS > 0 {
		j.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	switch {
	case req.Topology != nil:
		j.cacheKey = req.Topology.key()
		if e := s.cache.get(j.cacheKey); e != nil {
			j.adj = e.adj
			j.cacheHit = true
			if m := e.measured.Load(); m != nil {
				j.opt.Measured = m
			}
		} else {
			d, err := req.Topology.build()
			if err != nil {
				return nil, err
			}
			e := s.cache.add(j.cacheKey, adjacency(d.G))
			j.adj = e.adj
			if m := e.measured.Load(); m != nil {
				j.opt.Measured = m
			}
		}
	case req.Adjacency != nil:
		j.adj = req.Adjacency
	default:
		j.points = req.Points
		j.radius = req.Radius
	}
	return j, nil
}

// runJob executes the job through the public context-aware entry
// points, feeding the per-job and server-aggregate obs registries
// through the Observer/PhaseObserver seams (which cannot affect the
// outcome). The node count is seeded into the asleep gauge before the
// run and the terminal occupancy is subtracted back out after, so the
// aggregate phase gauges always describe the currently running jobs.
func (s *Server) runJob(ctx context.Context, j *job) (*radiocolor.Outcome, error) {
	if s.cfg.run != nil {
		return s.cfg.run(ctx, j)
	}
	n := int64(len(j.adj) + len(j.points))
	j.metrics.AddPhaseGauge(obs.PhaseAsleep, n)
	s.obsReg.AddPhaseGauge(obs.PhaseAsleep, n)
	defer func() {
		snap := j.metrics.Snapshot()
		for p, v := range snap.PhaseNodes {
			s.obsReg.AddPhaseGauge(obs.Phase(p), -v)
		}
	}()
	opt := j.opt
	opt.Observer = obsFeed{a: j.metrics, b: s.obsReg}
	var out *radiocolor.Outcome
	var err error
	if j.points != nil {
		out, err = radiocolor.ColorUnitDiskContext(ctx, j.points, j.radius, opt)
	} else {
		out, err = radiocolor.ColorGraphContext(ctx, j.adj, opt)
	}
	// The fault and churn seams count events in the run's Result, not
	// through the Observer hooks the feed above sees — fold their totals
	// from the outcome so the streamed and scraped registries carry them
	// too.
	if out != nil {
		if f := out.Faults; f != nil {
			j.metrics.AddFaultTotals(f.Lost, f.Jammed, f.Crashes, f.Restarts)
			s.obsReg.AddFaultTotals(f.Lost, f.Jammed, f.Crashes, f.Restarts)
		}
		if c := out.Churn; c != nil {
			j.metrics.AddChurnTotals(c.Joins, c.Leaves, c.ConflictsRepaired)
			s.obsReg.AddChurnTotals(c.Joins, c.Leaves, c.ConflictsRepaired)
		}
	}
	return out, err
}

// obsFeed fans simulation events into two metrics registries: the
// job's own (streamed) and the server aggregate (scraped). Both are
// atomic, so the feed is safe under Options.Workers > 1. It implements
// radiocolor.PhaseObserver, so the registries also carry live phase
// occupancy.
type obsFeed struct{ a, b *obs.Metrics }

func (f obsFeed) OnSlot(int64) { f.a.AddSlot(); f.b.AddSlot() }
func (f obsFeed) OnWake(int64, int) {
	f.a.AddWakeup()
	f.b.AddWakeup()
}
func (f obsFeed) OnTransmit(int64, int) {
	f.a.AddTransmission()
	f.b.AddTransmission()
}
func (f obsFeed) OnDeliver(int64, int, int) {
	f.a.AddDelivery()
	f.b.AddDelivery()
}
func (f obsFeed) OnCollision(int64, int, int) {
	f.a.AddCollision()
	f.b.AddCollision()
}
func (f obsFeed) OnDecide(int64, int) {
	f.a.AddDecision()
	f.b.AddDecision()
}
func (f obsFeed) OnPhase(_ int64, _ int, from, to string) {
	pf, err1 := obs.ParsePhase(from)
	pt, err2 := obs.ParsePhase(to)
	if err1 != nil || err2 != nil {
		return
	}
	f.a.PhaseChange(pf, pt)
	f.b.PhaseChange(pf, pt)
}

// register adds j to the runtime index, pruning the oldest terminal
// entries beyond the retention bound (the durable records have their
// own store-side retention via Prune).
func (s *Server) register(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[j.id]; ok {
		return
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	if len(s.order) <= s.cfg.MaxRetained {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.cfg.MaxRetained
	for _, old := range s.order {
		if excess > 0 && old.status().State.Terminal() {
			delete(s.jobs, old.id)
			excess--
			continue
		}
		kept = append(kept, old)
	}
	s.order = kept
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// status snapshots the runtime entry (used for retention pruning; the
// wire status always derives from the store record).
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{ID: j.id, State: j.state}
}

// statusFromRecord builds the wire status from the durable record —
// the one source of truth, identical on every replica. CacheHit is the
// only replica-local garnish (the store doesn't know about deployment
// caches).
func (s *Server) statusFromRecord(rec *store.Job) JobStatus {
	st := JobStatus{
		ID:        rec.ID,
		State:     JobState(rec.State),
		Submitted: rec.Submitted,
		Attempts:  rec.Attempts,
		Error:     rec.Error,
	}
	if !rec.Started.IsZero() {
		t := rec.Started
		st.Started = &t
	}
	if !rec.Finished.IsZero() {
		t := rec.Finished
		st.Finished = &t
	}
	if len(rec.Result) > 0 && rec.Kind == store.KindJob {
		var o radiocolor.Outcome
		if err := json.Unmarshal(rec.Result, &o); err == nil {
			st.Outcome = &o
		}
	}
	if j := s.lookup(rec.ID); j != nil {
		j.mu.Lock()
		st.CacheHit = j.cacheHit
		j.mu.Unlock()
	}
	return st
}

// errorResponse is the JSON error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.submitted.Add(1)
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining"})
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if n := req.nodes(); n > s.cfg.MaxNodes {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("serve: %d nodes exceeds the limit of %d", n, s.cfg.MaxNodes)})
		return
	}
	j, err := s.assemble(&req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	rec, err := s.admit(&req)
	if err != nil {
		var full errBacklogFull
		switch {
		case errors.As(err, &full):
			s.rejected.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
			writeJSON(w, http.StatusTooManyRequests,
				errorResponse{Error: fmt.Sprintf("backlog full (%d/%d queued); retry later", full.queued, s.cfg.QueueCap)})
		case errors.Is(err, errDraining):
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining"})
		default:
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "store: " + err.Error()})
		}
		return
	}
	j.id = rec.ID
	j.submitted = rec.Submitted
	s.register(j)
	s.accepted.Add(1)
	_, _ = s.st.Prune(s.cfg.MaxRetained)
	s.wakeWorkers()
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, s.statusFromRecord(rec))
}

var errDraining = errors.New("serve: draining")

// errBacklogFull is the admission rejection (HTTP 429).
type errBacklogFull struct{ queued int }

func (e errBacklogFull) Error() string {
	return fmt.Sprintf("serve: backlog full (%d queued)", e.queued)
}

// admit persists one job record, enforcing the queued-backlog bound
// atomically: the count check and the create are serialized so a burst
// of concurrent submissions lands exactly QueueCap queued records.
// Every accepted job is durable before its 202 goes out.
func (s *Server) admit(req *JobRequest) (*store.Job, error) {
	spec, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.isDraining() {
		return nil, errDraining
	}
	counts, err := s.st.Counts()
	if err != nil {
		return nil, err
	}
	if q := counts[store.StateQueued]; q >= s.cfg.QueueCap {
		return nil, errBacklogFull{queued: q}
	}
	rec := &store.Job{Kind: store.KindJob, Spec: spec, Submitted: s.now()}
	if err := s.st.Create(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// handleList serves GET /v1/jobs?state=<state>&limit=<n>: job statuses
// from the store in admission (Seq) order — deterministic and
// identical on every replica. The limit defaults to 256 and is capped
// at 1000; outcomes are omitted (fetch the job for its result).
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	f := store.Filter{Kind: store.KindJob, Limit: 256}
	if sv := r.URL.Query().Get("state"); sv != "" {
		st, err := store.ParseState(sv)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		f.State = st
	}
	if lv := r.URL.Query().Get("limit"); lv != "" {
		n, err := strconv.Atoi(lv)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("serve: bad limit %q", lv)})
			return
		}
		if n > 1000 {
			n = 1000
		}
		f.Limit = n
	}
	recs, err := s.st.List(f)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "store: " + err.Error()})
		return
	}
	statuses := make([]JobStatus, 0, len(recs))
	for _, rec := range recs {
		st := s.statusFromRecord(rec)
		st.Outcome = nil // list stays light; fetch the job for the result
		statuses = append(statuses, st)
	}
	writeJSON(w, http.StatusOK, statuses)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	rec, err := s.st.Get(r.PathValue("id"))
	if err != nil || rec.Kind != store.KindJob {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, s.statusFromRecord(rec))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if rec, err := s.st.Get(id); err != nil || rec.Kind != store.KindJob {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	rec, changed, err := s.st.RequestCancel(id, s.now())
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	if changed && rec.State == store.StateCanceled {
		// Was queued: canceled immediately, nobody will ever claim it.
		s.canceled.Add(1)
		if j := s.lookup(id); j != nil {
			j.mu.Lock()
			j.state = StateCanceled
			j.finished = rec.Finished
			j.closeDone()
			j.mu.Unlock()
		}
		s.afterFinish(rec)
	}
	if rec.State == store.StateRunning {
		// If this replica runs the job, fire its context now; a remote
		// owner sees the flag at its next heartbeat.
		if j := s.lookup(id); j != nil {
			j.mu.Lock()
			if j.state == StateRunning {
				j.canceled = true
				if j.cancel != nil {
					j.cancel()
				}
			}
			j.mu.Unlock()
		}
	}
	writeJSON(w, http.StatusOK, s.statusFromRecord(rec))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	uptime := s.now().Sub(s.start).Seconds()
	h := Health{
		Status:        "ok",
		Replica:       s.cfg.Replica,
		QueueDepth:    s.queuedCount(),
		QueueCapacity: s.cfg.QueueCap,
		Inflight:      int(s.inflight.Load()),
		JobsDone:      int(s.runsOK.Load()),
		JobsFailed:    int(s.runsFailed.Load()),
		UptimeSeconds: uptime,
	}
	if uptime > 0 {
		h.SlotsPerSec = float64(radio.SimulatedSlots()-s.startSlots) / uptime
	}
	code := http.StatusOK
	if s.isDraining() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

// adjacency flattens a built graph back to the public adjacency-list
// shape ColorGraphContext accepts.
func adjacency(g *graph.Graph) [][]int {
	adj := make([][]int, g.N())
	for v := range adj {
		row := g.Adj(v)
		out := make([]int, len(row))
		for i, u := range row {
			out[i] = int(u)
		}
		adj[v] = out
	}
	return adj
}
