package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"radiocolor/internal/graph"
	"radiocolor/internal/serve"
	"radiocolor/internal/store"
	"radiocolor/internal/topology"
)

// The service workload's fixed shape: two closed-loop clients against
// one job worker (so one CPU-bound thread, not two, competes with the
// host), GOMAXPROCS=2, and two protocol seeds per topology.
const (
	colordClients  = 2
	colordWorkers  = 1
	colordProcs    = 2
	colordSeedsPer = 2
	// colordWindow is the closed loop's length between host probes.
	colordWindow = 2 * time.Second
)

// colordSpec describes the service workload: an in-process colord
// (serve.Server over a store.File) on loopback, driven by a closed loop
// of clients that each submit a job and follow it until it is terminal
// before submitting the next.
type colordSpec struct {
	name string
	// setups is the number of segments a run is split into, each on a
	// freshly set-up service.
	setups int
	// sizes are the node counts of the distinct generated topologies,
	// delta their maximum degree (see drawUDG); colordSeedsPer protocol
	// seeds run on each, so every job after the first on a topology
	// hits the deployment cache.
	sizes []int
	delta int
}

func colordSmall() colordSpec {
	return colordSpec{name: "colord-small", setups: 3, sizes: []int{100, 100, 100}, delta: 18}
}

func colordWorkload(c colordSpec) workload {
	return workload{
		name:    c.name,
		procs:   colordProcs,
		measure: func(cfg runConfig) (*report, error) { return c.measure(cfg) },
		trace:   func(cfg runConfig) (*report, error) { return c.traceRun(cfg) },
	}
}

// jobSpec is one fixed request of the mix and the fingerprint its first
// outcome left, which every later run of it must reproduce.
type jobSpec struct {
	req  serve.JobRequest
	body []byte
	n    int

	mu     sync.Mutex
	want   uint64
	solved bool
}

// requests builds the job mix from the seed: UDGs with the benchmark's
// target degree (the side length UDGWithTargetDegree would choose, at
// radius 1) and maximum degree delta, each run under a few protocol
// seeds. The server regenerates the same deployments from the specs.
func (c *colordSpec) requests(seed int64) ([]*jobSpec, error) {
	var out []*jobSpec
	for i, n := range c.sizes {
		side := math.Sqrt(float64(n-1) * math.Pi / float64(targetDegree-1))
		gen := func(s int64) *topology.Deployment {
			return topology.RandomUDG(topology.UDGConfig{N: n, Side: side, Radius: 1, Seed: s})
		}
		_, topoSeed, err := drawUDG(gen, c.delta, inputSeed(seed, i))
		if err != nil {
			return nil, err
		}
		topo := &serve.TopologySpec{Kind: "udg", N: n, Side: side, Radius: 1, Seed: topoSeed}
		for j := 0; j < colordSeedsPer; j++ {
			js := &jobSpec{n: n, req: serve.JobRequest{
				Topology: topo, Seed: inputSeed(seed, 1000+i*colordSeedsPer+j), ParamScale: reliableScale,
			}}
			if js.body, err = json.Marshal(js.req); err != nil {
				return nil, err
			}
			out = append(out, js)
		}
	}
	return out, nil
}

// timedStore wraps the job store and times the calls the serving layer
// makes on its hot path.
type timedStore struct {
	store.Store
	mu                    sync.Mutex
	create, claim, finish []time.Duration
	claims, empty         int
}

func (t *timedStore) note(dst *[]time.Duration, d time.Duration) {
	t.mu.Lock()
	*dst = append(*dst, d)
	t.mu.Unlock()
}

func (t *timedStore) Create(j *store.Job) error {
	t0 := time.Now()
	err := t.Store.Create(j)
	t.note(&t.create, time.Since(t0))
	return err
}

func (t *timedStore) Claim(owner string, now time.Time, ttl time.Duration) (*store.Job, error) {
	t0 := time.Now()
	j, err := t.Store.Claim(owner, now, ttl)
	d := time.Since(t0)
	t.mu.Lock()
	t.claim = append(t.claim, d)
	t.claims++
	if j == nil && err == nil {
		t.empty++
	}
	t.mu.Unlock()
	return j, err
}

func (t *timedStore) Finish(id, owner string, state store.State, result json.RawMessage, errMsg string, now time.Time) error {
	t0 := time.Now()
	err := t.Store.Finish(id, owner, state, result, errMsg, now)
	t.note(&t.finish, time.Since(t0))
	return err
}

// service is one running colord instance on loopback.
type service struct {
	dir    string
	st     store.Store
	timed  *timedStore
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

// start opens a fresh file store under the run's directory and serves
// a colord on an ephemeral loopback port. With timed, the store is
// wrapped in a timedStore.
func (c *colordSpec) start(outDir string, timed bool) (*service, error) {
	work := filepath.Join(outDir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "store-")
	if err != nil {
		return nil, err
	}
	fst, err := store.OpenFile(dir, store.FileOptions{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{dir: dir, st: fst}
	if timed {
		s.timed = &timedStore{Store: fst}
		s.st = s.timed
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fst.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s.srv = serve.New(serve.Config{Store: s.st, Workers: colordWorkers})
	s.hs = &http.Server{Handler: s.srv}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * colordClients}}
	return s, nil
}

// stop shuts the HTTP listener and the server down, closes the store
// and removes its directory. It returns once every goroutine start
// launched has exited.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// jobResult is what one client saw of one job.
type jobResult struct {
	spec    *jobSpec
	probe   int           // the host probe taken before the job's window
	latency time.Duration // submit until the stream's "done" event arrived
	submit  time.Duration // the POST round trip
	poll    time.Duration // the status GET round trip
	status  serve.JobStatus
	err     error
}

// runJob submits one job and follows it the way the repository's own
// clients do (the README's examples and the CI smoke job): through its
// event stream, which ends with a "done" event as soon as the job is
// terminal. It then fetches the job's status once, as a client reading
// the stored result would; the outcome is checked from that status.
func (s *service) runJob(js *jobSpec) jobResult {
	r := jobResult{spec: js}
	t0 := time.Now()
	resp, err := s.client.Post(s.url+"/v1/jobs", "application/json", bytes.NewReader(js.body))
	if err != nil {
		r.err = err
		return r
	}
	var st serve.JobStatus
	err = decode(resp, http.StatusAccepted, &st)
	r.submit = time.Since(t0)
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r
	}
	done, err := s.follow(st.ID)
	if err != nil {
		r.err = err
		return r
	}
	r.latency = time.Since(t0)
	p0 := time.Now()
	resp, err = s.client.Get(s.url + "/v1/jobs/" + st.ID)
	if err != nil {
		r.err = err
		return r
	}
	err = decode(resp, http.StatusOK, &r.status)
	r.poll = time.Since(p0)
	switch {
	case err != nil:
		r.err = fmt.Errorf("status %s: %w", st.ID, err)
	case r.status.State != done.State:
		r.err = fmt.Errorf("job %s: stream ended %s, status reads %s", st.ID, done.State, r.status.State)
	}
	return r
}

// follow reads a job's NDJSON event stream up to its "done" event.
func (s *service) follow(id string) (*serve.StreamEvent, error) {
	resp, err := s.client.Get(s.url + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream %s: status %d", id, resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev serve.StreamEvent
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("stream %s: %w", id, err)
		}
		if ev.Type == "done" {
			// Read to the end so the connection can be reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return &ev, err
		}
	}
}

// errRejected marks a 429 backpressure response.
var errRejected = errors.New("rejected with 429")

func decode(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return errRejected
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// check judges one finished job: done, a complete and proper coloring,
// and the same outcome as every other run of the same request.
func (r *jobResult) check() error {
	if r.err != nil {
		return r.err
	}
	out := r.status.Outcome
	if r.status.State != serve.StateDone || out == nil {
		return fmt.Errorf("job %s ended %s: %s", r.status.ID, r.status.State, r.status.Error)
	}
	if !out.OK() {
		return fmt.Errorf("job %s: coloring not OK", r.status.ID)
	}
	fp := outcomePrint(out)
	js := r.spec
	js.mu.Lock()
	defer js.mu.Unlock()
	if !js.solved {
		js.solved, js.want = true, fp
		return nil
	}
	if fp != js.want {
		return fmt.Errorf("job %s: outcome differs from an earlier run of the same request", r.status.ID)
	}
	return nil
}

// setup starts a service and fills its deployment cache by running
// every distinct topology once — the one-time work before the first
// timed job.
func (c *colordSpec) setup(cfg runConfig, jobs []*jobSpec, timed bool) (*service, error) {
	s, err := c.start(cfg.outDir, timed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(jobs); i += colordSeedsPer {
		r := s.runJob(jobs[i])
		if err := r.check(); err != nil {
			s.stop()
			return nil, fmt.Errorf("cache prefill: %w", err)
		}
	}
	return s, nil
}

// loop runs the closed loop for d: each client cycles through the job
// mix from its own offset until the time is up.
func (c *colordSpec) loop(s *service, jobs []*jobSpec, d time.Duration) ([]jobResult, time.Duration) {
	var mu sync.Mutex
	var results []jobResult
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for k := 0; k < colordClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k * len(jobs) / colordClients; time.Now().Before(deadline); i++ {
				r := s.runJob(jobs[i%len(jobs)])
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	return results, time.Since(start)
}

// tally checks every result and fills the report's counts.
func tally(cfg runConfig, name string, rep *report, results []jobResult) (ok []jobResult, rejected int) {
	for i := range results {
		r := &results[i]
		rep.Attempted++
		if err := r.check(); err != nil {
			rep.Failed++
			if errors.Is(r.err, errRejected) {
				rejected++
			}
			fmt.Fprintf(cfg.log, "perfbench: %s: %v\n", name, err)
			continue
		}
		ok = append(ok, *r)
	}
	return ok, rejected
}

// measure is the untraced run, in segments: each sets up a fresh
// service (setup_s is the median over segments) and runs the closed loop
// for its share of the measuring time, in windows of about
// colordWindow. A host probe follows each set-up and each window, with
// no job in flight, and the reported times are host-corrected (see
// hostClock).
func (c *colordSpec) measure(cfg runConfig) (*report, error) {
	jobs, err := c.requests(cfg.seed)
	if err != nil {
		return nil, err
	}
	segment := cfg.seconds * float64(time.Second) / float64(c.setups)
	windows := max(1, int(math.Round(segment/float64(colordWindow))))
	var setups, walls []timing
	var results []jobResult
	hc := newHostClock()
	for r := 0; r < c.setups; r++ {
		t0 := time.Now()
		s, err := c.setup(cfg, jobs, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, hc.stamp(time.Since(t0)))
		hc.probe()
		for w := 0; w < windows; w++ {
			res, d := c.loop(s, jobs, time.Duration(segment/float64(windows)))
			walls = append(walls, hc.stamp(d))
			for i := range res {
				res[i].probe = len(hc.probes) - 1
			}
			results = append(results, res...)
			hc.probe()
		}
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	rep := &report{Metrics: metrics{}}
	ok, _ := tally(cfg, c.name, rep, results)
	var lat []timing
	var nodeSlots float64
	for _, r := range ok {
		lat = append(lat, timing{d: r.latency, probe: r.probe})
		nodeSlots += float64(r.spec.n) * float64(r.status.Outcome.Slots) // synchronous wake-up
	}
	hc.logSlowdown(cfg.log, c.name)
	fmt.Fprintf(cfg.log, "perfbench: %s: uncorrected setup_s %.4g, solve_s_mean %.4g\n",
		c.name, median(wall(setups)), mean(wall(lat)))
	busy := 0.0
	for _, d := range hc.corrected(walls) {
		busy += d
	}
	rep.Correct = rep.Failed == 0
	m := metrics(rep.Metrics)
	m.set("setup_s", median(hc.corrected(setups)), "s")
	m.set("solve_s_mean", mean(hc.corrected(lat)), "s")
	m.set("node_slots_per_s", perSecond(nodeSlots, busy), "1/s")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	m.set("ok_frac", float64(rep.Attempted-rep.Failed)/float64(rep.Attempted), "ratio")
	return rep, nil
}

// traceRun splits the measuring time: the first half runs untraced, the
// second half against a service whose store is timed, with every
// client call and every job's lifecycle stamps recorded.
func (c *colordSpec) traceRun(cfg runConfig) (*report, error) {
	jobs, err := c.requests(cfg.seed)
	if err != nil {
		return nil, err
	}
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	rep := &report{}
	m := layerMetrics()
	rep.Metrics = m

	s, err := c.setup(cfg, jobs, false)
	if err != nil {
		return nil, err
	}
	plain, _ := c.loop(s, jobs, half)
	if err := s.stop(); err != nil {
		return nil, err
	}
	plainOK, _ := tally(cfg, c.name, rep, plain)

	tr := newTracer()
	// The layers the cache prefill runs inside the server, timed here
	// on the same inputs: deployment generation and the κ pass.
	for i := 0; i < len(jobs); i += colordSeedsPer {
		t := jobs[i].req.Topology
		var g *graph.Graph
		tr.do("topology.gen", func() {
			g = topology.RandomUDG(topology.UDGConfig{N: t.N, Side: t.Side, Radius: t.Radius, Seed: t.Seed}).G
		})
		tr.do("graph.kappa", func() { g.Kappa(kappaOptions) })
	}
	id := tr.begin("service")
	if s, err = c.setup(cfg, jobs, true); err != nil {
		return nil, err
	}
	traced, _ := c.loop(s, jobs, half)
	logBytes := dirBytes(s.dir)
	timed := s.timed
	if err := s.stop(); err != nil {
		return nil, err
	}
	tr.end(id)
	if err := tr.write(filepath.Join(cfg.outDir, "traces"), c.name, cfg.seed); err != nil {
		return nil, err
	}
	ok, rejected := tally(cfg, c.name, rep, traced)

	var submit, polls, wait, exec, lat, plainLat []time.Duration
	hits := 0
	for _, r := range ok {
		submit = append(submit, r.submit)
		polls = append(polls, r.poll)
		st := r.status
		if st.Started != nil && st.Finished != nil {
			wait = append(wait, st.Started.Sub(st.Submitted))
			exec = append(exec, st.Finished.Sub(*st.Started))
		}
		if st.CacheHit {
			hits++
		}
		lat = append(lat, r.latency)
	}
	for _, r := range plainOK {
		plainLat = append(plainLat, r.latency)
	}
	timed.mu.Lock()
	defer timed.mu.Unlock()
	m.setLayer("topology.gen_s", tr.total("topology.gen").Seconds())
	m.setLayer("graph.kappa_s", tr.total("graph.kappa").Seconds())
	m.setLayer("serve.submit_ms_p50", median(msOf(submit)))
	m.setLayer("serve.poll_ms_p50", median(msOf(polls)))
	m.setLayer("serve.queue_wait_ms_p50", median(msOf(wait)))
	m.setLayer("serve.exec_ms_p50", median(msOf(exec)))
	m.setLayer("serve.rejected", float64(rejected))
	if len(ok) > 0 {
		m.setLayer("serve.cache_hit_frac", float64(hits)/float64(len(ok)))
	}
	m.setLayer("store.create_ms_p50", median(msOf(timed.create)))
	m.setLayer("store.claim_ms_p50", median(msOf(timed.claim)))
	m.setLayer("store.finish_ms_p50", median(msOf(timed.finish)))
	m.setLayer("store.claim_calls", float64(timed.claims))
	if timed.claims > 0 {
		m.setLayer("store.claim_empty_frac", float64(timed.empty)/float64(timed.claims))
	}
	m.setLayer("store.log_bytes", float64(logBytes))
	overhead := median(secondsOf(lat)) - median(secondsOf(plainLat))
	m.setLayer("trace.overhead_s", overhead)
	if p := median(secondsOf(plainLat)); p > 0 {
		m.setLayer("trace.overhead_frac", overhead/p)
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}
