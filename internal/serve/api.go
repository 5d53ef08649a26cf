// Package serve is the serving layer of the reproduction: a long-running
// HTTP service that exposes the coloring protocol as queued, cancellable,
// observable jobs. It turns the library entry points and the obs
// metrics registry into a daemon (cmd/colord) with explicit
// backpressure and streaming results.
//
// The API surface:
//
//	POST   /v1/jobs          submit a job (202, or 429 + Retry-After when the backlog is full)
//	GET    /v1/jobs          list job statuses (?state=, ?limit=)
//	GET    /v1/jobs/{id}     poll one job
//	GET    /v1/jobs/{id}/stream  live progress, NDJSON or SSE (Accept: text/event-stream)
//	DELETE /v1/jobs/{id}     cancel a queued or running job
//	POST   /v1/sweeps        submit a parameter grid that fans out into one job per cell
//	GET    /v1/sweeps/{id}   poll a sweep (aggregate result once terminal)
//	GET    /v1/sweeps/{id}/stream  per-cell completions + final aggregate
//	DELETE /v1/sweeps/{id}   cancel a sweep and all its cells
//	GET    /healthz          liveness + backlog/worker snapshot
//	GET    /metrics          Prometheus text exposition
//
// Every accepted submission is persisted to the configured job store
// (internal/store) before its 202 goes out, and workers execute by
// claiming leases from that store — so with a durable store the
// backlog survives SIGKILL, and several Servers sharing one store
// directory form a replica group in which each job runs exactly once.
//
// Jobs run through the same context-aware entry points the library
// exposes (radiocolor.ColorGraphContext / ColorUnitDiskContext), so a
// job's Outcome is identical to a direct call with the same seed.
// Server-side topology generation caches built deployments and their
// measured graph parameters (Δ, κ₁, κ₂) in a size-bounded LRU, so
// repeated workloads skip the expensive measurement pass via
// radiocolor.Options.Measured.
package serve

import (
	"errors"
	"fmt"
	"time"

	"radiocolor"
	"radiocolor/internal/topology"
)

// JobRequest is the body of POST /v1/jobs. Exactly one of Topology,
// Adjacency, and Points must be set; the remaining fields mirror
// radiocolor.Options (Observer and Trace are deliberately not exposed —
// they are in-process seams).
type JobRequest struct {
	// Topology asks the server to generate a deployment. Generated
	// deployments (and their measured parameters) are cached across
	// jobs.
	Topology *TopologySpec `json:"topology,omitempty"`
	// Adjacency gives the communication graph explicitly, in the same
	// format radiocolor.ColorGraph accepts.
	Adjacency [][]int `json:"adjacency,omitempty"`
	// Points places nodes in the plane; Radius connects pairs within
	// transmission range (the unit disk model).
	Points [][2]float64 `json:"points,omitempty"`
	// Radius is the transmission radius for Points.
	Radius float64 `json:"radius,omitempty"`

	// Seed drives all randomness; equal seeds give bit-identical runs.
	Seed int64 `json:"seed,omitempty"`
	// Wakeup selects the wake-up schedule by name ("synchronous",
	// "uniform", "sequential", "bursty", "adversarial").
	Wakeup string `json:"wakeup,omitempty"`
	// ParamScale multiplies the practical protocol constants.
	ParamScale float64 `json:"param_scale,omitempty"`
	// MaxSlots caps the simulation (0 = automatic budget).
	MaxSlots int64 `json:"max_slots,omitempty"`
	// Workers runs the simulator's tiles on that many goroutines.
	Workers int `json:"workers,omitempty"`
	// Tiling selects the tile count of the slot loop: -1 picks it
	// automatically for the job's size, ≥2 forces that many tiles, 0
	// (default) and 1 run one tile (or one per worker). Results are
	// bit-identical either way; tiling only changes throughput at scale.
	Tiling int `json:"tiling,omitempty"`
	// Metrics attaches an Outcome.Stats snapshot to the result.
	Metrics bool `json:"metrics,omitempty"`
	// Faults injects deterministic faults, in radiocolor.ParseFaults
	// syntax (e.g. "loss=0.05,crash=3@500:900"). The outcome then
	// carries the fault counters and the graceful-degradation verdict.
	Faults string `json:"faults,omitempty"`
	// Churn changes the topology mid-run, in radiocolor.ParseChurn
	// syntax (e.g. "join=3@500,leave=7@900,move=0@1000:2:2"), so
	// long-running jobs accept topology deltas. Waypoint mobility needs
	// node positions, so it requires the points input. The outcome then
	// carries the churn counters and the present-subgraph verdict.
	Churn string `json:"churn,omitempty"`
	// Medium selects the reception model, in radiocolor.ParseMedium
	// syntax (e.g. "sinr,alpha=4,beta=1.5,noise=-90" or
	// "multichannel,k=4"). A "sinr" medium needs node positions, so it
	// requires the points input — topology and adjacency jobs flatten
	// to an adjacency list before the run.
	Medium string `json:"medium,omitempty"`
	// TimeoutMS bounds the job's wall-clock execution; a job that
	// exceeds it finishes in state "timed_out". 0 falls back to the
	// server's Config.JobTimeout (which may be unlimited).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// TopologySpec names a server-side deployment generator and its
// parameters — the same vocabulary as cmd/colorsim's -topology flag.
type TopologySpec struct {
	// Kind is one of udg, big, corridor, clustered, grid, ring, clique,
	// star, tree.
	Kind string `json:"kind"`
	// N is the node count.
	N int `json:"n"`
	// Side is the deployment square side (default 7).
	Side float64 `json:"side,omitempty"`
	// Radius is the transmission radius (default 1.2).
	Radius float64 `json:"radius,omitempty"`
	// Walls is the obstacle count for kind "big" (default 20).
	Walls int `json:"walls,omitempty"`
	// Seed drives the deterministic placement (default 1).
	Seed int64 `json:"seed,omitempty"`
}

// normalized applies the generator defaults.
func (t TopologySpec) normalized() TopologySpec {
	if t.Side == 0 {
		t.Side = 7
	}
	if t.Radius == 0 {
		t.Radius = 1.2
	}
	if t.Walls == 0 {
		t.Walls = 20
	}
	if t.Seed == 0 {
		t.Seed = 1
	}
	return t
}

// key is the cache key: every parameter the generated deployment
// depends on.
func (t TopologySpec) key() string {
	t = t.normalized()
	return fmt.Sprintf("%s|n=%d|side=%g|radius=%g|walls=%d|seed=%d",
		t.Kind, t.N, t.Side, t.Radius, t.Walls, t.Seed)
}

// build runs the generator.
func (t TopologySpec) build() (*topology.Deployment, error) {
	t = t.normalized()
	cfg := topology.UDGConfig{N: t.N, Side: t.Side, Radius: t.Radius, Seed: t.Seed}
	switch t.Kind {
	case "udg":
		return topology.RandomUDG(cfg), nil
	case "big":
		return topology.BIGWithWalls(cfg, t.Walls), nil
	case "corridor":
		return topology.CorridorUDG(t.N, t.Side*4, 2, t.Radius, t.Seed), nil
	case "clustered":
		return topology.ClusteredUDG(t.N/2, t.N-t.N/2, t.Side, t.Radius, t.Seed), nil
	case "grid":
		k := 1
		for (k+1)*(k+1) <= t.N {
			k++
		}
		return topology.GridGraph(k, k, 1, 1.5), nil
	case "ring":
		return topology.Ring(t.N), nil
	case "clique":
		return topology.Clique(t.N), nil
	case "star":
		return topology.Star(t.N), nil
	case "tree":
		return topology.RandomTree(t.N, t.Seed), nil
	default:
		return nil, fmt.Errorf("serve: unknown topology kind %q", t.Kind)
	}
}

// nodes reports how many nodes the request would simulate (for the
// admission bound).
func (r *JobRequest) nodes() int {
	switch {
	case r.Topology != nil:
		return r.Topology.N
	case r.Adjacency != nil:
		return len(r.Adjacency)
	default:
		return len(r.Points)
	}
}

// validate checks the request shape and converts the option fields,
// running radiocolor.Options.Validate before admission so a
// misconfigured job is rejected at submit time, not when a worker picks
// it up.
func (r *JobRequest) validate() (radiocolor.Options, error) {
	var opt radiocolor.Options
	inputs := 0
	if r.Topology != nil {
		inputs++
	}
	if r.Adjacency != nil {
		inputs++
	}
	if r.Points != nil {
		inputs++
	}
	if inputs != 1 {
		return opt, errors.New("serve: exactly one of topology, adjacency, points must be set")
	}
	if r.nodes() <= 0 {
		return opt, errors.New("serve: job has no nodes")
	}
	if r.Topology != nil && r.Topology.N <= 0 {
		return opt, errors.New("serve: topology needs n > 0")
	}
	if r.Points != nil && r.Radius <= 0 {
		return opt, errors.New("serve: points need a positive radius")
	}
	if r.TimeoutMS < 0 {
		return opt, fmt.Errorf("serve: negative timeout_ms %d", r.TimeoutMS)
	}
	opt = radiocolor.Options{
		Seed:       r.Seed,
		ParamScale: r.ParamScale,
		MaxSlots:   r.MaxSlots,
		Workers:    r.Workers,
		Tiling:     r.Tiling,
		Metrics:    r.Metrics,
	}
	if r.Wakeup != "" {
		wk, err := radiocolor.ParseWakeup(r.Wakeup)
		if err != nil {
			return opt, err
		}
		opt.Wakeup = wk
	}
	if r.Faults != "" {
		fc, err := radiocolor.ParseFaults(r.Faults)
		if err != nil {
			return opt, err
		}
		opt.Faults = fc
	}
	if r.Churn != "" {
		cc, err := radiocolor.ParseChurn(r.Churn)
		if err != nil {
			return opt, err
		}
		if cc != nil && len(cc.Waypoints) > 0 && r.Points == nil {
			return opt, errors.New("serve: churn mobility needs node positions; submit the points input")
		}
		opt.Churn = cc
	}
	if r.Medium != "" {
		mc, err := radiocolor.ParseMedium(r.Medium)
		if err != nil {
			return opt, err
		}
		if mc != nil && mc.Kind == "sinr" && r.Points == nil {
			return opt, errors.New("serve: a sinr medium needs node positions; submit the points input")
		}
		opt.Medium = mc
	}
	if err := opt.Validate(); err != nil {
		return opt, err
	}
	return opt, nil
}

// JobState enumerates the job lifecycle.
type JobState string

const (
	// StateQueued means the job is admitted and waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning means a worker is executing the job.
	StateRunning JobState = "running"
	// StateDone means the job finished and Outcome is set.
	StateDone JobState = "done"
	// StateFailed means the job finished with an error.
	StateFailed JobState = "failed"
	// StateCanceled means the job was canceled (DELETE or shutdown)
	// before it finished.
	StateCanceled JobState = "canceled"
	// StateTimedOut means the job hit its wall-clock timeout
	// (timeout_ms or the server's JobTimeout) before finishing.
	StateTimedOut JobState = "timed_out"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateTimedOut
}

// JobStatus is the wire view of a job, returned by POST /v1/jobs,
// GET /v1/jobs/{id}, and the final stream event.
type JobStatus struct {
	// ID names the job; all per-job endpoints key on it.
	ID string `json:"id"`
	// State is the current lifecycle state.
	State JobState `json:"state"`
	// Submitted, Started and Finished are the lifecycle timestamps
	// (Started/Finished omitted until reached).
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// Attempts counts the store's claims of the job: a job whose lease
	// expired with its replica is claimed and run again.
	Attempts int `json:"attempts,omitempty"`
	// CacheHit marks a topology job that reused a cached deployment.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Error is the failure message for StateFailed.
	Error string `json:"error,omitempty"`
	// Outcome is the full result for StateDone — identical to what
	// radiocolor.ColorGraphContext returns for the same input and seed.
	Outcome *radiocolor.Outcome `json:"outcome,omitempty"`
}

// StreamEvent is one line of the NDJSON stream (or one SSE event; the
// SSE event name duplicates Type).
type StreamEvent struct {
	// Type is "status" (initial snapshot), "progress" (periodic sample
	// while running), or "done" (terminal, carries the full status).
	Type string `json:"type"`
	// State is the job state at emission time.
	State JobState `json:"state"`
	// Progress carries the live counters for "progress" events.
	Progress *ProgressSample `json:"progress,omitempty"`
	// Status carries the full job status for "done" events.
	Status *JobStatus `json:"status,omitempty"`
}

// ProgressSample is a point-in-time view of a running job's obs
// registry.
type ProgressSample struct {
	// Slots is the number of simulated slots so far.
	Slots int64 `json:"slots"`
	// Wakeups and Decisions count protocol lifecycle events; Decisions
	// reaching the node count means the run is about to complete.
	Wakeups   int64 `json:"wakeups"`
	Decisions int64 `json:"decisions"`
	// Transmissions, Deliveries and Collisions count channel events.
	Transmissions int64 `json:"transmissions"`
	Deliveries    int64 `json:"deliveries"`
	Collisions    int64 `json:"collisions"`
	// CollisionRate is collisions / (deliveries + collisions).
	CollisionRate float64 `json:"collision_rate"`
	// SlotsPerSec is the simulation throughput.
	SlotsPerSec float64 `json:"slots_per_sec"`
	// PhaseNodes maps protocol phase → current node occupancy.
	PhaseNodes map[string]int64 `json:"phase_nodes,omitempty"`
}

// Health is the GET /healthz body.
type Health struct {
	// Status is "ok" while serving, "draining" during shutdown.
	Status string `json:"status"`
	// Replica is this process's name in the store's lease machinery.
	Replica string `json:"replica"`
	// QueueDepth is the store's queued-job count; QueueCapacity the
	// backlog bound this replica admits against.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// Inflight counts jobs currently executing.
	Inflight int `json:"inflight"`
	// JobsDone and JobsFailed count terminal executions since start.
	JobsDone   int `json:"jobs_done"`
	JobsFailed int `json:"jobs_failed"`
	// UptimeSeconds is the time since the server was created.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// SlotsPerSec is the mean process-wide simulation rate since the
	// server was created.
	SlotsPerSec float64 `json:"slots_per_sec"`
}
