package radiocolor

import (
	"errors"
	"fmt"
	"io"

	"radiocolor/internal/core"
	"radiocolor/internal/obs"
)

// Wakeup selects the wake-up schedule of a run. The paper's guarantees
// hold for every schedule, including the adversarial one.
type Wakeup uint8

const (
	// WakeupSynchronous wakes every node in slot 0 (the default).
	WakeupSynchronous Wakeup = iota
	// WakeupUniform wakes nodes uniformly at random over a span
	// proportional to the protocol's waiting period.
	WakeupUniform
	// WakeupSequential wakes nodes one by one at a fixed gap.
	WakeupSequential
	// WakeupBursty wakes nodes in groups separated by quiet periods.
	WakeupBursty
	// WakeupAdversarial staggers wake-ups to maximize the overlap of
	// waiting periods — the hardest schedule for the protocol.
	WakeupAdversarial

	numWakeups
)

var wakeupNames = [numWakeups]string{
	"synchronous", "uniform", "sequential", "bursty", "adversarial",
}

// String returns the schedule's name (the value accepted by
// ParseWakeup and the -wakeup CLI flags).
func (w Wakeup) String() string {
	if w < numWakeups {
		return wakeupNames[w]
	}
	return fmt.Sprintf("wakeup(%d)", uint8(w))
}

// ParseWakeup maps a schedule name to its Wakeup constant.
func ParseWakeup(name string) (Wakeup, error) {
	for i, s := range wakeupNames {
		if s == name {
			return Wakeup(i), nil
		}
	}
	return 0, fmt.Errorf("radiocolor: unknown wakeup pattern %q", name)
}

// Options configures a coloring run. The zero value is a sensible
// default: synchronous wake-up, practical constants, automatic budget,
// observability disabled.
type Options struct {
	// Seed drives all randomness (placement excluded); runs with equal
	// seeds are bit-identical. Defaults to 1.
	Seed int64
	// Wakeup selects the wake-up schedule (default WakeupSynchronous).
	Wakeup Wakeup
	// WakeupName selects the wake-up schedule by name and overrides
	// Wakeup when non-empty.
	//
	// Deprecated: use the typed Wakeup constants instead.
	WakeupName string
	// ParamScale multiplies the practical protocol constants
	// (default 1.0). Larger is safer but slower; experiment E7 maps the
	// trade-off.
	ParamScale float64
	// MaxSlots caps the simulation (0 = automatic generous budget).
	MaxSlots int64
	// Workers > 1 runs the simulator's send phase on several
	// goroutines. Results are bit-identical to the sequential engine:
	// every node owns an independent random stream, so the schedule of
	// goroutines cannot leak into the outcome.
	Workers int

	// Tiling selects the tiled cache-blocked slot kernel for large
	// runs: -1 lets the engine pick a tile count (~32k-node tiles),
	// values > 1 fix it, and 0 (the default) keeps the classic untiled
	// kernel. It changes speed, not results: at any Workers count a
	// tiled run's Outcome equals the Tiling=0 run's, and so do its
	// Observer events and Trace records up to their order within a
	// slot. The run stores the nodes along the shared locality pass (a
	// Hilbert curve when node positions are known, BFS order otherwise)
	// so that tiles are spatially contiguous, but every node keeps its
	// caller id as its identity — wire id, random stream, wake slot,
	// fault coins and churn events — and everything reported speaks
	// caller ids. A Medium or clock-skew faults keep the untiled loop
	// (those paths own slot resolution), which ignores the knob.
	Tiling int

	// Measured, when non-nil, supplies precomputed graph parameters
	// (max degree and the κ growth constants) so the run skips the
	// measurement pass — the dominant setup cost on repeated workloads.
	// The serving layer (internal/serve) caches these per topology.
	// Callers are trusted: supplying values that differ from what
	// measurement would return changes the protocol constants (and so
	// the outcome), exactly as the paper's "rough bounds known at
	// deployment time" would.
	Measured *Measured

	// Faults, when non-nil, injects deterministic faults — link loss,
	// burst fading, node crashes, jammers, clock skew — into the run
	// (see FaultConfig). The Outcome then carries a FaultOutcome with
	// the injected-event counts and the graceful-degradation verdict.
	Faults *FaultConfig

	// Churn, when non-nil, changes the topology mid-run — late joins,
	// scheduled departures, rejoins, waypoint mobility — with optional
	// self-stabilizing conflict repair (see ChurnConfig). The Outcome
	// then carries a ChurnOutcome with the applied-event counts and the
	// proper-coloring verdict over the nodes still present. Mobility
	// needs positions (geometric entry points only), and Churn cannot
	// combine with a Medium or clock-skew faults.
	Churn *ChurnConfig

	// Medium, when non-nil, swaps the reception model — SINR with
	// cumulative interference, multi-channel hopping — in place of the
	// paper's exactly-one-transmitter rule (see MediumConfig). nil keeps
	// the engine's built-in fast path, bit-identical to earlier
	// releases. A "sinr" medium needs node positions, so it works only
	// through the geometric entry points (ColorUnitDisk and friends),
	// and no medium combines with clock-skew fault profiles.
	Medium *MediumConfig

	// Observer, when non-nil, receives every simulation event (see the
	// Observer interface). The disabled path costs one nil check per
	// event and allocates nothing.
	Observer Observer
	// Trace, when non-nil, streams every simulation event as JSONL to
	// the configured destination; summarize the file with cmd/tracestat
	// or obs.Summarize. Tracing is independent of Observer and Metrics.
	Trace *TraceConfig
	// Metrics, when true, attaches an Outcome.Stats snapshot: event
	// counters, collision rate, throughput and the per-phase timeline.
	Metrics bool
}

// Measured carries precomputed graph parameters for Options.Measured.
// Obtain the values from a previous Outcome (Delta, Kappa1, Kappa2) of
// a run on the same graph.
type Measured struct {
	// Delta is the maximum node degree (neighbors, exclusive).
	Delta int
	// Kappa1 and Kappa2 are the bounded-independence growth constants
	// of Definition 1.
	Kappa1, Kappa2 int
}

// TraceConfig configures slot-level JSONL tracing. Exactly one of Path
// and W must be set.
type TraceConfig struct {
	// Path is the JSONL file to create (truncated if it exists).
	Path string
	// W receives the JSONL stream instead of a file.
	W io.Writer
	// Cap bounds the in-memory tail ring (default 4096 events); the
	// JSONL destination always receives every event.
	Cap int
	// Kinds restricts tracing to the named event kinds ("tx", "rx",
	// "coll", "decide", "wake", "phase"); empty traces everything.
	// Filtering out "phase" events makes the per-phase attribution of a
	// later replay (cmd/tracestat) degenerate to the asleep phase.
	Kinds []string
}

// Validate reports whether the options are well-formed. ColorGraph and
// friends call it before any expensive work (graph parameter
// measurement, simulation), so a misconfigured run fails immediately.
func (o Options) Validate() error {
	if o.ParamScale != 0 {
		// Every derived constant and slot count grows with n, Δ and κ,
		// so a scale that fails on the smallest network (NaN, ±Inf,
		// negative, or so large that a slot count leaves [1, 2^62])
		// fails on every graph. Scales that fail only on a larger graph
		// are caught once it has been measured.
		if err := core.Practical(1, 2, 1, 2).Scale(o.ParamScale).Validate(); err != nil {
			return fmt.Errorf("radiocolor: ParamScale %g: %w", o.ParamScale, err)
		}
	}
	if o.MaxSlots < 0 {
		return fmt.Errorf("radiocolor: negative MaxSlots %d", o.MaxSlots)
	}
	if o.Workers < 0 {
		return fmt.Errorf("radiocolor: negative Workers %d", o.Workers)
	}
	if o.Tiling < -1 {
		return fmt.Errorf("radiocolor: invalid Tiling %d (want -1 for auto, 0 for off, or a tile count)", o.Tiling)
	}
	if m := o.Measured; m != nil {
		if m.Delta < 0 {
			return fmt.Errorf("radiocolor: negative Measured.Delta %d", m.Delta)
		}
		if m.Kappa1 < 1 || m.Kappa2 < 1 {
			return fmt.Errorf("radiocolor: Measured κ values must be ≥ 1 (got κ₁=%d, κ₂=%d)", m.Kappa1, m.Kappa2)
		}
	}
	if _, err := o.wakeup(); err != nil {
		return err
	}
	if o.Faults != nil {
		// Structural validation only; node ranges are checked against
		// the graph when the profile is compiled.
		if err := o.Faults.profile().Validate(0); err != nil {
			return fmt.Errorf("radiocolor: %w", err)
		}
	}
	if m := o.Medium; m != nil {
		if err := m.spec().Validate(); err != nil {
			return fmt.Errorf("radiocolor: %w", err)
		}
		if o.Faults != nil && o.Faults.SkewProb > 0 {
			return errors.New("radiocolor: a Medium cannot combine with clock-skew faults (the half-slot engine has no medium seam)")
		}
	}
	if c := o.Churn; c.active() {
		sch, err := c.schedule()
		if err != nil {
			return err
		}
		// Structural validation only; node ranges and the geometry
		// requirement are checked when the schedule is compiled against
		// the graph.
		if err := sch.Validate(0); err != nil {
			return fmt.Errorf("radiocolor: %w", err)
		}
		if o.Medium != nil {
			return errors.New("radiocolor: Churn cannot combine with a Medium (media bind to a static graph)")
		}
		if o.Faults != nil && o.Faults.SkewProb > 0 {
			return errors.New("radiocolor: Churn cannot combine with clock-skew faults (the half-slot engine has no churn seam)")
		}
		// Checked here, in caller ids, rather than by the engine, which
		// would name a tiled run's engine slot.
		if f := o.Faults; f != nil {
			subjects := sch.Subjects()
			for _, cr := range f.Crashes {
				if subjects[cr.Node] {
					return fmt.Errorf("radiocolor: node %d is both a fault crash/restart victim and a churn subject; the profiles must be disjoint", cr.Node)
				}
			}
		}
	}
	if t := o.Trace; t != nil {
		if t.Path == "" && t.W == nil {
			return errors.New("radiocolor: TraceConfig needs Path or W")
		}
		if t.Path != "" && t.W != nil {
			return errors.New("radiocolor: TraceConfig has both Path and W")
		}
		if t.Cap < 0 {
			return fmt.Errorf("radiocolor: negative trace Cap %d", t.Cap)
		}
		for _, k := range t.Kinds {
			if _, err := obs.ParseKind(k); err != nil {
				return fmt.Errorf("radiocolor: %w", err)
			}
		}
	}
	return nil
}

// wakeup resolves the schedule selection, honoring the deprecated
// WakeupName override.
func (o Options) wakeup() (Wakeup, error) {
	if o.WakeupName != "" {
		return ParseWakeup(o.WakeupName)
	}
	if o.Wakeup >= numWakeups {
		return 0, fmt.Errorf("radiocolor: invalid wakeup %d", uint8(o.Wakeup))
	}
	return o.Wakeup, nil
}

func (o Options) normalized() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ParamScale <= 0 {
		o.ParamScale = 1
	}
	return o
}
