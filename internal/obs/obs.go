// Package obs is the observability subsystem of the simulator: a
// ring-buffered slot-event tracer with a JSONL sink (trace.go), a
// per-phase timeline aggregator (timeline.go), and registries of atomic
// counters and gauges that the serving layer feeds from a run's
// Observer (metrics.go) and from its job store (control.go).
//
// The package is deliberately dependency-free (stdlib only) so that
// both internal/radio and internal/core can feed it without import
// cycles: the engines drive Tracer and Timeline through the
// radio.Observer seam, their only event seam, while protocol nodes
// report phase transitions through a hook. Everything is opt-in; when
// no collector is configured the engines pay a single predictable
// branch per event and allocate nothing. A run's own event counts are
// radio.Result's, not this package's.
//
// Collector bundles the tracer and the timeline; Summarize replays a
// JSONL trace back into the same per-phase aggregates the Timeline
// computes online, which is how cmd/tracestat cross-checks a recorded
// trace against a run's reported statistics.
package obs

import "fmt"

// Phase mirrors the protocol phases of internal/core (state diagram of
// Fig. 2): asleep, the passive waiting prefix of a verification state
// A_i, its active competing part, the color-requesting state R, and the
// decided states C_i. obs keeps its own copy of the enumeration so the
// package stays import-free; internal/core converts via plain integer
// casts and the core test suite pins the two enumerations together.
type Phase uint8

const (
	// PhaseAsleep is state Z: before wake-up.
	PhaseAsleep Phase = iota
	// PhaseWaiting is the passive listening prefix of a state A_i.
	PhaseWaiting
	// PhaseActive is the competing part of a state A_i.
	PhaseActive
	// PhaseRequest is state R: requesting a color from the leader.
	PhaseRequest
	// PhaseColored is a state C_i: irrevocably decided.
	PhaseColored

	// NumPhases bounds the Phase enumeration.
	NumPhases = 5
)

// phaseNames indexes Phase → wire name (used in JSONL traces and
// rendered summaries).
var phaseNames = [NumPhases]string{"asleep", "waiting", "active", "request", "colored"}

// String implements fmt.Stringer.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// ParsePhase inverts String for the JSONL decoder.
func ParsePhase(s string) (Phase, error) {
	for i, name := range phaseNames {
		if name == s {
			return Phase(i), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown phase %q", s)
}

// Collector bundles the observability pieces a run may enable. Either
// field may be nil; helpers treat a nil Collector as fully disabled.
type Collector struct {
	// Tracer records slot events into a ring and, when configured, a
	// JSONL sink.
	Tracer *Tracer
	// Timeline aggregates events into per-phase totals and bucketed
	// time series.
	Timeline *Timeline
}

// OnPhase fans a phase transition out to all configured pieces. It is
// the single entry point internal/core's node hook calls.
func (c *Collector) OnPhase(slot int64, node int32, from, to Phase, class int32) {
	if c == nil {
		return
	}
	if c.Timeline != nil {
		c.Timeline.OnPhase(slot, node, from, to)
	}
	if c.Tracer != nil {
		c.Tracer.Record(Event{Slot: slot, Kind: KindPhase, Node: node, From: -1, Phase: to, Class: class})
	}
}
