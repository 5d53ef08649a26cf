// Package churn is the dynamic-topology layer of the reproduction: a
// declarative schedule of node joins, leaves, and waypoint mobility,
// compiled — like fault.Profile — to a pure, seed-deterministic plan
// the slot kernel applies incrementally.
//
// The paper's model is static: nodes wake once into a fixed unit-disk
// graph. A Schedule relaxes exactly that assumption. Nodes may join
// the network mid-run (their edges to present nodes appear, and they
// wake as if for the first time), leave it (their edges disappear and
// their color leaves scope with them), and move along piecewise-linear
// waypoint trajectories over the existing geometry, re-deriving their
// unit-disk neighborhoods at a fixed cadence. Compile flattens all of
// it into slot-keyed batches of presence flips plus CSR edge deltas
// (graph.Dyn applies them with no full rebuild), so the engine's churn
// seam is a single cursor walk: everything expensive or stateful
// happens here, once, before the run starts. Two runs with equal
// schedules compile to identical plans, and the plan is applied
// single-threaded at slot start, which is what makes churned runs
// bit-identical at any worker or tile count.
package churn

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// RepairMode selects what the engine does when an edge delta creates a
// monochromatic edge between two already-decided nodes (a join or a
// move can place two same-colored nodes in range of each other).
type RepairMode uint8

const (
	// RepairRetract (the default) is the self-stabilizing mode: one
	// endpoint of each conflicting edge retracts its decision (protocol
	// Reset + Start, exactly the fault layer's restart path) and
	// re-contends for a color. The victim is chosen deterministically —
	// the later decider, ties to the higher id as compiled — so repair
	// is bit-identical at any worker or tile count.
	RepairRetract RepairMode = iota
	// RepairNone applies topology deltas without touching decisions;
	// conflicts persist until something else (e.g. the decentralized
	// color-fixing baseline) resolves them. Useful for measuring how
	// much damage a perturbation does.
	RepairNone

	numRepairModes
)

var repairNames = [numRepairModes]string{"retract", "none"}

// String returns the mode's name (the value ParseRepairMode accepts).
func (m RepairMode) String() string {
	if m < numRepairModes {
		return repairNames[m]
	}
	return fmt.Sprintf("repair(%d)", uint8(m))
}

// ParseRepairMode maps a name to its RepairMode.
func ParseRepairMode(name string) (RepairMode, error) {
	for i, s := range repairNames {
		if s == name {
			return RepairMode(i), nil
		}
	}
	return 0, fmt.Errorf("churn: unknown repair mode %q (want retract or none)", name)
}

// Event schedules one presence change: node Node joins or leaves the
// network at the start of slot At.
type Event struct {
	Node int
	At   int64
}

// Waypoint is one mobility target: node Node is at position (X, Y) at
// slot At, moving there linearly from its previous position (its
// deployment position before the first waypoint). Between waypoints
// the node keeps moving; after its last waypoint it stays put.
type Waypoint struct {
	Node int
	At   int64
	X, Y float64
}

// Schedule declares a dynamic topology. The zero value changes
// nothing. Like fault.Profile, a Schedule composes declaratively and
// compiles to an immutable plan; all determinism derives from the
// schedule content itself (there are no probabilistic churn coins —
// Seed is recorded for future stochastic churn models and for
// "same options, same outcome" bookkeeping).
type Schedule struct {
	// Seed is reserved for stochastic churn models; a compiled plan is
	// currently a pure function of the declarative events.
	Seed int64
	// Joins and Leaves schedule presence changes. A node whose first
	// event is a join is absent from slot 0 (it enters the network
	// late); events per node must alternate leave/join in slot order.
	Joins, Leaves []Event
	// Waypoints schedule piecewise-linear mobility. Mobility requires
	// geometry (node positions and a radius), so it is only accepted
	// through geometric entry points.
	Waypoints []Waypoint
	// Every is the mobility evaluation cadence in slots: moving nodes'
	// neighborhoods are re-derived every Every slots (default 16).
	// Smaller is more faithful, larger is cheaper; joins and leaves
	// always take effect at their exact slot regardless.
	Every int64
	// Repair selects the conflict-repair mode (default RepairRetract).
	Repair RepairMode
}

// Active reports whether the schedule changes anything at all.
func (s *Schedule) Active() bool {
	return s != nil && (len(s.Joins) > 0 || len(s.Leaves) > 0 || len(s.Waypoints) > 0)
}

// Subjects returns the set of nodes whose presence the schedule
// changes (joins and leaves). A fault crash victim must not be one: the
// two lifecycles would race for its presence.
func (s *Schedule) Subjects() map[int]bool {
	set := map[int]bool{}
	for _, e := range slices.Concat(s.Joins, s.Leaves) {
		set[e.Node] = true
	}
	return set
}

// Validate checks the schedule against n nodes (n <= 0 skips
// node-range checks, for early validation before the graph is known).
func (s *Schedule) Validate(n int) error {
	if s == nil {
		return nil
	}
	if s.Every < 0 {
		return fmt.Errorf("churn: negative Every %d", s.Every)
	}
	checkNode := func(kind string, i, node int) error {
		if node < 0 || (n > 0 && node >= n) {
			return fmt.Errorf("churn: %s[%d].Node %d out of range [0,%d)", kind, i, node, n)
		}
		return nil
	}
	type ev struct {
		at   int64
		join bool
	}
	perNode := map[int][]ev{}
	for i, e := range s.Joins {
		if err := checkNode("Joins", i, e.Node); err != nil {
			return err
		}
		if e.At < 0 {
			return fmt.Errorf("churn: Joins[%d].At %d < 0", i, e.At)
		}
		perNode[e.Node] = append(perNode[e.Node], ev{e.At, true})
	}
	for i, e := range s.Leaves {
		if err := checkNode("Leaves", i, e.Node); err != nil {
			return err
		}
		if e.At < 0 {
			return fmt.Errorf("churn: Leaves[%d].At %d < 0", i, e.At)
		}
		perNode[e.Node] = append(perNode[e.Node], ev{e.At, false})
	}
	for v, evs := range perNode {
		sort.Slice(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
		for i := 1; i < len(evs); i++ {
			if evs[i].at == evs[i-1].at {
				return fmt.Errorf("churn: node %d has two events at slot %d", v, evs[i].at)
			}
			if evs[i].join == evs[i-1].join {
				kind := "leave"
				if evs[i].join {
					kind = "join"
				}
				return fmt.Errorf("churn: node %d has two consecutive %s events (slots %d and %d); joins and leaves must alternate",
					v, kind, evs[i-1].at, evs[i].at)
			}
		}
	}
	var lastAt int64 = -1
	lastNode := -1
	for i, w := range s.Waypoints {
		if err := checkNode("Waypoints", i, w.Node); err != nil {
			return err
		}
		if w.At < 0 {
			return fmt.Errorf("churn: Waypoints[%d].At %d < 0", i, w.At)
		}
		if w.Node == lastNode && w.At <= lastAt {
			return fmt.Errorf("churn: Waypoints[%d]: node %d waypoints must be in strictly increasing slot order (%d after %d)",
				i, w.Node, w.At, lastAt)
		}
		if w.Node == lastNode {
			lastAt = w.At
		} else {
			lastNode, lastAt = w.Node, w.At
		}
		if !isFinite(w.X) || !isFinite(w.Y) {
			return fmt.Errorf("churn: Waypoints[%d] has non-finite coordinates (%g, %g)", i, w.X, w.Y)
		}
	}
	return nil
}

func isFinite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}
