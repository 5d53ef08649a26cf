package radiocolor

import (
	"fmt"

	"radiocolor/internal/churn"
)

// ChurnConfig asks a run to change its topology mid-flight: nodes may
// join the network late, leave it (taking their color out of scope),
// rejoin, and move along piecewise-linear waypoint trajectories that
// re-derive their unit-disk neighborhoods as they travel. The schedule
// is declarative and compiles — like FaultConfig — to a deterministic
// plan applied at slot boundaries, so two runs with equal options see
// identical topology histories at any Workers or Tiling setting. The
// engine's hot loop pays one nil check per phase when Churn is unset,
// and the output is then bit-identical to a static run.
//
// Every node a join or repair may restart must run a resettable
// protocol (the built-in coloring protocol is); mobility needs node
// positions, so Waypoints are only accepted through the geometric
// entry points (ColorUnitDisk and friends). Churn cannot combine with
// a Medium or with clock-skew faults (Options.Validate returns
// ErrUnsupported), and churn subjects must be disjoint from fault
// crash/restart victims.
type ChurnConfig struct {
	// Joins and Leaves schedule presence changes. A node whose first
	// event is a join is absent from slot 0; per node, joins and leaves
	// must alternate in slot order.
	Joins, Leaves []ChurnEvent
	// Waypoints schedule mobility (geometric entry points only).
	Waypoints []ChurnWaypoint
	// Every is the mobility evaluation cadence in slots (default 16).
	Every int64
	// Repair selects the conflict-repair mode: "retract" (default; a
	// conflicted decided node retracts and re-contends) or "none".
	Repair string
	// Seed is reserved for stochastic churn models; the current
	// schedules compile to pure functions of their events.
	Seed int64
}

// ChurnEvent schedules one presence change at the start of slot At.
type ChurnEvent struct {
	Node int
	At   int64
}

// ChurnWaypoint sends Node moving linearly to (X, Y), arriving at slot
// At. Multiple waypoints per node chain in slot order.
type ChurnWaypoint struct {
	Node int
	At   int64
	X, Y float64
}

// ParseChurn parses the compact schedule syntax shared by
// cmd/colorsim -churn and the serve job API, e.g.
// "join=12@200,leave=3@500,move=7@1000:2.5:3.5,every=32,repair=retract".
// An empty string yields nil (no churn).
func ParseChurn(s string) (*ChurnConfig, error) {
	sch, err := churn.ParseSchedule(s)
	if err != nil {
		return nil, fmt.Errorf("radiocolor: %w", err)
	}
	if !sch.Active() {
		return nil, nil
	}
	c := &ChurnConfig{Every: sch.Every, Seed: sch.Seed}
	if sch.Repair != churn.RepairRetract {
		c.Repair = sch.Repair.String()
	}
	for _, e := range sch.Joins {
		c.Joins = append(c.Joins, ChurnEvent{Node: e.Node, At: e.At})
	}
	for _, e := range sch.Leaves {
		c.Leaves = append(c.Leaves, ChurnEvent{Node: e.Node, At: e.At})
	}
	for _, w := range sch.Waypoints {
		c.Waypoints = append(c.Waypoints, ChurnWaypoint{Node: w.Node, At: w.At, X: w.X, Y: w.Y})
	}
	return c, nil
}

// String renders the config in ParseChurn's syntax.
func (c *ChurnConfig) String() string {
	sch, err := c.schedule()
	if err != nil {
		return fmt.Sprintf("invalid churn config: %v", err)
	}
	return sch.String()
}

// schedule converts to the internal representation.
func (c *ChurnConfig) schedule() (*churn.Schedule, error) {
	if c == nil {
		return nil, nil
	}
	s := &churn.Schedule{Seed: c.Seed, Every: c.Every}
	if c.Repair != "" {
		mode, err := churn.ParseRepairMode(c.Repair)
		if err != nil {
			return nil, fmt.Errorf("radiocolor: %w", err)
		}
		s.Repair = mode
	}
	for _, e := range c.Joins {
		s.Joins = append(s.Joins, churn.Event{Node: e.Node, At: e.At})
	}
	for _, e := range c.Leaves {
		s.Leaves = append(s.Leaves, churn.Event{Node: e.Node, At: e.At})
	}
	for _, w := range c.Waypoints {
		s.Waypoints = append(s.Waypoints, churn.Waypoint{Node: w.Node, At: w.At, X: w.X, Y: w.Y})
	}
	return s, nil
}

// active reports whether the config changes anything at all.
func (c *ChurnConfig) active() bool {
	return c != nil && (len(c.Joins) > 0 || len(c.Leaves) > 0 || len(c.Waypoints) > 0)
}

// ChurnOutcome reports what the dynamic-topology layer did to a run
// and the proper-coloring verdict over the nodes still present.
type ChurnOutcome struct {
	// Joins and Leaves count presence changes applied; a node that
	// leaves and rejoins counts once in each. ConflictsRepaired counts
	// decisions retracted because a topology change created a
	// monochromatic edge.
	Joins, Leaves, ConflictsRepaired int64
	// Left lists the nodes absent at the end of the run; their colors
	// went out of scope with them.
	Left []int
	// Present counts the nodes still in the network (and not crashed);
	// PresentColored those holding a color; Degraded the
	// present-but-uncolored remainder.
	Present, PresentColored, Degraded int
	// HardViolations counts edges between two present live nodes
	// sharing a color; Graceful is true when there are none. Departed
	// or crashed nodes are the accepted cost of the dynamics, a
	// present-present conflict never is.
	HardViolations int
	Graceful       bool
}
