package radio

import (
	"fmt"

	"radiocolor/internal/churn"
	"radiocolor/internal/fault"
	"radiocolor/internal/graph"
	"radiocolor/internal/obs"
)

// Colored is implemented by protocols whose decision is a color. The
// churn layer's self-stabilizing repair (churn.RepairRetract) reads it
// to detect monochromatic edges created by a topology change; every
// node that can end up as an endpoint of an added edge must implement
// it (and Restartable, to be retractable) when retraction repair is on.
type Colored interface {
	// Color returns the node's chosen color; meaningful once Done().
	Color() int32
}

// churnState is the engine's per-run mutable view of a compiled churn
// plan: the dynamic CSR the plan's deltas apply to, the batch cursor,
// and the presence flags. It exists only when Config.Churn is set, so
// the churn seam costs the static-topology hot path exactly one nil
// check per phase — the same discipline as the Observer, Metrics,
// Faults and Medium seams, pinned by the zero-alloc and differential
// tests.
type churnState struct {
	plan *churn.Plan
	dyn  *graph.Dyn
	next int   // cursor into plan.Batches
	last int64 // plan.MaxSlot(): termination is deferred past it
	// absent marks nodes currently out of the network. Distinct from
	// the engine's combined off filter (off = crashed ∪ absent) so
	// Result can report Down and Left separately.
	absent []bool
	// neverDone counts final leavers that never decided, the churn
	// analogue of faultState.neverDone: their absence must not block
	// graceful termination.
	neverDone int

	touched []int32 // scratch: rows changed by the last delta
}

// newChurnState validates the plan against the run and prepares the
// mutable state: the dynamic CSR is seeded from the static graph and
// the plan's initial delta (late joiners' edges removed), and the
// engine's row bounds are re-aimed at its in-place headers.
func newChurnState(plan *churn.Plan, cfg *Config, n int) (*churnState, error) {
	if plan.N() != n {
		return nil, fmt.Errorf("radio: churn plan compiled for %d nodes, graph has %d", plan.N(), n)
	}
	if cfg.Medium != nil {
		return nil, fmt.Errorf("radio: churn and a pluggable medium cannot be combined (the medium is bound to a static graph)")
	}

	// Every node that (re)joins restarts from cleared protocol state,
	// and under retraction repair every endpoint of an added edge must
	// expose its color and be resettable.
	retract := plan.Repair == churn.RepairRetract
	churned := make(map[int32]bool)
	need := func(v int32, why string) error {
		p := cfg.Protocols[v]
		if _, ok := p.(Restartable); !ok {
			return fmt.Errorf("radio: churn %s node %d but its protocol does not implement Restartable", why, v)
		}
		return nil
	}
	for _, v := range plan.InitialAbsent {
		churned[v] = true
	}
	for _, b := range plan.Batches {
		for _, v := range b.Joins {
			churned[v] = true
			if err := need(v, "rejoins"); err != nil {
				return nil, err
			}
		}
		for _, lv := range b.Leaves {
			churned[lv.Node] = true
		}
		if retract {
			for _, ed := range b.Delta.Adds {
				for _, v := range ed {
					if _, ok := cfg.Protocols[v].(Colored); !ok {
						return nil, fmt.Errorf("radio: churn repair mode retract needs node %d's protocol to implement Colored", v)
					}
					if err := need(v, "repair may retract"); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// A node cannot be both fail-stopped and churned: the two
	// lifecycles would race for its presence.
	if cfg.Faults != nil {
		for _, ev := range cfg.Faults.Events() {
			if (ev.Kind == fault.EventCrash || ev.Kind == fault.EventRestart) && churned[ev.Node] {
				return nil, fmt.Errorf("radio: node %d is both a fault crash/restart victim and a churn subject; the profiles must be disjoint", ev.Node)
			}
		}
	}

	cs := &churnState{
		plan:   plan,
		dyn:    graph.NewDyn(cfg.G),
		last:   plan.MaxSlot(),
		absent: make([]bool, n),
	}
	cs.dyn.Apply(plan.InitialDelta, nil)
	return cs, nil
}

// churnBeginSlot applies the batch scheduled for slot t, before fault
// events and wake-ups. Single-threaded by construction (it runs in the
// slot prologue, outside any worker or tile fan-out), which is what
// makes churned runs bit-identical at any Workers or Tiles setting.
func (e *Engine) churnBeginSlot(t int64, ob Observer, met *obs.Metrics) {
	cs := e.cs
	if cs.next >= len(cs.plan.Batches) || cs.plan.Batches[cs.next].Slot > t {
		return
	}
	e.rejoinU = e.rejoinU[:0]
	e.rejoinA = e.rejoinA[:0]
	for cs.next < len(cs.plan.Batches) && cs.plan.Batches[cs.next].Slot == t {
		b := &cs.plan.Batches[cs.next]
		cs.next++

		// Leaves: the node goes out of scope immediately — its standing
		// rs state returns to asleep so resolve skips it, exactly like a
		// crash. A decided leaver keeps its bookkeeping decision (the
		// color held while the node was present); an undecided final
		// leaver stops blocking termination.
		for _, lv := range b.Leaves {
			v := lv.Node
			cs.absent[v] = true
			e.off[v] = true
			e.res.Leaves++
			if met != nil {
				met.AddLeave()
			}
			if lv.Final && !e.decided[v] {
				cs.neverDone++
			}
			if e.awake[v] {
				e.awake[v] = false
				e.rs[v].count = asleepCount
			}
		}

		// Edge delta: the dynamic CSR mutates its row-bound headers in
		// place (the engine's rowStart/rowEnd alias them), but the edge
		// array may have been reallocated by a row relocation. The tiled
		// kernel additionally re-derives the changed rows' intra-tile
		// spans.
		if !b.Delta.Empty() {
			_, cs.touched = cs.dyn.Apply(b.Delta, cs.touched[:0])
			e.edges = cs.dyn.EdgeArray()
			if e.ts != nil {
				e.ts.refreshRows(cs.touched, e.rowStart, e.rowEnd, e.edges)
			}
		}

		// Joins: the node enters (or re-enters) as a fresh wake-up, with
		// cleared protocol state on a rejoin — fault-restart semantics.
		// A node joining before its scheduled wake slot stays asleep
		// until the normal wake loop starts it.
		for _, v := range b.Joins {
			cs.absent[v] = false
			e.off[v] = false
			e.res.Joins++
			if met != nil {
				met.AddJoin()
			}
			if e.cfg.Wake[v] >= t {
				continue
			}
			wasWoke := e.everWoke[v]
			if wasWoke {
				e.cfg.Protocols[v].(Restartable).Reset()
			}
			e.awake[v] = true
			e.rs[v].count = 0
			e.everWoke[v] = true
			if ob != nil {
				ob.OnWake(t, NodeID(v))
			}
			if met != nil {
				met.AddWakeup()
			}
			e.cfg.Protocols[v].Start(t)
			needUndecided := !wasWoke
			if e.decided[v] {
				// The rejoiner's old color died with its state.
				e.decided[v] = false
				e.numDone--
				e.res.DecideSlot[v] = -1
				needUndecided = true
			}
			if needUndecided {
				e.rejoinU = append(e.rejoinU, v)
			}
			if !wasWoke {
				e.rejoinA = append(e.rejoinA, v)
			}
		}

		// Self-stabilizing repair: an added edge between two decided
		// nodes with equal colors is a conflict the static algorithm can
		// never fix (decisions are irrevocable). Under RepairRetract one
		// endpoint retracts — the later decider, ties to the edge's
		// second endpoint (the higher id as compiled; Plan.Permute keeps
		// the orientation), a deterministic choice — and re-contends via
		// the protocol's own contention path. Scanning the batch's add
		// list in plan order, single-threaded, keeps repair
		// bit-identical at any worker count and under relabeling; once a
		// victim retracts, its other conflict edges fail the decided
		// check and cannot retract it twice.
		if cs.plan.Repair == churn.RepairRetract {
			for _, ed := range b.Delta.Adds {
				a, bnd := ed[0], ed[1]
				if e.off[a] || e.off[bnd] || !e.decided[a] || !e.decided[bnd] {
					continue
				}
				if e.cfg.Protocols[a].(Colored).Color() != e.cfg.Protocols[bnd].(Colored).Color() {
					continue
				}
				victim := a
				if e.res.DecideSlot[bnd] >= e.res.DecideSlot[a] {
					victim = bnd
				}
				e.retract(t, victim, met)
			}
		}
	}
	if len(e.rejoinU) > 0 {
		sortInt32s(e.rejoinU)
		e.undecided = mergeSorted(e.undecided, e.rejoinU)
	}
	if len(e.rejoinA) > 0 {
		// The pending list is sorted at flush time (untiled) or per-slot
		// suffix merge (tiled), so insertion order is free.
		e.pending = append(e.pending, e.rejoinA...)
	}
}

// retract undoes node v's decision: protocol state clears and the node
// re-contends from its own Start path. The node stayed awake and in
// the activity lists throughout, so only the undecided list needs a
// re-insert.
func (e *Engine) retract(t int64, v int32, met *obs.Metrics) {
	e.cfg.Protocols[v].(Restartable).Reset()
	e.cfg.Protocols[v].Start(t)
	e.decided[v] = false
	e.numDone--
	e.res.DecideSlot[v] = -1
	e.res.ConflictsRepaired++
	if met != nil {
		met.AddConflictRepaired()
	}
	e.rejoinU = append(e.rejoinU, v)
}

// leftList appends the currently absent nodes to dst in ascending
// order.
func (cs *churnState) leftList(dst []int32) []int32 {
	for i, a := range cs.absent {
		if a {
			dst = append(dst, int32(i))
		}
	}
	return dst
}
