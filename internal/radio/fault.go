package radio

import (
	"fmt"

	"radiocolor/internal/fault"
	"radiocolor/internal/obs"
)

// Restartable is implemented by protocols whose state can be cleared
// back to the pre-Start condition. A fault profile that schedules a
// node restart — and a churn schedule that rejoins a node — requires
// the victim's protocol to implement it: a restarted node rejoins as
// if waking for the first time, with no memory of the run so far
// (fail-stop semantics).
type Restartable interface {
	Reset()
}

// faultState is the engine's per-run mutable view of a compiled fault
// injector: the event cursor and the graceful-degradation counter. It
// exists only when Config.Faults is set, so the fault seam costs the
// fault-free hot path exactly one nil check per phase (the same
// discipline as the Observer seam, pinned by the AllocsPerRun tests).
// The crashed-node bits live in the engine's combined off filter,
// shared with the churn seam's absentees (the node sets are validated
// disjoint).
type faultState struct {
	inj    *fault.Injector
	events []fault.Event
	next   int // cursor into events
	// neverDone counts nodes that are down for good without having
	// decided; numDone + neverDone == n ends the run (graceful
	// degradation: every node that still can decide has).
	neverDone int
}

// newFaultState validates the injector against the run and prepares
// the mutable state. Skew profiles are rejected here for the aligned
// engine; RunUnaligned (which models the half-slot offsets) passes
// allowSkew.
func newFaultState(inj *fault.Injector, cfg *Config, n int, allowSkew bool) (*faultState, error) {
	if inj.N() != n {
		return nil, fmt.Errorf("radio: fault injector compiled for %d nodes, graph has %d", inj.N(), n)
	}
	if !allowSkew && inj.HasSkew() {
		return nil, fmt.Errorf("radio: fault profile has clock skew; run it through RunUnaligned")
	}
	for _, ev := range inj.Events() {
		if ev.Kind == fault.EventRestart {
			if _, ok := cfg.Protocols[ev.Node].(Restartable); !ok {
				return nil, fmt.Errorf("radio: fault profile restarts node %d but its protocol does not implement Restartable: %w",
					ev.Node, fault.ErrNeedsReset)
			}
		}
	}
	return &faultState{
		inj:    inj,
		events: inj.Events(),
	}, nil
}

// faultBeginSlot applies the crash/restart events scheduled for slot t
// before any protocol runs. Crash: the node goes silent immediately —
// its standing rs state returns to asleep so resolve skips it, and it
// stays out of every phase until (and unless) it restarts. Restart:
// the node rejoins with cleared protocol state as a fresh wake-up; if
// it had already decided, the decision is retracted (the color died
// with the state).
func (e *Engine) faultBeginSlot(t int64, ob Observer, met *obs.Metrics) {
	fs := e.fs
	if fs.next >= len(fs.events) || fs.events[fs.next].Slot > t {
		return
	}
	e.rejoinU = e.rejoinU[:0]
	e.rejoinA = e.rejoinA[:0]
	for fs.next < len(fs.events) && fs.events[fs.next].Slot == t {
		ev := fs.events[fs.next]
		fs.next++
		v := ev.Node
		if ev.Kind == fault.EventCrash {
			if e.off[v] {
				continue
			}
			e.off[v] = true
			e.res.Crashes++
			if met != nil {
				met.AddCrash()
			}
			if ev.Final && !e.decided[v] {
				fs.neverDone++
			}
			if e.awake[v] {
				e.awake[v] = false
				e.rs[v].count = asleepCount
			}
			continue
		}
		// Restart.
		if !e.off[v] {
			continue
		}
		e.off[v] = false
		e.res.Restarts++
		if met != nil {
			met.AddRestart()
		}
		if e.cfg.Wake[v] >= t {
			// The node crashed before its wake slot; the normal wake
			// loop will start it on schedule.
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
	if len(e.rejoinU) > 0 {
		sortInt32s(e.rejoinU)
		e.undecided = mergeSorted(e.undecided, e.rejoinU)
	}
	if len(e.rejoinA) > 0 {
		// The pending list is sorted at flush time, so insertion order
		// is free.
		e.pending = append(e.pending, e.rejoinA...)
	}
}

// Reception-suppression classes, ordered by precedence: the adversary
// (jam) beats the channel (loss).
const (
	suppressNone = iota
	suppressJam
	suppressLoss
)

// suppression classifies why the fault layer kills an otherwise
// successful reception at node to from node from. Pure and
// allocation-free, so it is safe from any deliver worker.
func (fs *faultState) suppression(t int64, from, to int32) int {
	if fs.inj.Jammed(t, to) {
		return suppressJam
	}
	if fs.inj.Lost(t, from, to) {
		return suppressLoss
	}
	return suppressNone
}

// faultSuppressed applies the suppression check to one reception,
// counting the outcome into the given tallies (the sequential path
// passes Result fields, the parallel path its worker-private tally).
func (e *Engine) faultSuppressed(t int64, from, to int32, jammed, lost *int64, met *obs.Metrics) bool {
	switch e.fs.suppression(t, from, to) {
	case suppressJam:
		*jammed++
		if met != nil {
			met.AddJammed()
		}
		return true
	case suppressLoss:
		*lost++
		if met != nil {
			met.AddLost()
		}
		return true
	}
	return false
}
