package radio

import (
	"fmt"

	"radiocolor/internal/fault"
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
// the mutable state. A skew profile's offsets are taken up by the
// engine (newEngine).
func newFaultState(inj *fault.Injector, cfg *Config, n int) (*faultState, error) {
	if inj.N() != n {
		return nil, fmt.Errorf("radio: fault injector compiled for %d nodes, graph has %d", inj.N(), n)
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
func (e *Engine) faultBeginSlot(t int64, ob Observer) {
	fs := e.fs
	if fs.next >= len(fs.events) || fs.events[fs.next].Slot > t {
		return
	}
	e.rejoin = e.rejoin[:0]
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
			if ev.Final && !e.decided[v] {
				fs.neverDone++
			}
			e.rs[v].count = asleepCount
			continue
		}
		// Restart.
		if !e.off[v] {
			continue
		}
		e.off[v] = false
		e.res.Restarts++
		if e.cfg.Wake[v] >= t {
			// The node crashed before its wake slot; the normal wake
			// loop will start it on schedule.
			continue
		}
		wasWoke := e.everWoke[v]
		if wasWoke {
			e.cfg.Protocols[v].(Restartable).Reset()
		}
		e.rs[v].count = 0
		e.everWoke[v] = true
		e.res.Wakeups++
		if ob != nil {
			ob.OnWake(t, NodeID(v))
		}
		e.b.Start(t, v)
		if e.decided[v] {
			e.decided[v] = false
			e.numDone--
			e.res.DecideSlot[v] = -1
		}
		if !wasWoke {
			e.rejoin = append(e.rejoin, v)
		}
	}
	// The pending list is sorted before the sweeps, so insertion order
	// is free.
	e.pending = append(e.pending, e.rejoin...)
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
// counting the outcome into the given tallies (the slot-wide passes
// hand in Result fields, the tile sweeps their tile's tally).
func (e *Engine) faultSuppressed(t int64, from, to int32, jammed, lost *int64) bool {
	switch e.fs.suppression(t, from, to) {
	case suppressJam:
		*jammed++
		return true
	case suppressLoss:
		*lost++
		return true
	}
	return false
}
