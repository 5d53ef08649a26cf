package core

import "fmt"

// Transition records one state change of a node, refining Fig. 2's
// diagram with the slot at which each edge was taken.
type Transition struct {
	Slot  int64
	Phase Phase
	// Class is the verification/color class entered (meaningful for
	// PhaseWaiting and PhaseColored).
	Class int32
}

// String implements fmt.Stringer.
func (tr Transition) String() string {
	switch tr.Phase {
	case PhaseWaiting:
		return fmt.Sprintf("[%7d] → A_%d (waiting)", tr.Slot, tr.Class)
	case PhaseActive:
		return fmt.Sprintf("[%7d] → A_%d (active)", tr.Slot, tr.Class)
	case PhaseRequest:
		return fmt.Sprintf("[%7d] → R", tr.Slot)
	case PhaseColored:
		return fmt.Sprintf("[%7d] → C_%d (decided)", tr.Slot, tr.Class)
	default:
		return fmt.Sprintf("[%7d] → %v", tr.Slot, tr.Phase)
	}
}

// PhaseHook receives a node's phase transition: the slot, the node's
// wire id, the previous and the new phase, and the class entered.
type PhaseHook func(slot int64, node int32, from, to Phase, class int32)

// EnableHistory makes the node record its state transitions; call before
// the simulation starts. Recording costs one append per transition (a
// node makes O(κ₂) of them), so it is cheap enough for full runs, but it
// is off by default to keep experiment memory flat.
func (v *Node) EnableHistory() {
	s := v.s
	if s.record == nil {
		s.record = make([]bool, len(s.phase))
		s.history = make([][]Transition, len(s.phase))
		s.trackSlots()
	}
	s.record[v.i] = true
}

// History returns the recorded transitions in order (nil unless
// EnableHistory was called).
func (v *Node) History() []Transition {
	if v.s.history == nil {
		return nil
	}
	return v.s.history[v.i]
}

// SetPhaseHook installs fn to be called on every phase transition with
// (slot, node id, previous phase, new phase, class entered). Every phase
// change in the state machine flows through logTransition, so the hook
// sees the complete trajectory Asleep → Waiting → … → Colored. Call it
// before the run starts.
//
// Transitions fire inside Send, which the engine may run on several
// goroutines (radio.Config.Workers > 1), so fn must be safe for
// concurrent use — the internal/obs collectors are. A nil fn disables
// the hook; the disabled cost is one branch per transition, and a node
// makes only O(κ₂) transitions over its lifetime.
func (v *Node) SetPhaseHook(fn func(slot int64, node int32, from, to Phase, class int32)) {
	s := v.s
	if s.hooks == nil {
		if fn == nil {
			return
		}
		s.hooks = make([]PhaseHook, len(s.phase))
		s.trackSlots()
	}
	s.hooks[v.i] = fn
}

// trackSlots starts recording each node's last slot, which a Reset's
// logged transition carries.
func (s *Flat) trackSlots() {
	if s.now == nil {
		s.now = make([]int64, len(s.phase))
	}
}

// logTransition reports node v's phase change to its hook and appends
// to its history when enabled.
func (s *Flat) logTransition(slot int64, v int32, from, to Phase, class int32) {
	if s.hooks != nil {
		if h := s.hooks[v]; h != nil {
			h(slot, int32(s.id[v]), from, to, class)
		}
	}
	if s.record != nil && s.record[v] {
		s.history[v] = append(s.history[v], Transition{Slot: slot, Phase: to, Class: class})
	}
}
