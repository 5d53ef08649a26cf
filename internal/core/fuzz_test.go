package core

import (
	"math/rand"
	"testing"

	"radiocolor/internal/radio"
)

// TestFuzzNodeRobustness drives a single node with random interleavings
// of Send ticks and arbitrary received messages and checks structural
// invariants after every step:
//
//   - the node never panics;
//   - a decided color is never changed (irrevocability);
//   - the counter never exceeds the threshold while undecided;
//   - the phase only moves along the edges of Fig. 2;
//   - the verification class never decreases and jumps only to
//     tc·(κ₂+1) windows.
func TestFuzzNodeRobustness(t *testing.T) {
	par := testParams()
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		v := NewNode(0, radio.NodeRand(seed, 0), par, Ablation{})
		v.Start(0)
		prevPhase := v.Phase()
		decided := int32(-1)
		for step := int64(1); step < 4000; step++ {
			if r.Intn(3) > 0 {
				v.Send(step)
			} else {
				v.Recv(step, randomMessage(r))
			}
			// Irrevocability.
			if decided >= 0 && v.Color() != decided {
				t.Fatalf("seed %d step %d: color changed %d → %d", seed, step, decided, v.Color())
			}
			if v.Done() && decided < 0 {
				decided = v.Color()
				if decided < 0 {
					t.Fatalf("seed %d step %d: done without color", seed, step)
				}
			}
			// Counter discipline: while active and undecided, the
			// counter stays below threshold + 1 (it decides the moment
			// it reaches it).
			if v.Phase() == PhaseActive && v.Counter() > par.Threshold() {
				t.Fatalf("seed %d step %d: counter %d ran past threshold", seed, step, v.Counter())
			}
			// Legal phase transitions.
			ph := v.Phase()
			if !legalTransition(prevPhase, ph) {
				t.Fatalf("seed %d step %d: illegal transition %v → %v", seed, step, prevPhase, ph)
			}
			prevPhase = ph
		}
	}
}

func legalTransition(from, to Phase) bool {
	if from == to {
		return true
	}
	switch from {
	case PhaseAsleep:
		return to == PhaseWaiting
	case PhaseWaiting:
		return to == PhaseActive || to == PhaseRequest || to == PhaseWaiting
	case PhaseActive:
		return to == PhaseRequest || to == PhaseColored || to == PhaseWaiting
	case PhaseRequest:
		return to == PhaseWaiting
	case PhaseColored:
		return false // irrevocable
	}
	return false
}

// randomMessage draws an arbitrary (often nonsensical) protocol message.
func randomMessage(r *rand.Rand) radio.Message {
	from := radio.NodeID(r.Intn(6) + 1)
	switch r.Intn(4) {
	case 0:
		return &MsgA{From: from, Class: int32(r.Intn(30)), Counter: int64(r.Intn(4000) - 2000)}
	case 1:
		return &MsgC{From: from, Class: int32(r.Intn(30))}
	case 2:
		return &MsgAssign{From: from, To: radio.NodeID(r.Intn(3)), TC: int32(r.Intn(8))}
	default:
		return &MsgR{From: from, Leader: radio.NodeID(r.Intn(3))}
	}
}

// TestFuzzLeaderQueue hammers a leader with random request streams and
// checks the queue's uniqueness and tc monotonicity invariants.
func TestFuzzLeaderQueue(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		v := NewNode(0, radio.NodeRand(seed, 0), testParams(), Ablation{})
		v.Start(0)
		v.s.class[v.i] = 0
		v.s.becomeColored(0, v.i)
		lastTC := make(map[radio.NodeID]int32)
		var maxTC int32
		for step := int64(0); step < 5000; step++ {
			if r.Intn(2) == 0 {
				v.Recv(step, &MsgR{From: radio.NodeID(r.Intn(10)), Leader: radio.NodeID(r.Intn(2))})
			}
			if msg := v.Send(step); msg != nil {
				if a, ok := msg.(*MsgAssign); ok {
					if a.TC < maxTC {
						t.Fatalf("seed %d: tc went backwards: %d after %d", seed, a.TC, maxTC)
					}
					maxTC = a.TC
					if prev, seen := lastTC[a.To]; seen && prev != a.TC && a.TC < prev {
						t.Fatalf("seed %d: node %d reassigned lower tc", seed, a.To)
					}
					lastTC[a.To] = a.TC
				}
			}
			// The queue never holds duplicates.
			seen := make(map[radio.NodeID]bool, len(v.s.list[v.i]))
			for _, c := range v.s.list[v.i] {
				if seen[c.id] {
					t.Fatalf("seed %d: duplicate %d in queue", seed, c.id)
				}
				seen[c.id] = true
			}
		}
	}
}
