package core

import (
	"fmt"

	"radiocolor/internal/radio"
)

// Phase is the coarse execution phase of a node, refining the state
// diagram of Fig. 2 (states A_i split into their passive waiting part and
// their active competing part).
type Phase uint8

const (
	// PhaseAsleep is state Z: before wake-up.
	PhaseAsleep Phase = iota
	// PhaseWaiting is the passive prefix of a state A_i: the node
	// listens for ⌈αΔ log n⌉ slots (Algorithm 1, lines 4–14).
	PhaseWaiting
	// PhaseActive is the competing part of a state A_i: the node
	// increments its counter and transmits M_A messages (lines 16–31).
	PhaseActive
	// PhaseRequest is state R: requesting an intra-cluster color from
	// the leader (Algorithm 2).
	PhaseRequest
	// PhaseColored is a state C_i: the node has irrevocably decided
	// (Algorithm 3).
	PhaseColored
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseAsleep:
		return "asleep"
	case PhaseWaiting:
		return "waiting"
	case PhaseActive:
		return "active"
	case PhaseRequest:
		return "request"
	case PhaseColored:
		return "colored"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// Node is a handle on one protocol instance of a Flat state: the full
// per-node state machine of Algorithms 1–3, driven one node at a time.
// It implements radio.Protocol, and its methods run the same transition
// code as the batch calls of Flat, so a run is bit-identical whichever
// of the two drives it. A Node never inspects the network graph; its
// only inputs are received messages and its own random stream.
type Node struct {
	s *Flat
	i int32
}

// NewNode creates a single protocol instance (a one-node Flat). id is
// the node's wire identifier (it only needs to be unique; the
// algorithm performs no arithmetic on it), rng its private random
// stream. It panics on invalid params.
func NewNode(id radio.NodeID, rng radio.Rand, par Params, abl Ablation) *Node {
	nodes, _ := newFlat([]radio.NodeID{id}, []radio.Rand{rng}, par, abl).handles()
	return nodes[0]
}

// Nodes builds one Node per network vertex, node i with wire id i and
// an independent random stream derived from masterSeed, all in one
// Flat. It returns both the handles (for inspection) and the
// radio.Protocol slice for the engine, which recognizes the shared
// Flat and drives it in batch.
func Nodes(n int, masterSeed int64, par Params, abl Ablation) ([]*Node, []radio.Protocol) {
	ids := make([]radio.NodeID, n)
	for i := range ids {
		ids[i] = radio.NodeID(i)
	}
	return NodesFor(ids, masterSeed, par, abl)
}

// NodesFor is Nodes with caller-chosen wire ids: engine node i has wire
// id ids[i] and the random stream radio.NodeRand(masterSeed, ids[i]), so
// a node keeps its identity and coins wherever the engine places it.
func NodesFor(ids []radio.NodeID, masterSeed int64, par Params, abl Ablation) ([]*Node, []radio.Protocol) {
	rnd := make([]radio.Rand, len(ids))
	for i, id := range ids {
		rnd[i] = radio.NodeRand(masterSeed, id)
	}
	return newFlat(ids, rnd, par, abl).handles()
}

// Member implements radio.Member: the engine drives a Protocols slice
// whose entry v is the handle of node v of one Flat through that
// Flat's batch calls.
func (v *Node) Member() (radio.Batch, int32, radio.Protocol) { return v.s, v.i, v }

// Start implements radio.Protocol: upon waking up a node enters A₀.
func (v *Node) Start(slot int64) { v.s.Start(slot, v.i) }

// Send implements radio.Protocol: the node's per-slot tick.
func (v *Node) Send(slot int64) radio.Message {
	m, _ := v.s.tick(slot, v.i)
	return m
}

// Recv implements radio.Protocol.
func (v *Node) Recv(slot int64, msg radio.Message) { v.s.recv(slot, v.i, msg) }

// Reset implements radio.Restartable: it clears the node back to its
// pre-Start condition, as a fail-stop restart demands — identity, the
// random stream position, parameters and the installed hooks survive,
// but every piece of protocol state (phase, class, color, competitor
// sets, the class-0 service queue) is forgotten. The transition back
// to PhaseAsleep flows through logTransition so phase-occupancy gauges
// and recorded histories stay consistent.
func (v *Node) Reset() { v.s.reset(v.i) }

// Done implements radio.Protocol: true once the node has irrevocably
// decided on its color.
func (v *Node) Done() bool { return v.s.phase[v.i] == PhaseColored }

// Color returns the decided color, or −1.
func (v *Node) Color() int32 { return v.s.color(v.i) }

// TC returns the assigned intra-cluster color, or −1.
func (v *Node) TC() int32 { return v.s.tc[v.i] }

// Phase returns the node's current phase.
func (v *Node) Phase() Phase { return v.s.phase[v.i] }

// Class returns the verification/color class the node currently occupies.
func (v *Node) Class() int32 { return v.s.class[v.i] }

// Leader returns the leader the node associated with (valid once it left
// A₀ via an M_C⁰ message).
func (v *Node) Leader() radio.NodeID { return v.s.leader[v.i] }

// IsLeader reports whether the node decided color 0.
func (v *Node) IsLeader() bool { return v.Color() == 0 }

// Resets returns how often the node's counter was reset — the quantity
// the critical-range technique keeps small (Sect. 4).
func (v *Node) Resets() int64 { return v.s.stats[v.i].resets }

// ClassMoves returns how many A_i → A_{i+1} transitions the node made;
// Corollary 1 bounds it by κ₂ with high probability.
func (v *Node) ClassMoves() int64 { return v.s.stats[v.i].classMoves }

// Counter exposes the current counter value (for tests and tracing).
func (v *Node) Counter() int64 { return v.s.counter[v.i] }

// LeftClassZeroAt returns the slot at which the node resolved its
// class-0 fate — became a leader or associated with one — or −1 while it
// is still competing in A₀. Once every node has left A₀ the leaders form
// a maximal independent set (the clustering substructure of [13, 21]).
func (v *Node) LeftClassZeroAt() int64 { return v.s.leftA0[v.i] }
