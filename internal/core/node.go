package core

import (
	"fmt"
	"slices"

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

// competitor is one entry of the local competitor list P_v: the stored
// counter copy d_v(w) of competitor id is base at slot at and is
// implicitly incremented every slot (Algorithm 1, lines 5 and 18), so
// d_v(w)(t) = base + t − at.
type competitor struct {
	id   radio.NodeID
	base int64
	at   int64
}

// outbox holds the node's transmitted messages, two of each kind,
// indexed by slot&1. Send returns a pointer into it instead of a fresh
// allocation; a message stays valid through the slot after its Send
// (the radio.Protocol.Send contract), because its buffer is rewritten
// only two slots later.
type outbox struct {
	a   [2]MsgA
	c   [2]MsgC
	r   [2]MsgR
	asg [2]MsgAssign
}

// put stores m in the buffer of slot and returns it.
func put[M any](buf *[2]M, slot int64, m M) *M {
	b := &buf[slot&1]
	*b = m
	return b
}

// Node is one protocol instance: the full per-node state machine of
// Algorithms 1–3. It implements radio.Protocol. A Node never inspects
// the network graph; its only inputs are received messages and its own
// random stream.
type Node struct {
	// The per-slot tick reads the fields up to and including k, the
	// struct's first 112 bytes; the random stream is held inline among
	// them.
	id     radio.NodeID
	phase  Phase
	class  int32 // verification class i while in A_i, color class in C_i
	tc     int32 // assigned intra-cluster color, -1 before assignment
	leader radio.NodeID
	color  int32 // final color, -1 until decided
	rng    radio.Rand

	waitLeft int64
	counter  int64
	nowSlot  int64
	k        derived // constants derived from par once, read every tick

	par  Params
	abl  Ablation
	out  outbox
	comp []competitor // P_v, one entry per competitor id

	// Leader request service (class 0 only; Algorithm 3, lines 6–23).
	// queue holds each pending requester once; queue[0] is being served.
	queue     []radio.NodeID
	assigned  map[radio.NodeID]int32 // only with Ablation.LeaderAssignmentMemory
	tcNext    int32
	serveLeft int64
	serveTo   radio.NodeID
	serveTC   int32

	// Statistics.
	resets     int64
	classMoves int64

	// Optional transition history and phase hook (see history.go).
	recordHistory bool
	history       []Transition
	phaseHook     func(slot int64, node int32, from, to Phase, class int32)
	prevPhase     Phase // last phase reported; zero value is PhaseAsleep

	// leftA0 records the slot the node resolved its class-0 fate
	// (became a leader or associated with one), −1 while still in A₀.
	// The moment every node has left A₀, the leader set is a maximal
	// independent set — the "MIS from scratch" substructure of the
	// paper's companion work [21] — and experiment E18 measures how
	// early in the run that happens.
	leftA0 int64
}

// NewNode creates a protocol instance. id is the node's wire identifier
// (it only needs to be unique; the algorithm performs no arithmetic on
// it), rng its private random stream.
func NewNode(id radio.NodeID, rng radio.Rand, par Params, abl Ablation) *Node {
	k, err := par.derive()
	if err != nil {
		panic(err)
	}
	return &Node{
		id:     id,
		rng:    rng,
		par:    par,
		k:      k,
		abl:    abl,
		tc:     -1,
		color:  -1,
		phase:  PhaseAsleep,
		leftA0: -1,
	}
}

// Nodes builds one Node per network vertex with independent random
// streams derived from masterSeed, returning both the concrete nodes
// (for inspection) and the radio.Protocol slice for the engine.
func Nodes(n int, masterSeed int64, par Params, abl Ablation) ([]*Node, []radio.Protocol) {
	nodes := make([]*Node, n)
	protos := make([]radio.Protocol, n)
	for i := range nodes {
		nodes[i] = NewNode(radio.NodeID(i), radio.NodeRand(masterSeed, radio.NodeID(i)), par, abl)
		protos[i] = nodes[i]
	}
	return nodes, protos
}

// Start implements radio.Protocol: upon waking up a node enters A₀.
func (v *Node) Start(slot int64) {
	v.nowSlot = slot
	v.enterVerify(0)
}

// Reset implements radio.Restartable: it clears the node back to its
// pre-Start condition, as a fail-stop restart demands — identity, the
// random stream position, parameters and the installed hooks survive,
// but every piece of protocol state (phase, class, color, competitor
// sets, the class-0 service queue) is forgotten. The transition back
// to PhaseAsleep flows through logTransition so phase-occupancy gauges
// and recorded histories stay consistent.
func (v *Node) Reset() {
	v.phase = PhaseAsleep
	v.class = 0
	v.tc = -1
	v.leader = 0
	v.color = -1
	v.waitLeft = 0
	v.counter = 0
	v.comp = v.comp[:0]
	v.queue = v.queue[:0]
	v.assigned = nil
	v.tcNext = 0
	v.serveLeft = 0
	v.serveTo = 0
	v.serveTC = 0
	v.leftA0 = -1
	v.logTransition(PhaseAsleep, 0)
}

// enterVerify moves the node into state A_class, beginning with the
// passive waiting period (Algorithm 1, "upon entering state A_i").
func (v *Node) enterVerify(class int32) {
	v.phase = PhaseWaiting
	v.class = class
	v.comp = v.comp[:0]
	v.counter = 0
	v.waitLeft = v.k.waitSlots
	v.logTransition(PhaseWaiting, class)
}

// Send implements radio.Protocol: the node's per-slot tick.
func (v *Node) Send(slot int64) radio.Message {
	v.nowSlot = slot
	switch v.phase {
	case PhaseWaiting:
		v.waitLeft--
		if v.waitLeft <= 0 {
			// Line 15: activate with counter χ(P_v).
			v.counter = v.chi(slot)
			v.phase = PhaseActive
			v.logTransition(PhaseActive, v.class)
		}
		return nil

	case PhaseActive:
		v.counter++ // line 17
		if v.counter >= v.k.threshold {
			// Lines 19–20: irrevocable decision, Algorithm 3 starts in
			// the same slot.
			v.becomeColored()
			return v.coloredSend(slot)
		}
		if v.rng.Float64() < v.k.pSend {
			return put(&v.out.a, slot, MsgA{From: v.id, Class: v.class, Counter: v.counter}) // line 22
		}
		return nil

	case PhaseRequest:
		if v.rng.Float64() < v.k.pSend {
			return put(&v.out.r, slot, MsgR{From: v.id, Leader: v.leader}) // Algorithm 2, line 2
		}
		return nil

	case PhaseColored:
		return v.coloredSend(slot)
	}
	return nil
}

// becomeColored executes the transition into C_class.
func (v *Node) becomeColored() {
	v.phase = PhaseColored
	v.color = v.class
	if v.class == 0 {
		if v.abl.LeaderAssignmentMemory {
			v.assigned = make(map[radio.NodeID]int32)
		}
		v.leftA0 = v.nowSlot
	}
	v.logTransition(PhaseColored, v.class)
}

// coloredSend implements Algorithm 3's per-slot behavior.
func (v *Node) coloredSend(slot int64) radio.Message {
	if v.class > 0 {
		// Line 4: keep announcing C_i membership.
		if v.rng.Float64() < v.k.pSend {
			return put(&v.out.c, slot, MsgC{From: v.id, Class: v.class})
		}
		return nil
	}
	// Leader (lines 6–23).
	if v.serveLeft == 0 {
		if len(v.queue) == 0 {
			// Line 14: beacon so A₀ neighbors learn of the leader.
			if v.rng.Float64() < v.k.pLeader {
				return put(&v.out.c, slot, MsgC{From: v.id, Class: 0})
			}
			return nil
		}
		// Lines 16–18: take the next request and open a response window.
		v.serveTo = v.queue[0]
		if prev, ok := v.assigned[v.serveTo]; ok {
			// Assignment-memory ablation: re-serve the original tc.
			v.serveTC = prev
		} else {
			v.tcNext++
			v.serveTC = v.tcNext
			if v.assigned != nil {
				v.assigned[v.serveTo] = v.serveTC
			}
		}
		v.serveLeft = v.k.serveSlots
	}
	v.serveLeft--
	var out radio.Message
	if v.rng.Float64() < v.k.pLeader {
		out = put(&v.out.asg, slot, MsgAssign{From: v.id, To: v.serveTo, TC: v.serveTC}) // line 19
	}
	if v.serveLeft == 0 {
		// Line 21: the window closed; drop the request (shifting in
		// place keeps the queue's storage for later requests).
		v.queue = v.queue[:copy(v.queue, v.queue[1:])]
	}
	return out
}

// Recv implements radio.Protocol.
func (v *Node) Recv(slot int64, msg radio.Message) {
	v.nowSlot = slot
	switch m := msg.(type) {
	case *MsgA:
		v.recvA(slot, m)
	case *MsgC:
		v.recvCovered(m.From, m.Class)
	case *MsgAssign:
		// An assignment is also an M_C⁰ announcement for A₀ nodes…
		v.recvCovered(m.From, 0)
		// …and the awaited answer when it addresses this node
		// (Algorithm 2, lines 3–4).
		if v.phase == PhaseRequest && m.From == v.leader && m.To == v.id {
			v.tc = m.TC
			v.enterVerify(m.TC * (int32(v.par.Kappa2) + 1))
		}
	case *MsgR:
		// Algorithm 3, lines 10–12: leaders enqueue fresh requests.
		if v.phase == PhaseColored && v.class == 0 && m.Leader == v.id && !slices.Contains(v.queue, m.From) {
			v.queue = append(v.queue, m.From)
		}
	}
}

// recvA processes a competitor report M_A^i(w, c_w) (Algorithm 1,
// lines 6–9 while waiting, lines 27–30 while active).
func (v *Node) recvA(slot int64, m *MsgA) {
	if (v.phase != PhaseWaiting && v.phase != PhaseActive) || m.Class != v.class {
		return
	}
	i := 0
	for i < len(v.comp) && v.comp[i].id != m.From {
		i++
	}
	if i == len(v.comp) {
		v.comp = append(v.comp, competitor{id: m.From})
	}
	v.comp[i].base, v.comp[i].at = m.Counter, slot
	if v.phase != PhaseActive {
		return
	}
	if v.abl.NaiveReset {
		// The rejected naive scheme of Sect. 4: any more advanced
		// competitor resets us to zero.
		if m.Counter > v.counter {
			v.counter = 0
			v.resets++
		}
		return
	}
	diff := v.counter - m.Counter
	if diff < 0 {
		diff = -diff
	}
	if diff <= v.k.crit[min(v.class, 1)] { // line 29
		v.counter = v.chi(slot)
		v.resets++
	}
}

// recvCovered handles an M_C^class announcement: if this node is
// verifying the same class it is covered and advances to the successor
// state A_suc (Algorithm 1, lines 10–13 and 23–26).
func (v *Node) recvCovered(from radio.NodeID, class int32) {
	if (v.phase != PhaseWaiting && v.phase != PhaseActive) || class != v.class {
		return
	}
	if v.class == 0 {
		// A_suc = R: associate with the announcing leader.
		v.leader = from
		v.phase = PhaseRequest
		v.leftA0 = v.nowSlot
		v.logTransition(PhaseRequest, 0)
		return
	}
	// A_suc = A_{i+1}.
	v.classMoves++
	v.enterVerify(v.class + 1)
}

// chi computes χ(P_v) (Algorithm 1, line 15): the maximum value ≤ 0
// outside the critical range of every stored competitor counter. The
// result does not depend on the order of P_v: x only moves down, and
// only past values that some range covers, so it stops at the largest
// uncovered value. The NoCompetitorList ablation degrades it to the
// constant 0.
func (v *Node) chi(slot int64) int64 {
	if v.abl.NoCompetitorList {
		return 0
	}
	r := v.k.crit[min(v.class, 1)]
	x := int64(0)
	for {
		blocked := false
		for _, c := range v.comp {
			d := c.base + (slot - c.at)
			if x >= d-r && x <= d+r {
				x = d - r - 1
				blocked = true
			}
		}
		if !blocked {
			return x
		}
	}
}

// Done implements radio.Protocol: true once the node has irrevocably
// decided on its color.
func (v *Node) Done() bool { return v.color >= 0 }

// Color returns the decided color, or −1.
func (v *Node) Color() int32 { return v.color }

// TC returns the assigned intra-cluster color, or −1.
func (v *Node) TC() int32 { return v.tc }

// Phase returns the node's current phase.
func (v *Node) Phase() Phase { return v.phase }

// Class returns the verification/color class the node currently occupies.
func (v *Node) Class() int32 { return v.class }

// Leader returns the leader the node associated with (valid once it left
// A₀ via an M_C⁰ message).
func (v *Node) Leader() radio.NodeID { return v.leader }

// IsLeader reports whether the node decided color 0.
func (v *Node) IsLeader() bool { return v.color == 0 }

// Resets returns how often the node's counter was reset — the quantity
// the critical-range technique keeps small (Sect. 4).
func (v *Node) Resets() int64 { return v.resets }

// ClassMoves returns how many A_i → A_{i+1} transitions the node made;
// Corollary 1 bounds it by κ₂ with high probability.
func (v *Node) ClassMoves() int64 { return v.classMoves }

// Counter exposes the current counter value (for tests and tracing).
func (v *Node) Counter() int64 { return v.counter }

// LeftClassZeroAt returns the slot at which the node resolved its
// class-0 fate — became a leader or associated with one — or −1 while it
// is still competing in A₀. Once every node has left A₀ the leaders form
// a maximal independent set (the clustering substructure of [13, 21]).
func (v *Node) LeftClassZeroAt() int64 { return v.leftA0 }
