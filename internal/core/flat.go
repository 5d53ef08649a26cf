package core

import (
	"math"

	"radiocolor/internal/radio"
)

// Flat is the state of a population of protocol nodes, held field by
// field in flat arrays indexed by engine node index (the layout of GMS
// coloring_barenboim.h). The batch Send reads one array for a node
// with nothing to do: its due slot, the next slot whose tick does more
// than count down and draw a failing coin. Every other slot of the node
// is ticked lazily — its countdowns and its random stream are kept
// against an anchor slot and brought up to date only where something
// reads them (catchUp). The rarely touched state (wire ids, the
// intra-cluster color, the leader, competitor lists and leader queues,
// outboxes, statistics, hooks) lives apart, and Params, the derived
// constants and the Ablation are stored once. Flat implements
// radio.Batch, so the engine makes one Send call per activity list per
// slot instead of one interface call per node; Node handles run the
// same transition code one node at a time, eagerly.
//
// Calls on disjoint node sets may run concurrently: every call writes
// only its own nodes' entries and shares no scratch.
type Flat struct {
	par Params
	k   derived
	abl Ablation

	// Node state. counter, rnd and a leader's serve.left hold their
	// values before the tick of slot at (all ticks applied when at is
	// idle); every tick of slots at…due−1 only advances them.
	phase []Phase
	class []int32 // verification class i while in A_i, color class in C_i
	// counter is the competing counter, and while waiting the slots
	// left of the waiting period (a waiting node's counter reads 0).
	counter []int64
	rnd     []radio.Rand
	due     []int64 // the next slot Send must tick in full
	at      []int64 // anchor: the first slot not yet applied, or idle
	// coinAt is the slot of the node's next successful coin, or the end
	// of the stretch of failing coins scanned so far; stale after the
	// node changes coin.
	coinAt []int64
	// clock is the last slot the engine settled: a lazily ticked node
	// has ticked through it.
	clock int64

	// Cold state.
	id     []radio.NodeID
	tc     []int32 // assigned intra-cluster color, -1 before assignment
	leader []radio.NodeID
	// leftA0 records the slot the node resolved its class-0 fate
	// (became a leader or associated with one), −1 while still in A₀.
	// The moment every node has left A₀, the leader set is a maximal
	// independent set — the "MIS from scratch" substructure of the
	// paper's companion work [21] — and experiment E18 measures how
	// early in the run that happens.
	leftA0 []int64
	// list is P_v, one entry per competitor id, while the node verifies
	// a class, and a leader's request queue (ids only; entry 0 is being
	// served) once it leads: the two uses never overlap, so one list
	// per node serves both and keeps its storage across them.
	list  [][]competitor
	serve []service
	out   []outbox
	stats []nodeStats

	// Optional state, nil until first used.
	assigned []map[radio.NodeID]int32 // per leader, only with Ablation.LeaderAssignmentMemory
	hooks    []PhaseHook              // see SetPhaseHook
	record   []bool                   // see EnableHistory
	history  [][]Transition
	// now holds the last slot each node ran, the slot a Reset's
	// transition is logged at. It exists only while hooks or histories
	// are installed, the only readers of that slot, so the plain tick
	// writes nothing for it.
	now []int64
}

const (
	// idle is the anchor of a node with no lazily ticked slot: fresh,
	// stopped, or driven one tick at a time through its Node handle.
	idle = math.MaxInt64
	// stale marks a due slot or coin slot that must be recomputed: the
	// next Send ticks the node in full.
	stale = math.MinInt64
	// scanAhead bounds one look-ahead over a node's coins; a node whose
	// coins all fail in it ticks in full at its end and scans again.
	scanAhead = 1 << 12
)

// competitor is one entry of the local competitor list P_v: the stored
// counter copy d_v(w) of competitor id is base at slot at and is
// implicitly incremented every slot (Algorithm 1, lines 5 and 18), so
// d_v(w)(t) = base + t − at.
type competitor struct {
	id   radio.NodeID
	base int64
	at   int64
}

// service is a leader's request service (Algorithm 3, lines 6–23):
// the open response window and the last intra-cluster color handed
// out.
type service struct {
	left   int64 // slots left in the window, 0 when none is open
	to     radio.NodeID
	tc     int32
	tcNext int32
}

// nodeStats are the per-node statistics.
type nodeStats struct {
	resets, classMoves int64
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

// newFlat builds a population with the given wire ids and random
// streams. It panics on invalid params.
func newFlat(ids []radio.NodeID, rnd []radio.Rand, par Params, abl Ablation) *Flat {
	k, err := par.derive()
	if err != nil {
		panic(err)
	}
	n := len(ids)
	s := &Flat{
		par:     par,
		k:       k,
		abl:     abl,
		phase:   make([]Phase, n),
		class:   make([]int32, n),
		counter: make([]int64, n),
		rnd:     rnd,
		due:     make([]int64, n),
		at:      make([]int64, n),
		coinAt:  make([]int64, n),
		clock:   -1,
		id:      ids,
		tc:      make([]int32, n),
		leader:  make([]radio.NodeID, n),
		leftA0:  make([]int64, n),
		list:    make([][]competitor, n),
		serve:   make([]service, n),
		out:     make([]outbox, n),
		stats:   make([]nodeStats, n),
	}
	for i := range ids {
		s.tc[i] = -1
		s.leftA0[i] = -1
		s.due[i], s.at[i], s.coinAt[i] = stale, idle, stale
	}
	if abl.LeaderAssignmentMemory {
		s.assigned = make([]map[radio.NodeID]int32, n)
	}
	return s
}

// handles returns one handle per node of s, in index order, both as
// handles and as the protocol slice for the engine.
func (s *Flat) handles() ([]*Node, []radio.Protocol) {
	hs := make([]Node, len(s.phase))
	nodes := make([]*Node, len(hs))
	protos := make([]radio.Protocol, len(hs))
	for i := range hs {
		hs[i] = Node{s: s, i: int32(i)}
		nodes[i] = &hs[i]
		protos[i] = &hs[i]
	}
	return nodes, protos
}

// color returns node v's decided color, or −1: a colored node's class
// is its color, and nothing changes the class after the decision.
func (s *Flat) color(v int32) int32 {
	if s.phase[v] == PhaseColored {
		return s.class[v]
	}
	return -1
}

// stamp records slot as node v's current slot when a hook or history
// needs it.
func (s *Flat) stamp(slot int64, v int32) {
	if s.now != nil {
		s.now[v] = slot
	}
}

// Start implements radio.Batch: upon waking up node v enters A₀. The
// node is fresh or Reset, so it ticks eagerly until its first Send.
func (s *Flat) Start(slot int64, v int32) {
	s.stamp(slot, v)
	s.enterVerify(slot, v, 0)
}

// Send implements radio.Batch: one tick of every node of ids that skip
// does not mark (skip may be nil), in the order of ids. A node whose
// due slot lies ahead ticks lazily: it counts down or draws a failing
// coin, which catchUp applies when something reads it. A due node
// catches up and ticks in full through tick, the code a Node handle's
// Send runs, and plans its next due slot. A transmitter's message goes
// to out[v] and v to tx; a node that decides in its tick is appended
// to dec. A skipped node does not tick: its lazy state stops at the
// slot before.
func (s *Flat) Send(slot int64, ids []int32, skip []bool, out []radio.Message, tx, dec []int32) ([]int32, []int32) {
	due, now := s.due, s.now
	for _, v := range ids {
		if skip != nil && skip[v] {
			s.stop(slot, v)
			continue
		}
		if now != nil {
			now[v] = slot
		}
		if due[v] > slot {
			continue
		}
		s.catchUp(v, slot-1)
		m, decided := s.tick(slot, v)
		s.at[v] = slot + 1
		s.plan(v)
		if m != nil {
			out[v] = m
			tx = append(tx, v)
		}
		if decided {
			dec = append(dec, v)
		}
	}
	return tx, dec
}

// Recv implements radio.Batch.
func (s *Flat) Recv(slot int64, v int32, msg radio.Message) { s.recv(slot, v, msg) }

// Settle implements radio.Batch. A node decides only in its own tick,
// which Send reports, so nothing is left to settle; Settle only notes
// the slot every lazily ticked node has now ticked through.
func (s *Flat) Settle(slot int64, _ []bool, dec []int32) []int32 {
	s.clock = slot
	return dec
}

// catchUp applies node v's lazily ticked slots at…through: each
// counted down the wait, or counted up and drew one failing coin.
// Nothing else happens in them, as plan puts the due slot at the first
// slot that does more.
func (s *Flat) catchUp(v int32, through int64) {
	if s.at[v] <= through {
		s.advance(v, through)
	}
}

// advance is catchUp's work, kept apart so the check inlines.
func (s *Flat) advance(v int32, through int64) {
	k := through - s.at[v] + 1
	switch s.phase[v] {
	case PhaseWaiting:
		s.counter[v] -= k
	case PhaseActive:
		s.counter[v] += k
		s.rnd[v].Skip(uint64(k))
	case PhaseColored:
		if sv := &s.serve[v]; sv.left > 0 {
			sv.left -= k
		}
		s.rnd[v].Skip(uint64(k))
	default:
		s.rnd[v].Skip(uint64(k))
	}
	s.at[v] = through + 1
}

// stop ends node v's lazy ticking before slot, for a node that misses
// slots (skipped) or restarts: its state is brought up to date through
// slot−1 and left eager, so a batch Send ticks it in full. The scanned
// coin slot goes too, as the node's stream no longer advances one draw
// per slot.
func (s *Flat) stop(slot int64, v int32) {
	if s.at[v] != idle {
		s.catchUp(v, slot-1)
		s.at[v], s.due[v], s.coinAt[v] = idle, stale, stale
	}
}

// plan sets the due slot of node v, anchored at at[v]: the earliest of
// the end of the waiting period, the tick that reaches the threshold,
// a leader's window opening or closing, and the next successful coin.
func (s *Flat) plan(v int32) {
	a := s.at[v]
	switch s.phase[v] {
	case PhaseWaiting:
		s.due[v] = a + s.counter[v] - 1
	case PhaseActive:
		end := a + max(0, s.k.threshold-s.counter[v]-1)
		s.due[v] = min(end, s.nextCoin(v, a, s.k.sendCoin, end-a))
	case PhaseRequest:
		s.due[v] = s.nextCoin(v, a, s.k.sendCoin, scanAhead)
	case PhaseColored:
		sv := &s.serve[v]
		switch {
		case s.class[v] > 0:
			s.due[v] = s.nextCoin(v, a, s.k.sendCoin, scanAhead)
		case sv.left > 0:
			s.due[v] = min(a+sv.left-1, s.nextCoin(v, a, s.k.leaderCoin, scanAhead))
		case len(s.list[v]) > 0:
			s.due[v] = a // a response window opens
		default:
			s.due[v] = s.nextCoin(v, a, s.k.leaderCoin, scanAhead)
		}
	default:
		s.due[v] = a
	}
}

// replan re-plans node v after a reception changed it, unless the node
// ticks eagerly.
func (s *Flat) replan(v int32) {
	if s.at[v] != idle {
		s.plan(v)
	}
}

// nextCoin returns the slot of node v's next successful coin from slot
// a on, scanning at most limit draws of its stream ahead (the end of
// the scan when all fail). A scan stays valid while the node draws the
// same coin every slot, so only a phase change forces a new one.
func (s *Flat) nextCoin(v int32, a int64, coin uint64, limit int64) int64 {
	if c := s.coinAt[v]; c >= a {
		return c
	}
	c := a + s.rnd[v].Scan(coin, limit)
	s.coinAt[v] = c
	return c
}

// tick is node v's whole per-slot Send step, on state that is up to
// date; decided reports that the node joined C_i in it.
func (s *Flat) tick(slot int64, v int32) (m radio.Message, decided bool) {
	s.stamp(slot, v)
	switch s.phase[v] {
	case PhaseWaiting:
		s.counter[v]-- // the waiting countdown
		if s.counter[v] <= 0 {
			// Line 15: activate with counter χ(P_v).
			s.counter[v] = s.chi(slot, v)
			s.setPhase(slot, v, PhaseActive, s.class[v])
		}
		return nil, false

	case PhaseActive:
		c := s.counter[v] + 1 // line 17
		s.counter[v] = c
		if c >= s.k.threshold {
			// Lines 19–20: irrevocable decision, Algorithm 3 starts in
			// the same slot.
			s.becomeColored(slot, v)
			return s.coloredSend(slot, v), true
		}
		if s.rnd[v].Coin(s.k.sendCoin) {
			return put(&s.out[v].a, slot, MsgA{From: s.id[v], Class: s.class[v], Counter: c}), false // line 22
		}
		return nil, false

	case PhaseRequest:
		if s.rnd[v].Coin(s.k.sendCoin) {
			return put(&s.out[v].r, slot, MsgR{From: s.id[v], Leader: s.leader[v]}), false // Algorithm 2, line 2
		}
		return nil, false

	case PhaseColored:
		return s.coloredSend(slot, v), false
	}
	return nil, false
}

// setPhase moves node v into phase to, entering class, and reports the
// transition. Every phase change of the state machine goes through it.
func (s *Flat) setPhase(slot int64, v int32, to Phase, class int32) {
	from := s.phase[v]
	s.phase[v] = to
	s.coinAt[v] = stale // the node's coin changes with its phase
	s.logTransition(slot, v, from, to, class)
}

// enterVerify moves node v into state A_class, beginning with the
// passive waiting period (Algorithm 1, "upon entering state A_i").
func (s *Flat) enterVerify(slot int64, v int32, class int32) {
	s.class[v] = class
	s.list[v] = s.list[v][:0]
	s.counter[v] = s.k.waitSlots
	s.setPhase(slot, v, PhaseWaiting, class)
}

// becomeColored executes the transition into C_class. A leader's list
// turns from P_v into its (empty) request queue.
func (s *Flat) becomeColored(slot int64, v int32) {
	if s.class[v] == 0 {
		s.list[v] = s.list[v][:0]
		if s.assigned != nil {
			s.assigned[v] = make(map[radio.NodeID]int32)
		}
		s.leftA0[v] = slot
	}
	s.setPhase(slot, v, PhaseColored, s.class[v])
}

// coloredSend implements Algorithm 3's per-slot behavior.
func (s *Flat) coloredSend(slot int64, v int32) radio.Message {
	if s.class[v] > 0 {
		// Line 4: keep announcing C_i membership.
		if s.rnd[v].Coin(s.k.sendCoin) {
			return put(&s.out[v].c, slot, MsgC{From: s.id[v], Class: s.class[v]})
		}
		return nil
	}
	// Leader (lines 6–23).
	sv := &s.serve[v]
	queue := s.list[v]
	if sv.left == 0 {
		if len(queue) == 0 {
			// Line 14: beacon so A₀ neighbors learn of the leader.
			if s.rnd[v].Coin(s.k.leaderCoin) {
				return put(&s.out[v].c, slot, MsgC{From: s.id[v], Class: 0})
			}
			return nil
		}
		// Lines 16–18: take the next request and open a response window.
		sv.to = queue[0].id
		if prev, ok := s.assignedTC(v, sv.to); ok {
			// Assignment-memory ablation: re-serve the original tc.
			sv.tc = prev
		} else {
			sv.tcNext++
			sv.tc = sv.tcNext
			if s.assigned != nil {
				s.assigned[v][sv.to] = sv.tc
			}
		}
		sv.left = s.k.serveSlots
	}
	sv.left--
	var out radio.Message
	if s.rnd[v].Coin(s.k.leaderCoin) {
		out = put(&s.out[v].asg, slot, MsgAssign{From: s.id[v], To: sv.to, TC: sv.tc}) // line 19
	}
	if sv.left == 0 {
		// Line 21: the window closed; drop the request (shifting in
		// place keeps the queue's storage for later requests).
		s.list[v] = queue[:copy(queue, queue[1:])]
	}
	return out
}

// assignedTC returns the tc leader v already assigned to w under the
// assignment-memory ablation.
func (s *Flat) assignedTC(v int32, w radio.NodeID) (int32, bool) {
	if s.assigned == nil {
		return 0, false
	}
	tc, ok := s.assigned[v][w]
	return tc, ok
}

// recv is node v's reception step.
func (s *Flat) recv(slot int64, v int32, msg radio.Message) {
	s.stamp(slot, v)
	switch m := msg.(type) {
	case *MsgA:
		s.recvA(slot, v, m)
	case *MsgC:
		s.recvCovered(slot, v, m.From, m.Class)
	case *MsgAssign:
		// An assignment is also an M_C⁰ announcement for A₀ nodes…
		s.recvCovered(slot, v, m.From, 0)
		// …and the awaited answer when it addresses this node
		// (Algorithm 2, lines 3–4).
		if s.phase[v] == PhaseRequest && m.From == s.leader[v] && m.To == s.id[v] {
			s.catchUp(v, slot)
			s.tc[v] = m.TC
			s.enterVerify(slot, v, m.TC*(int32(s.par.Kappa2)+1))
			s.replan(v)
		}
	case *MsgR:
		// Algorithm 3, lines 10–12: leaders enqueue fresh requests.
		if s.phase[v] == PhaseColored && s.class[v] == 0 && m.Leader == s.id[v] && !s.queued(v, m.From) {
			s.catchUp(v, slot)
			s.list[v] = append(s.list[v], competitor{id: m.From})
			s.replan(v)
		}
	}
}

// queued reports whether leader v's request queue holds w.
func (s *Flat) queued(v int32, w radio.NodeID) bool {
	for _, c := range s.list[v] {
		if c.id == w {
			return true
		}
	}
	return false
}

// recvA processes a competitor report M_A^i(w, c_w) (Algorithm 1,
// lines 6–9 while waiting, lines 27–30 while active).
func (s *Flat) recvA(slot int64, v int32, m *MsgA) {
	ph := s.phase[v]
	if (ph != PhaseWaiting && ph != PhaseActive) || m.Class != s.class[v] {
		return
	}
	comp := s.list[v]
	i := 0
	for i < len(comp) && comp[i].id != m.From {
		i++
	}
	if i == len(comp) {
		comp = append(comp, competitor{id: m.From})
		s.list[v] = comp
	}
	comp[i].base, comp[i].at = m.Counter, slot
	if ph != PhaseActive {
		return
	}
	s.catchUp(v, slot)
	if s.abl.NaiveReset {
		// The rejected naive scheme of Sect. 4: any more advanced
		// competitor resets us to zero.
		if m.Counter > s.counter[v] {
			s.counter[v] = 0
			s.stats[v].resets++
			s.replan(v)
		}
		return
	}
	diff := s.counter[v] - m.Counter
	if diff < 0 {
		diff = -diff
	}
	if diff <= s.k.crit[min(s.class[v], 1)] { // line 29
		s.counter[v] = s.chi(slot, v)
		s.stats[v].resets++
		s.replan(v) // the deadline moves; the scanned coin stays
	}
}

// recvCovered handles an M_C^class announcement: if node v is
// verifying the same class it is covered and advances to the successor
// state A_suc (Algorithm 1, lines 10–13 and 23–26).
func (s *Flat) recvCovered(slot int64, v int32, from radio.NodeID, class int32) {
	ph := s.phase[v]
	if (ph != PhaseWaiting && ph != PhaseActive) || class != s.class[v] {
		return
	}
	s.catchUp(v, slot)
	if class == 0 {
		// A_suc = R: associate with the announcing leader.
		if ph == PhaseWaiting {
			s.counter[v] = 0 // the countdown is not a counter
		}
		s.leader[v] = from
		s.leftA0[v] = slot
		s.setPhase(slot, v, PhaseRequest, 0)
	} else {
		// A_suc = A_{i+1}.
		s.stats[v].classMoves++
		s.enterVerify(slot, v, class+1)
	}
	s.replan(v)
}

// chi computes χ(P_v) (Algorithm 1, line 15): the maximum value ≤ 0
// outside the critical range of every stored competitor counter. The
// result does not depend on the order of P_v: x only moves down, and
// only past values that some range covers, so it stops at the largest
// uncovered value. The NoCompetitorList ablation degrades it to the
// constant 0.
func (s *Flat) chi(slot int64, v int32) int64 {
	if s.abl.NoCompetitorList {
		return 0
	}
	r := s.k.crit[min(s.class[v], 1)]
	x := int64(0)
	for {
		blocked := false
		for _, c := range s.list[v] {
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

// reset clears node v back to its pre-Start condition (Node.Reset).
// Reset takes no slot, so the transition is logged at the node's last
// one. The random stream survives it: a node ticking lazily first draws
// the coins of the slots it ticked through the last settled one.
func (s *Flat) reset(v int32) {
	s.stop(s.clock+1, v)
	s.class[v] = 0
	s.tc[v] = -1
	s.leader[v] = 0
	s.counter[v] = 0
	s.list[v] = s.list[v][:0]
	if s.assigned != nil {
		s.assigned[v] = nil
	}
	s.serve[v] = service{}
	s.leftA0[v] = -1
	var slot int64
	if s.now != nil {
		slot = s.now[v]
	}
	s.setPhase(slot, v, PhaseAsleep, 0)
}
