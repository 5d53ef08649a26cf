// Package fault is the deterministic fault-injection layer of the
// reproduction. The simulator's reception rule (a listener decodes a
// slot iff exactly one neighbor transmits) models a *perfectly
// reliable* channel; this package supplies the harsh part of the
// "unstructured radio network" premise: lossy links, burst fading,
// fail-stop node crashes (with optional restart), adversarial jammers,
// and clock skew.
//
// A Profile describes the faults declaratively and composes freely.
// Compile turns it into an Injector — an immutable, allocation-free
// oracle the slot kernel consults while running. Every decision the
// Injector makes is a pure function of (profile seed, slot, link), so
// fault runs are bit-reproducible for a fixed seed at any worker
// count, exactly like the reception media's coins (internal/medium).
package fault

import (
	"errors"
	"fmt"
	"sort"

	"radiocolor/internal/rng"
)

// Profile declares a composable set of channel and node faults. The
// zero value injects nothing. All randomness derives from Seed; two
// runs with equal profiles and seeds inject identical faults.
type Profile struct {
	// Seed drives every probabilistic fault coin. A zero seed is a
	// valid (fixed) stream, so callers that want per-run variation
	// should derive Seed from their run seed.
	Seed int64
	// Loss is the per-link i.i.d. probability that an otherwise
	// successful reception is dropped by the fault layer.
	Loss float64
	// Burst, when non-nil, adds windowed Gilbert-Elliott style burst
	// loss on top of Loss.
	Burst *Burst
	// Crashes schedules fail-stop node failures. At most one entry per
	// node.
	Crashes []Crash
	// Jammers corrupt slots at their victim receivers.
	Jammers []Jammer
	// SkewProb is the probability that a node's slot boundary is
	// offset by half a slot (the paper's unsynchronized-clock model;
	// runs through the half-slot engine in internal/radio/unaligned.go).
	SkewProb float64

	// labels maps a Permuted profile's node ids back to the labels the
	// coins hash (nil: every id is its own label).
	labels []int32
}

// Burst approximates a Gilbert-Elliott two-state loss channel with a
// windowed model: time is divided into windows of Window slots, and
// each (link, window) pair is independently in the bad state with
// probability PBad. Receptions in a bad window are lost with
// probability LossBad, otherwise with probability LossGood. The
// windowed form trades the Markov chain's geometric sojourn times for
// a pure (seed, link, window) coin, which keeps fault decisions
// order-free and bit-identical at any worker count; Window plays the
// role of the mean burst length.
type Burst struct {
	// PBad is the stationary probability that a window is bad.
	PBad float64
	// Window is the burst window length in slots (>= 1).
	Window int64
	// LossBad is the loss probability inside bad windows
	// (0 means 1, i.e. total fade).
	LossBad float64
	// LossGood is the loss probability inside good windows.
	LossGood float64
}

// Crash fails node Node at the start of slot At: it stops
// transmitting, receiving, and participating, and if it was awake it
// goes silent immediately. A crashed node keeps no protocol state —
// if Restart is set the node rejoins at that slot with cleared state
// (the protocol's Reset is invoked), as if waking for the first time.
type Crash struct {
	// Node is the victim.
	Node int
	// At is the crash slot (>= 0).
	At int64
	// Restart, when > At, revives the node at that slot with cleared
	// protocol state. Zero means the node never comes back.
	Restart int64
}

// Jammer corrupts slots at a set of victim receivers: any slot it hits
// is undecodable at those nodes regardless of how many neighbors
// transmitted (the adversary injects noise above the capture
// threshold). It models an external interferer, so it does not occupy
// a node or transmit protocol messages.
type Jammer struct {
	// Nodes are the victim receivers. Empty means every node.
	Nodes []int
	// From is the first jammed slot.
	From int64
	// Until, when > 0, is the first slot no longer jammed.
	Until int64
	// Period, when > 0, makes the jammer periodic: of every Period
	// slots (counted from From) the first Duty are jammed.
	Period int64
	// Duty is the jammed prefix of each period (defaults to Period,
	// i.e. continuous).
	Duty int64
	// Prob, when in (0,1), jams each otherwise-hit (slot, victim) pair
	// with that probability. Zero or >= 1 means always.
	Prob float64
}

// Permute returns a copy of the profile with every node reference
// mapped through forward (a relabeling's old→new map, a permutation of
// 0..len(forward)-1): crash victims and jammer victim lists move with
// their nodes, slot schedules and rates are unchanged. The copy also
// remembers each new id's original label, and its probabilistic coins
// (Loss, Burst, Prob jammers, skew) hash those labels, so the permuted
// profile compiles to the same chaos on moved nodes:
// Lost(s, forward[a], forward[b]) == Lost(s, a, b) and
// Jammed(s, forward[v]) == Jammed(s, v) for every slot and link.
// Permutes compose.
func (p *Profile) Permute(forward []int32) *Profile {
	if p == nil {
		return nil
	}
	out := *p
	out.labels = make([]int32, len(forward))
	for v, f := range forward {
		out.labels[f] = label(p.labels, int32(v))
	}
	if len(p.Crashes) > 0 {
		out.Crashes = make([]Crash, len(p.Crashes))
		for i, c := range p.Crashes {
			if c.Node >= 0 && c.Node < len(forward) {
				c.Node = int(forward[c.Node])
			}
			out.Crashes[i] = c
		}
	}
	if len(p.Jammers) > 0 {
		out.Jammers = make([]Jammer, len(p.Jammers))
		for i, j := range p.Jammers {
			if len(j.Nodes) > 0 {
				nodes := make([]int, len(j.Nodes))
				for k, v := range j.Nodes {
					if v >= 0 && v < len(forward) {
						nodes[k] = int(forward[v])
					} else {
						nodes[k] = v
					}
				}
				j.Nodes = nodes
			}
			out.Jammers[i] = j
		}
	}
	return &out
}

// Validate checks the profile against n nodes (n <= 0 skips node-range
// checks, for early validation before the graph is known).
func (p *Profile) Validate(n int) error {
	if p == nil {
		return nil
	}
	if p.labels != nil && n > 0 && len(p.labels) != n {
		return fmt.Errorf("fault: profile permuted over %d nodes, network has %d", len(p.labels), n)
	}
	if p.Loss < 0 || p.Loss > 1 {
		return fmt.Errorf("fault: Loss %g outside [0,1]", p.Loss)
	}
	if p.SkewProb < 0 || p.SkewProb > 1 {
		return fmt.Errorf("fault: SkewProb %g outside [0,1]", p.SkewProb)
	}
	if b := p.Burst; b != nil {
		if b.PBad < 0 || b.PBad > 1 {
			return fmt.Errorf("fault: Burst.PBad %g outside [0,1]", b.PBad)
		}
		if b.Window < 1 {
			return fmt.Errorf("fault: Burst.Window %d < 1", b.Window)
		}
		if b.LossBad < 0 || b.LossBad > 1 {
			return fmt.Errorf("fault: Burst.LossBad %g outside [0,1]", b.LossBad)
		}
		if b.LossGood < 0 || b.LossGood > 1 {
			return fmt.Errorf("fault: Burst.LossGood %g outside [0,1]", b.LossGood)
		}
	}
	seen := make(map[int]bool, len(p.Crashes))
	for i, c := range p.Crashes {
		if c.Node < 0 || (n > 0 && c.Node >= n) {
			return fmt.Errorf("fault: Crashes[%d].Node %d out of range [0,%d)", i, c.Node, n)
		}
		if seen[c.Node] {
			return fmt.Errorf("fault: Crashes[%d]: duplicate crash for node %d", i, c.Node)
		}
		seen[c.Node] = true
		if c.At < 0 {
			return fmt.Errorf("fault: Crashes[%d].At %d < 0", i, c.At)
		}
		if c.Restart != 0 && c.Restart <= c.At {
			return fmt.Errorf("fault: Crashes[%d].Restart %d must exceed At %d", i, c.Restart, c.At)
		}
	}
	for i, j := range p.Jammers {
		for _, v := range j.Nodes {
			if v < 0 || (n > 0 && v >= n) {
				return fmt.Errorf("fault: Jammers[%d]: victim %d out of range [0,%d)", i, v, n)
			}
		}
		if j.From < 0 {
			return fmt.Errorf("fault: Jammers[%d].From %d < 0", i, j.From)
		}
		if j.Until != 0 && j.Until <= j.From {
			return fmt.Errorf("fault: Jammers[%d].Until %d must exceed From %d", i, j.Until, j.From)
		}
		if j.Period < 0 {
			return fmt.Errorf("fault: Jammers[%d].Period %d < 0", i, j.Period)
		}
		if j.Duty < 0 || (j.Period > 0 && j.Duty > j.Period) {
			return fmt.Errorf("fault: Jammers[%d].Duty %d outside [0,Period=%d]", i, j.Duty, j.Period)
		}
		if j.Prob < 0 || j.Prob > 1 {
			return fmt.Errorf("fault: Jammers[%d].Prob %g outside [0,1]", i, j.Prob)
		}
	}
	return nil
}

// Active reports whether the profile injects anything at all.
func (p *Profile) Active() bool {
	return p != nil && (p.Loss > 0 || p.Burst != nil || len(p.Crashes) > 0 ||
		len(p.Jammers) > 0 || p.SkewProb > 0)
}

// EventKind tags a compiled node-lifecycle event.
type EventKind uint8

const (
	// EventCrash fail-stops the node at Event.Slot.
	EventCrash EventKind = iota
	// EventRestart revives a crashed node with cleared state.
	EventRestart
)

// Event is one compiled node-lifecycle change, ordered by slot.
type Event struct {
	// Slot is when the event takes effect (at the start of the slot).
	Slot int64
	// Node is the subject.
	Node int32
	// Kind is crash or restart.
	Kind EventKind
	// Final marks a crash with no scheduled restart (the node is down
	// for the rest of the run).
	Final bool
}

// jammer is the compiled form: victims as a bitmap for O(1) lookup.
type jammer struct {
	victims []bool // nil = everyone
	from    int64
	until   int64 // 0 = forever
	period  int64
	duty    int64
	prob    float64 // 0 = always
}

// Injector is a compiled, immutable fault oracle. Its predicates are
// pure functions of (seed, slot, link) and perform no allocation, so
// the slot kernel can consult them from any worker.
type Injector struct {
	seed    int64
	loss    float64
	burst   *Burst
	events  []Event
	jammers []jammer
	skew    float64
	n       int
	labels  []int32 // see Profile.labels
}

// Compile validates the profile against an n-node network and builds
// its Injector. A nil or inactive profile compiles to a nil Injector.
func (p *Profile) Compile(n int) (*Injector, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fault: Compile needs n > 0, got %d", n)
	}
	if err := p.Validate(n); err != nil {
		return nil, err
	}
	if !p.Active() {
		return nil, nil
	}
	inj := &Injector{seed: p.Seed, loss: p.Loss, skew: p.SkewProb, n: n, labels: p.labels}
	if p.Burst != nil {
		b := *p.Burst
		if b.LossBad == 0 {
			b.LossBad = 1
		}
		inj.burst = &b
	}
	for _, c := range p.Crashes {
		inj.events = append(inj.events, Event{
			Slot: c.At, Node: int32(c.Node), Kind: EventCrash, Final: c.Restart == 0,
		})
		if c.Restart != 0 {
			inj.events = append(inj.events, Event{
				Slot: c.Restart, Node: int32(c.Node), Kind: EventRestart,
			})
		}
	}
	sort.Slice(inj.events, func(a, b int) bool {
		if inj.events[a].Slot != inj.events[b].Slot {
			return inj.events[a].Slot < inj.events[b].Slot
		}
		return inj.events[a].Node < inj.events[b].Node
	})
	for _, j := range p.Jammers {
		cj := jammer{from: j.From, until: j.Until, period: j.Period, duty: j.Duty, prob: j.Prob}
		if cj.period > 0 && cj.duty == 0 {
			cj.duty = cj.period
		}
		if cj.prob >= 1 {
			cj.prob = 0
		}
		if len(j.Nodes) > 0 {
			cj.victims = make([]bool, n)
			for _, v := range j.Nodes {
				cj.victims[v] = true
			}
		}
		inj.jammers = append(inj.jammers, cj)
	}
	return inj, nil
}

// Distinct stream constants keep the loss, burst-state, jam, and skew
// coins independent of each other and of the graph medium's capture
// stream (which uses 0x9e3779b97f4a7c15 / 0xbf58476d1ce4e5b9).
const (
	streamLoss  = 0x2545f4914f6cdd1d
	streamBurst = 0x9e6c63d0876a9a35
	streamJam   = 0xd1342543de82ef95
	streamSkew  = 0xaef17502108ef2d9
)

// coin maps a hashed key to [0,1) through rng.Mix, the same mixer the
// reception media use for their stateless coins (internal/medium), so
// the fault layer's determinism argument is identical to theirs.
func coin(key uint64) float64 {
	return float64(rng.Mix(key)>>11) / (1 << 53)
}

// label returns the label node v's coins hash under (labels nil: v
// itself).
func label(labels []int32, v int32) int32 {
	if labels == nil {
		return v
	}
	return labels[v]
}

// Lost reports whether the fault layer drops an otherwise successful
// reception at node to from node from in the given slot. Pure in
// (seed, slot, from, to); no allocation.
func (inj *Injector) Lost(slot int64, from, to int32) bool {
	if inj.labels != nil {
		from, to = inj.labels[from], inj.labels[to]
	}
	if inj.loss > 0 {
		k := uint64(inj.seed)*0x9e3779b97f4a7c15 ^ uint64(slot)*streamLoss ^
			uint64(uint32(from))<<32 ^ uint64(uint32(to))
		if coin(k) < inj.loss {
			return true
		}
	}
	if b := inj.burst; b != nil {
		w := slot / b.Window
		kw := uint64(inj.seed)*0x9e3779b97f4a7c15 ^ uint64(w)*streamBurst ^
			uint64(uint32(from))<<32 ^ uint64(uint32(to))
		p := b.LossGood
		if coin(kw^streamBurst) < b.PBad {
			p = b.LossBad
		}
		if p > 0 {
			k := kw ^ uint64(slot)*streamLoss
			if p >= 1 || coin(k) < p {
				return true
			}
		}
	}
	return false
}

// Jammed reports whether the given slot is corrupted at receiver to.
// A jammed slot is undecodable no matter how many neighbors transmit.
// Pure in (seed, slot, to); no allocation.
func (inj *Injector) Jammed(slot int64, to int32) bool {
	for i := range inj.jammers {
		j := &inj.jammers[i]
		if slot < j.from || (j.until > 0 && slot >= j.until) {
			continue
		}
		if j.victims != nil && !j.victims[to] {
			continue
		}
		if j.period > 0 && (slot-j.from)%j.period >= j.duty {
			continue
		}
		if j.prob > 0 {
			k := uint64(inj.seed)*0x9e3779b97f4a7c15 ^ uint64(slot)*streamJam ^
				uint64(uint32(label(inj.labels, to))) ^ uint64(i)<<40
			if coin(k) >= j.prob {
				continue
			}
		}
		return true
	}
	return false
}

// Events returns the compiled crash/restart schedule, sorted by slot
// then node. Callers must not mutate it.
func (inj *Injector) Events() []Event { return inj.events }

// HasSkew reports whether the profile asks for clock skew; such runs
// must go through the half-slot engine.
func (inj *Injector) HasSkew() bool { return inj != nil && inj.skew > 0 }

// SkewOffsets derives the per-node half-slot offsets (0 or 1) for the
// unaligned engine, deterministically from the profile seed.
func (inj *Injector) SkewOffsets(n int) []int8 {
	off := make([]int8, n)
	if inj.skew <= 0 {
		return off
	}
	for i := range off {
		k := uint64(inj.seed)*0x9e3779b97f4a7c15 ^ uint64(label(inj.labels, int32(i)))*streamSkew
		if coin(k) < inj.skew {
			off[i] = 1
		}
	}
	return off
}

// N returns the network size the injector was compiled for.
func (inj *Injector) N() int { return inj.n }

// ErrNeedsReset is returned by consumers that require restart support
// from a protocol that cannot clear its state.
var ErrNeedsReset = errors.New("fault: profile schedules a restart but the protocol has no Reset")
