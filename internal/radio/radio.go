// Package radio implements the unstructured radio network model of
// Sect. 2 of the paper as a discrete-time simulator:
//
//   - time is divided into synchronized slots;
//   - in each slot an awake node either transmits or listens;
//   - a listening node receives a message iff EXACTLY ONE of its graph
//     neighbors transmits in that slot — otherwise it hears nothing and
//     cannot distinguish silence from collision (no collision detection);
//   - a transmitting node receives nothing in that slot;
//   - nodes wake up asynchronously per an arbitrary schedule, and
//     sleeping nodes neither send nor receive;
//   - there is a single communication channel.
//
// Protocols are written against the Protocol interface and are strictly
// message-driven: they never see the graph, their neighbor count, or
// global time, exactly as in the model.
package radio

import (
	"fmt"
	"sync/atomic"

	"radiocolor/internal/rng"
)

// simulatedSlots counts every slot simulated by any engine variant in
// this process, across goroutines. It is the raw work measure behind
// the live slots/s rate reported for long sweeps (monitor.Progress).
var simulatedSlots atomic.Int64

// SimulatedSlots returns the process-wide number of simulated slots.
// The counter is monotonic and shared by every slot loop (untiled,
// tiled, unaligned and reference); rate reporting samples it over time.
func SimulatedSlots() int64 { return simulatedSlots.Load() }

// NodeID identifies a node. IDs are indices into the network graph, but
// protocols must treat them as opaque identifiers (the paper requires
// only that a receiver can tell two senders apart).
type NodeID int32

// Message is a frame on the radio channel. Implementations carry the
// protocol-specific payload.
type Message interface {
	// Sender returns the transmitting node's identifier.
	Sender() NodeID
	// Bits returns the encoded payload size in bits given the network
	// size estimate n; the model requires O(log n) bits per message and
	// the engine records the maximum observed.
	Bits(n int) int
}

// Protocol is the behavior of a single node. The engine drives each
// awake node through one Send and (if it listened) one Recv call per
// slot. Implementations own all their state; the engine guarantees that
// calls to a single node's methods are never concurrent.
type Protocol interface {
	// Start is invoked once, in the slot the node wakes up, before the
	// node's first Send of that slot.
	Start(slot int64)
	// Send is invoked every slot while the node is awake. Returning a
	// non-nil message transmits it; returning nil listens. Send is the
	// node's per-slot tick: counter increments and timeouts live here.
	//
	// A message returned by Send(t) must stay valid (unchanged) through
	// slot t+1; from slot t+2 on the protocol may reuse its storage, so
	// two alternating buffers indexed by t&1 suffice and transmitting
	// needs no allocation. The half-slot loop (RunUnaligned) needs the
	// extra slot: it delivers slot t's messages during slot t+1, after
	// the sender's next Send. In return, no loop, medium or Observer
	// keeps a message past slot t+1.
	Send(slot int64) Message
	// Recv is invoked only in slots the node actually receives a
	// message, i.e. it listened and exactly one of its neighbors
	// transmitted. Silence and collision are indistinguishable to the
	// node (no collision detection) and produce no call at all; a node
	// that transmitted never receives in the same slot.
	Recv(slot int64, msg Message)
	// Done reports whether the node has made its irrevocable final
	// decision. Done nodes keep being scheduled (e.g. leaders continue
	// beaconing); Done only feeds termination detection and the
	// per-node time complexity T_v.
	Done() bool
}

// Observer receives simulation events for tracing and statistics.
// Implementations must be fast; the engine calls them in hot loops. A
// nil Observer in Config is fully disabled: the engines pay one branch
// per event and never allocate (the zero-overhead contract of the
// observability subsystem, see internal/obs).
type Observer interface {
	// OnSlot is called once per slot after all sends/receives resolved.
	OnSlot(slot int64)
	// OnWake is called when a node wakes up, before its first Start.
	OnWake(slot int64, node NodeID)
	// OnTransmit is called for each transmission.
	OnTransmit(slot int64, from NodeID, msg Message)
	// OnDeliver is called when a listener successfully receives.
	OnDeliver(slot int64, to NodeID, msg Message)
	// OnCollision is called when a listener had ≥ 2 transmitting
	// neighbors (the node itself observes nothing; this is a
	// god's-eye-view event).
	OnCollision(slot int64, at NodeID, transmitters int)
	// OnDecide is called once per node, in the slot its Done() first
	// reports true.
	OnDecide(slot int64, node NodeID)
}

// NopObserver is an Observer that ignores all events; embed it to
// implement only the events of interest.
type NopObserver struct{}

// OnSlot implements Observer.
func (NopObserver) OnSlot(int64) {}

// OnWake implements Observer.
func (NopObserver) OnWake(int64, NodeID) {}

// OnTransmit implements Observer.
func (NopObserver) OnTransmit(int64, NodeID, Message) {}

// OnDeliver implements Observer.
func (NopObserver) OnDeliver(int64, NodeID, Message) {}

// OnCollision implements Observer.
func (NopObserver) OnCollision(int64, NodeID, int) {}

// OnDecide implements Observer.
func (NopObserver) OnDecide(int64, NodeID) {}

// Rand is the source of per-node randomness: a SplitMix64 generator
// (internal/rng) whose whole state is one 8-byte word. Protocols hold it
// by value in their node struct, so a coin flip touches only the node's
// own memory. Each node receives its own deterministic stream derived
// from (master seed, node id), so results are identical across engine
// implementations and scheduling orders.
type Rand = rng.Rand

// NodeRand derives node i's random stream from the master seed: the
// generator starts from the SplitMix64-finalized seed + γ·(id+1), which
// decorrelates streams of adjacent ids (see rng.Derive).
func NodeRand(masterSeed int64, id NodeID) Rand {
	return rng.Derive(masterSeed, uint32(id))
}

// Result summarizes a simulation run.
type Result struct {
	// Slots is the number of slots simulated.
	Slots int64
	// AllDone reports whether every node decided before the slot limit.
	AllDone bool
	// WakeSlot[i] is the slot node i woke up.
	WakeSlot []int64
	// DecideSlot[i] is the slot node i's Done() first became true, or -1.
	DecideSlot []int64
	// Transmissions, Deliveries and Collisions count channel events:
	// Collisions counts (listener, slot) pairs with ≥ 2 transmitting
	// neighbors.
	Transmissions, Deliveries, Collisions int64
	// Captures counts deliveries that survived concurrent transmissions
	// via the capture effect, which only a pluggable medium models (the
	// built-in rule has no capture): the graph medium's two-way capture
	// coin (medium.GraphThreshold.Capture) or, under a SINR medium, the
	// strongest of ≥ 2 audible signals clearing the threshold. Included
	// in Deliveries.
	Captures int64
	// Drowned and BelowNoise are SINR-medium counters (zero otherwise):
	// Drowned counts listeners whose strongest signal would have decoded
	// alone but was buried by cumulative interference (a subset of
	// Collisions), BelowNoise listeners whose strongest signal cleared
	// the noise floor but not the SINR threshold even in silence.
	Drowned, BelowNoise int64
	// PerNodeTx[i] counts node i's transmissions (an energy proxy).
	PerNodeTx []int64
	// MaxMessageBits is the largest message payload observed.
	MaxMessageBits int

	// Fault-layer counters, all zero unless Config.Faults is set.
	// Lost counts receptions suppressed by the fault layer's link loss
	// (i.i.d. or burst); Jammed counts would-be receptions corrupted by
	// a jammer; Crashes and Restarts count node lifecycle events.
	Lost, Jammed      int64
	Crashes, Restarts int64
	// Down lists the nodes that are crashed as of the last simulated
	// slot (nil when Config.Faults is unset or nobody is down).
	Down []int32

	// Churn-layer counters, all zero unless Config.Churn is set. Joins
	// and Leaves count presence changes actually applied; a node that
	// leaves and rejoins counts once in each. ConflictsRepaired counts
	// decisions retracted by the self-stabilizing repair because a
	// topology change created a monochromatic edge.
	Joins, Leaves     int64
	ConflictsRepaired int64
	// Left lists the nodes absent from the network as of the last
	// simulated slot (nil when Config.Churn is unset or everyone is
	// present). Distinct from Down: a left node departed on schedule
	// and its color went out of scope with it, while a down node
	// fail-stopped.
	Left []int32
}

// Latency returns T_v for node v: slots between wake-up and decision
// (the paper's per-node time complexity), or -1 if v never decided.
func (r *Result) Latency(v int) int64 {
	if r.DecideSlot[v] < 0 {
		return -1
	}
	return r.DecideSlot[v] - r.WakeSlot[v]
}

// MaxLatency returns max_v T_v, the algorithm's time complexity, or -1
// if some node never decided.
func (r *Result) MaxLatency() int64 {
	max := int64(0)
	for v := range r.DecideSlot {
		l := r.Latency(v)
		if l < 0 {
			return -1
		}
		if l > max {
			max = l
		}
	}
	return max
}

// String implements fmt.Stringer with a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("slots=%d done=%v maxT=%d tx=%d rx=%d coll=%d",
		r.Slots, r.AllDone, r.MaxLatency(), r.Transmissions, r.Deliveries, r.Collisions)
}
