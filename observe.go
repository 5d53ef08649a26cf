package radiocolor

import (
	"time"

	"radiocolor/internal/obs"
	"radiocolor/internal/radio"
)

// Observer receives simulation events during a coloring run. Node
// identifiers are indices into the input adjacency (the same indexing
// as Outcome.Colors). Implementations must be fast — the simulator
// calls them in its hot loop — and, when Options.Workers > 1, safe for
// concurrent use. Embed NopObserver to implement only the events of
// interest.
type Observer interface {
	// OnSlot fires once per simulated slot, after the slot resolved.
	OnSlot(slot int64)
	// OnWake fires when a node wakes up and joins the protocol.
	OnWake(slot int64, node int)
	// OnTransmit fires for every transmission.
	OnTransmit(slot int64, from int)
	// OnDeliver fires when a listener receives a message cleanly
	// (exactly one transmitting neighbor).
	OnDeliver(slot int64, from, to int)
	// OnCollision fires when a listener had two or more transmitting
	// neighbors. The node itself observes nothing — the radio model has
	// no collision detection; this is a god's-eye-view event.
	OnCollision(slot int64, at, transmitters int)
	// OnDecide fires once per node, in the slot it irrevocably commits
	// to its color.
	OnDecide(slot int64, node int)
}

// PhaseObserver is an optional extension of Observer: when the
// configured Options.Observer also implements it, the run reports every
// protocol phase transition (asleep → waiting → active → request →
// colored, the state diagram of Fig. 2). Phase names are the stable
// vocabulary of internal/obs; the serving layer uses this seam to keep
// live phase-occupancy gauges per job.
type PhaseObserver interface {
	Observer
	// OnPhase fires when node moves between protocol phases.
	OnPhase(slot int64, node int, from, to string)
}

// NopObserver implements Observer ignoring all events; embed it to
// implement a subset.
type NopObserver struct{}

// OnSlot implements Observer.
func (NopObserver) OnSlot(int64) {}

// OnWake implements Observer.
func (NopObserver) OnWake(int64, int) {}

// OnTransmit implements Observer.
func (NopObserver) OnTransmit(int64, int) {}

// OnDeliver implements Observer.
func (NopObserver) OnDeliver(int64, int, int) {}

// OnCollision implements Observer.
func (NopObserver) OnCollision(int64, int, int) {}

// OnDecide implements Observer.
func (NopObserver) OnDecide(int64, int) {}

// observerAdapter lifts a public Observer onto the simulator's seam.
type observerAdapter struct{ o Observer }

// adaptObserver returns nil for a nil Observer so the engines stay on
// the branch-on-nil fast path.
func adaptObserver(o Observer) radio.Observer {
	if o == nil {
		return nil
	}
	return observerAdapter{o}
}

func (a observerAdapter) OnSlot(slot int64)                 { a.o.OnSlot(slot) }
func (a observerAdapter) OnWake(slot int64, n radio.NodeID) { a.o.OnWake(slot, int(n)) }
func (a observerAdapter) OnTransmit(slot int64, from radio.NodeID, _ radio.Message) {
	a.o.OnTransmit(slot, int(from))
}
func (a observerAdapter) OnDeliver(slot int64, to radio.NodeID, msg radio.Message) {
	a.o.OnDeliver(slot, int(msg.Sender()), int(to))
}
func (a observerAdapter) OnCollision(slot int64, at radio.NodeID, transmitters int) {
	a.o.OnCollision(slot, int(at), transmitters)
}
func (a observerAdapter) OnDecide(slot int64, n radio.NodeID) { a.o.OnDecide(slot, int(n)) }

// Stats snapshots a run's channel behavior. It is attached to
// Outcome.Stats when Options.Metrics is true. With tracing also
// enabled (and no Kinds filter), replaying the trace with
// cmd/tracestat reproduces these numbers exactly.
type Stats struct {
	// Transmissions, Deliveries and Collisions count channel events;
	// Collisions counts (listener, slot) pairs that lost a message to
	// overlapping transmissions.
	Transmissions, Deliveries, Collisions int64
	// Wakeups and Decisions count protocol lifecycle events; both equal
	// the node count on a complete run.
	Wakeups, Decisions int64
	// Slots is the number of simulated slots.
	Slots int64
	// CollisionRate is collisions / (deliveries + collisions): the
	// fraction of channel resolutions lost to contention.
	CollisionRate float64
	// SlotsPerSec is the simulation throughput: Slots over Wall.
	SlotsPerSec float64
	// Wall is the wall-clock duration of the simulation: the engine's
	// set-up and slot loop, without the κ pass or verification.
	Wall time.Duration
	// Phases aggregates per protocol phase (asleep, waiting, active,
	// request, colored): how long nodes sat in each phase and which
	// channel events they generated there.
	Phases []PhaseStats
	// Buckets is the time-resolved view: fixed windows of BucketSlots
	// slots each, in chronological order.
	Buckets []BucketStats
	// BucketSlots is the bucket width in slots.
	BucketSlots int64
}

// PhaseStats aggregates channel activity over one protocol phase.
type PhaseStats struct {
	// Name is the phase name ("asleep", "waiting", "active", "request",
	// "colored").
	Name string
	// NodeSlots integrates occupancy: the number of (node, slot) pairs
	// spent in this phase.
	NodeSlots int64
	// Transmissions counts messages sent from this phase; Deliveries
	// and Collisions count receptions and losses at listeners in it.
	Transmissions, Deliveries, Collisions int64
	// Entries counts transitions into the phase.
	Entries int64
}

// BucketStats aggregates one fixed window of slots.
type BucketStats struct {
	// Start is the window's first slot; Slots the slots it covers.
	Start, Slots int64
	// Transmissions, Deliveries, Collisions and Decisions count events
	// inside the window.
	Transmissions, Deliveries, Collisions, Decisions int64
	// PhaseNodes maps phase name to node occupancy sampled at the last
	// slot of the window.
	PhaseNodes map[string]int64
}

// buildStats assembles the public snapshot from the run's Result, its
// Timeline and the wall time of the slot loop.
func buildStats(res *radio.Result, tl *obs.Timeline, wall time.Duration) *Stats {
	s := &Stats{
		Transmissions: res.Transmissions,
		Deliveries:    res.Deliveries,
		Collisions:    res.Collisions,
		Wakeups:       res.Wakeups,
		Decisions:     res.Decisions,
		Slots:         res.Slots,
		Wall:          wall,
		BucketSlots:   tl.BucketSlots(),
	}
	if resolved := res.Deliveries + res.Collisions; resolved > 0 {
		s.CollisionRate = float64(res.Collisions) / float64(resolved)
	}
	if sec := wall.Seconds(); sec > 0 {
		s.SlotsPerSec = float64(res.Slots) / sec
	}
	for p, tot := range tl.Phases() {
		s.Phases = append(s.Phases, PhaseStats{
			Name:          obs.Phase(p).String(),
			NodeSlots:     tot.NodeSlots,
			Transmissions: tot.Transmissions,
			Deliveries:    tot.Deliveries,
			Collisions:    tot.Collisions,
			Entries:       tot.Entries,
		})
	}
	for _, b := range tl.Buckets() {
		bs := BucketStats{
			Start:         b.Start,
			Slots:         b.Slots,
			Transmissions: b.Transmissions,
			Deliveries:    b.Deliveries,
			Collisions:    b.Collisions,
			Decisions:     b.Decisions,
			PhaseNodes:    make(map[string]int64, obs.NumPhases),
		}
		for p, n := range b.PhaseNodes {
			bs.PhaseNodes[obs.Phase(p).String()] = n
		}
		s.Buckets = append(s.Buckets, bs)
	}
	return s
}
