package obs

import (
	"sync/atomic"
	"time"
)

// Metrics is a registry of atomic counters and gauges that a run's
// Observer feeds (the serving layer keeps one per job and one across
// all jobs). All methods are safe for concurrent use and cost one
// uncontended atomic add each. Counters are monotonic; gauges (the
// per-phase node counts) go up and down. The zero value is ready to
// use. The simulation engines do not know this type: their own counts
// are radio.Result's.
type Metrics struct {
	transmissions atomic.Int64
	deliveries    atomic.Int64
	collisions    atomic.Int64
	decisions     atomic.Int64
	wakeups       atomic.Int64
	slots         atomic.Int64
	lost          atomic.Int64
	jammed        atomic.Int64
	crashes       atomic.Int64
	restarts      atomic.Int64
	joins         atomic.Int64
	leaves        atomic.Int64
	conflictsRep  atomic.Int64
	phase         [NumPhases]atomic.Int64

	// startNanos is the wall-clock origin for rate computation, set on
	// the first counted slot (CAS so concurrent feeders agree).
	startNanos atomic.Int64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// AddTransmission counts one transmission.
func (m *Metrics) AddTransmission() { m.transmissions.Add(1) }

// AddDelivery counts one clean (exactly-one-sender) reception.
func (m *Metrics) AddDelivery() { m.deliveries.Add(1) }

// AddCollision counts one (listener, slot) pair with ≥ 2 transmitting
// neighbors.
func (m *Metrics) AddCollision() { m.collisions.Add(1) }

// AddFaultTotals folds a completed run's fault-seam totals into the
// registry. The Observer carries no fault events, so a registry fed
// through it (a server scraping many runs) merges each finished run's
// totals with one call.
func (m *Metrics) AddFaultTotals(lost, jammed, crashes, restarts int64) {
	m.lost.Add(lost)
	m.jammed.Add(jammed)
	m.crashes.Add(crashes)
	m.restarts.Add(restarts)
}

// AddChurnTotals folds a completed run's churn-seam totals (joins,
// leaves, conflict repairs) into the registry — the churn counterpart
// of AddFaultTotals.
func (m *Metrics) AddChurnTotals(joins, leaves, repaired int64) {
	m.joins.Add(joins)
	m.leaves.Add(leaves)
	m.conflictsRep.Add(repaired)
}

// AddDecision counts one node's irrevocable decision.
func (m *Metrics) AddDecision() { m.decisions.Add(1) }

// AddWakeup counts one node waking up.
func (m *Metrics) AddWakeup() { m.wakeups.Add(1) }

// AddSlot counts one simulated slot and stamps the rate origin on the
// first call.
func (m *Metrics) AddSlot() {
	if m.slots.Add(1) == 1 {
		m.startNanos.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// PhaseChange moves one node from phase `from` to phase `to` in the
// occupancy gauges.
func (m *Metrics) PhaseChange(from, to Phase) {
	if int(from) < NumPhases {
		m.phase[from].Add(-1)
	}
	if int(to) < NumPhases {
		m.phase[to].Add(1)
	}
}

// AddPhaseGauge shifts the occupancy gauge for `p` by n. Registries
// shared across concurrent runs (the serving layer's aggregate) use it
// to seed a run's node count in and subtract a finished run's terminal
// occupancy back out, without clobbering the other runs'
// contributions.
func (m *Metrics) AddPhaseGauge(p Phase, n int64) { m.phase[p].Add(n) }

// Snapshot is a consistent-enough point-in-time view of a registry.
// (Counters are read individually; a snapshot taken mid-slot may be off
// by the events of that slot, which is irrelevant for reporting.)
type Snapshot struct {
	// Transmissions, Deliveries, Collisions, Decisions, Wakeups and Slots
	// are the monotone event counters.
	Transmissions, Deliveries, Collisions, Decisions, Wakeups, Slots int64
	// Lost, Jammed, Crashes and Restarts count injected fault events
	// (zero unless a run has a fault profile).
	Lost, Jammed, Crashes, Restarts int64
	// Joins, Leaves and ConflictsRepaired count dynamic-topology events
	// (zero unless a run has a churn schedule).
	Joins, Leaves, ConflictsRepaired int64
	// PhaseNodes is the occupancy gauge: how many nodes currently sit in
	// each phase.
	PhaseNodes [NumPhases]int64
	// At is the wall-clock time of the snapshot; Start the rate origin
	// (zero time if no slot was counted yet).
	At, Start time.Time
}

// Snapshot reads the registry.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Transmissions: m.transmissions.Load(),
		Deliveries:    m.deliveries.Load(),
		Collisions:    m.collisions.Load(),
		Decisions:     m.decisions.Load(),
		Wakeups:       m.wakeups.Load(),
		Slots:         m.slots.Load(),
		Lost:          m.lost.Load(),
		Jammed:        m.jammed.Load(),
		Crashes:       m.crashes.Load(),
		Restarts:      m.restarts.Load(),
		Joins:         m.joins.Load(),
		Leaves:        m.leaves.Load(),

		ConflictsRepaired: m.conflictsRep.Load(),
		At:                time.Now(),
	}
	if ns := m.startNanos.Load(); ns != 0 {
		s.Start = time.Unix(0, ns)
	}
	for i := range s.PhaseNodes {
		s.PhaseNodes[i] = m.phase[i].Load()
	}
	return s
}

// CollisionRate is the fraction of channel resolutions that were lost
// to collisions: collisions / (deliveries + collisions). 0 when nothing
// was resolved.
func (s Snapshot) CollisionRate() float64 {
	total := s.Deliveries + s.Collisions
	if total == 0 {
		return 0
	}
	return float64(s.Collisions) / float64(total)
}

// SlotsPerSec is the mean simulation rate since the first counted slot,
// or 0 before any slot.
func (s Snapshot) SlotsPerSec() float64 {
	if s.Start.IsZero() {
		return 0
	}
	sec := s.At.Sub(s.Start).Seconds()
	if sec <= 0 {
		return 0
	}
	return float64(s.Slots) / sec
}

// Export calls fn once per metric in a fixed, documented order: the
// thirteen monotone counters first (counter true), then the per-phase
// occupancy gauges (counter false). It is the deterministic export hook
// text encoders build on — the Prometheus exposition and the stream
// samples of internal/serve both derive from it, so the vocabulary
// cannot drift between formats.
func (s Snapshot) Export(fn func(name string, value int64, counter bool)) {
	fn("transmissions", s.Transmissions, true)
	fn("deliveries", s.Deliveries, true)
	fn("collisions", s.Collisions, true)
	fn("decisions", s.Decisions, true)
	fn("wakeups", s.Wakeups, true)
	fn("slots", s.Slots, true)
	fn("lost", s.Lost, true)
	fn("jammed", s.Jammed, true)
	fn("crashes", s.Crashes, true)
	fn("restarts", s.Restarts, true)
	fn("joins", s.Joins, true)
	fn("leaves", s.Leaves, true)
	fn("conflicts_repaired", s.ConflictsRepaired, true)
	for i, v := range s.PhaseNodes {
		fn("phase_"+Phase(i).String(), v, false)
	}
}
