package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Metrics is the registry of atomic counters and gauges the simulation
// engines increment. All methods are safe for concurrent use (the
// parallel send phase may report from several goroutines) and cost one
// uncontended atomic add each. A single registry may be shared across
// runs and engines; counters are monotonic, gauges (the per-phase node
// counts) go up and down.
//
// The zero value is ready to use. The engines take a *Metrics and treat
// nil as "disabled": the hot paths pay exactly one branch per event and
// never allocate, which is what keeps the no-observability configuration
// within noise of the un-instrumented engine (see
// TestDisabledObservabilityAllocatesNothing).
type Metrics struct {
	transmissions atomic.Int64
	deliveries    atomic.Int64
	collisions    atomic.Int64
	captures      atomic.Int64
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
	drowned       atomic.Int64
	belowNoise    atomic.Int64
	phase         [NumPhases]atomic.Int64

	// startNanos is the wall-clock origin for rate computation, set on
	// the first counted slot (CAS so concurrent engines agree).
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

// AddCapture counts a delivery that survived a two-way collision via
// the capture effect (also counted by AddDelivery).
func (m *Metrics) AddCapture() { m.captures.Add(1) }

// AddCollisions counts n collisions at once; the medium path reports a
// slot's collisions in aggregate rather than per listener.
func (m *Metrics) AddCollisions(n int64) { m.collisions.Add(n) }

// AddDrowned counts n receptions a SINR medium lost to cumulative
// interference (would have decoded alone; a subset of collisions).
func (m *Metrics) AddDrowned(n int64) { m.drowned.Add(n) }

// AddBelowNoise counts n receptions a SINR medium lost to the noise
// floor alone (the strongest signal was audible but under the
// threshold even without interference).
func (m *Metrics) AddBelowNoise(n int64) { m.belowNoise.Add(n) }

// AddLost counts a reception suppressed by the fault layer's link
// loss (i.i.d. or burst).
func (m *Metrics) AddLost() { m.lost.Add(1) }

// AddJammed counts a would-be reception corrupted by a jammer.
func (m *Metrics) AddJammed() { m.jammed.Add(1) }

// AddCrash counts one fail-stop node crash.
func (m *Metrics) AddCrash() { m.crashes.Add(1) }

// AddRestart counts one crashed node rejoining with cleared state.
func (m *Metrics) AddRestart() { m.restarts.Add(1) }

// AddJoin counts one node joining the network under a churn schedule.
func (m *Metrics) AddJoin() { m.joins.Add(1) }

// AddLeave counts one node leaving the network under a churn schedule.
func (m *Metrics) AddLeave() { m.leaves.Add(1) }

// AddConflictRepaired counts one decision retracted by the churn
// layer's self-stabilizing repair (a topology change had created a
// monochromatic edge).
func (m *Metrics) AddConflictRepaired() { m.conflictsRep.Add(1) }

// AddFaultTotals folds a completed run's fault-seam totals into the
// registry. The engine's per-event adders only reach the registry the
// run was configured with; an aggregating registry (a server scraping
// many runs) merges each finished run with one call.
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

// SetPhaseGauge initializes the occupancy gauge for `p` to n (used to
// seed PhaseAsleep with the node count before a run).
func (m *Metrics) SetPhaseGauge(p Phase, n int64) { m.phase[p].Store(n) }

// AddPhaseGauge shifts the occupancy gauge for `p` by n. Registries
// shared across concurrent runs (the serving layer's aggregate) use it
// to seed a run's node count in and subtract a finished run's terminal
// occupancy back out, where the absolute Store of SetPhaseGauge would
// clobber the other runs' contributions.
func (m *Metrics) AddPhaseGauge(p Phase, n int64) { m.phase[p].Add(n) }

// Snapshot is a consistent-enough point-in-time view of a registry.
// (Counters are read individually; a snapshot taken mid-slot may be off
// by the events of that slot, which is irrelevant for reporting.)
type Snapshot struct {
	// Transmissions, Deliveries, Collisions, Captures, Decisions, Wakeups
	// and Slots are the monotone event counters.
	Transmissions, Deliveries, Collisions, Captures, Decisions, Wakeups, Slots int64
	// Lost, Jammed, Crashes and Restarts count injected fault events
	// (zero unless a run has a fault profile).
	Lost, Jammed, Crashes, Restarts int64
	// Joins, Leaves and ConflictsRepaired count dynamic-topology events
	// (zero unless a run has a churn schedule).
	Joins, Leaves, ConflictsRepaired int64
	// Drowned and BelowNoise count SINR-medium reception losses:
	// interference-buried and under-the-noise-floor respectively (zero
	// unless a run uses a SINR medium).
	Drowned, BelowNoise int64
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
		Captures:      m.captures.Load(),
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

		Drowned:    m.drowned.Load(),
		BelowNoise: m.belowNoise.Load(),
		At:         time.Now(),
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

// Sub returns the delta s − prev (counters only; gauges and timestamps
// keep s's values). Use with two snapshots of a live registry to report
// interval rates.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := s
	d.Transmissions -= prev.Transmissions
	d.Deliveries -= prev.Deliveries
	d.Collisions -= prev.Collisions
	d.Captures -= prev.Captures
	d.Decisions -= prev.Decisions
	d.Wakeups -= prev.Wakeups
	d.Slots -= prev.Slots
	d.Lost -= prev.Lost
	d.Jammed -= prev.Jammed
	d.Crashes -= prev.Crashes
	d.Restarts -= prev.Restarts
	d.Joins -= prev.Joins
	d.Leaves -= prev.Leaves
	d.ConflictsRepaired -= prev.ConflictsRepaired
	d.Drowned -= prev.Drowned
	d.BelowNoise -= prev.BelowNoise
	d.Start = prev.At
	return d
}

// Export calls fn once per metric in a fixed, documented order: the
// sixteen monotone counters first (Counter true), then the per-phase
// occupancy gauges (Counter false). It is the deterministic export hook
// text encoders build on — the Prometheus exposition of internal/serve
// and the Map/String renderings here all derive from it, so the
// vocabulary cannot drift between formats.
func (s Snapshot) Export(fn func(name string, value int64, counter bool)) {
	fn("transmissions", s.Transmissions, true)
	fn("deliveries", s.Deliveries, true)
	fn("collisions", s.Collisions, true)
	fn("captures", s.Captures, true)
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
	fn("drowned", s.Drowned, true)
	fn("below_noise", s.BelowNoise, true)
	for i, v := range s.PhaseNodes {
		fn("phase_"+Phase(i).String(), v, false)
	}
}

// Map renders the registry as name → value, the stable export format
// (names are the JSONL/summary vocabulary).
func (s Snapshot) Map() map[string]int64 {
	m := make(map[string]int64, 16+NumPhases)
	s.Export(func(name string, v int64, _ bool) { m[name] = v })
	return m
}

// String implements fmt.Stringer with a stable one-line summary
// (alphabetical keys).
func (s Snapshot) String() string {
	m := s.Map()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, m[k])
	}
	return b.String()
}
