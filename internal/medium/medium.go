// Package medium is the pluggable reception-model seam of the
// simulator: it decides, per slot, which listener receives which
// transmission. The paper's model (Sect. 2) hard-codes one answer — a
// listener receives iff exactly one graph neighbor transmits — and the
// engine keeps that rule built in as its default fast path. Every other
// physical model (SINR with cumulative interference, multi-channel
// hopping, and later beeping or duty-cycling variants) implements the
// Medium interface here and plugs into the engine through
// radio.Config.Medium, the same nil-check seam discipline as the
// Observer and Faults hooks: a nil medium costs the kernel nothing and
// keeps its output bit-identical.
//
// A Medium is a stateless description (parameters only). Bind validates
// it against a concrete environment — node count, CSR adjacency,
// geometric positions — and returns an Instance holding the per-run
// scratch. Instances are single-run: they may keep mutable per-slot
// state and must not be shared across concurrent engines.
package medium

import (
	"fmt"

	"radiocolor/internal/geom"
	"radiocolor/internal/rng"
)

// Env is the world a medium is bound against. The engine fills it from
// its own run state; media pick the parts they need and reject
// environments that lack them (e.g. SINR without positions).
type Env struct {
	// N is the node count.
	N int
	// Offsets and Edges are the CSR view of the communication graph
	// (Offsets has N+1 entries; Edges[Offsets[v]:Offsets[v+1]] lists v's
	// neighbors). Graph-based media require them.
	Offsets []int32
	Edges   []int32
	// Points holds the nodes' positions in the plane, or nil for
	// non-geometric topologies. Geometric media (SINR) require them.
	Points []geom.Point
	// Seed is the run's master seed; media with internal randomness
	// (channel hopping) derive their schedules from it so that equal
	// seeds give equal runs.
	Seed int64
}

// Reception is one successful decode: listener To receives From's
// message this slot. At most one reception per listener per slot.
type Reception struct {
	// To is the listening node that decodes; From the transmitter.
	To, From int32
	// Captured marks a decode that survived concurrent transmissions
	// (≥ 2 audible senders) — the capture effect. The engine counts it
	// into Result.Captures.
	Captured bool
}

// Stats aggregates one slot's failed receptions, added into the run's
// counters by the engine.
type Stats struct {
	// Collisions counts (listener, slot) pairs where concurrent
	// transmissions destroyed an otherwise audible signal.
	Collisions int64
	// Drowned counts listeners whose strongest signal would have
	// decoded alone but was buried by cumulative interference (a subset
	// of Collisions; SINR-specific).
	Drowned int64
	// BelowNoise counts listeners whose strongest signal cleared the
	// noise floor but not the SINR threshold even without any
	// interference (SINR-specific; not a collision).
	BelowNoise int64
}

// Medium is a reception model: a pure parameter set that can be bound
// to a concrete environment.
type Medium interface {
	// Name identifies the model ("graph", "sinr", "multichannel") in
	// specs, logs and experiment tables.
	Name() string
	// Bind validates the medium against env and returns a run instance.
	Bind(env Env) (Instance, error)
}

// Instance resolves slots for one run.
//
// The contract with the engine: tx lists this slot's transmitters in
// ascending id order; listening reports whether a node is an awake,
// non-transmitting, non-crashed listener this slot (pure for the
// duration of the call); dst is an empty buffer the instance appends
// receptions to and returns (the engine reuses it across slots, so a
// steady-state run does not allocate). Each listener appears in at most
// one reception, and the emission order must be deterministic — the
// engine delivers in it.
type Instance interface {
	// Name echoes the bound medium's name.
	Name() string
	// N returns the node count the instance was bound for; the engine
	// rejects a mismatch with its graph.
	N() int
	// Resolve computes slot's receptions.
	Resolve(slot int64, tx []int32, listening func(int32) bool, dst []Reception) ([]Reception, Stats)
}

// GraphThreshold is the paper's reception rule as an explicit medium: a
// listener decodes iff exactly one of its graph neighbors transmits —
// otherwise the transmissions annihilate and the listener hears nothing
// (no collision detection). Binding the zero value reproduces the
// engine's built-in default exactly; it exists so differential tests can
// pin the seam against the fast path and so derived media have a
// reference skeleton.
type GraphThreshold struct {
	// Capture models the capture effect, a deviation ABOVE the model:
	// when exactly two neighbors transmit, the stronger signal
	// (deterministically, the lower-indexed transmitter) is still
	// decoded with this probability instead of being lost to the
	// collision. The coin is a pure function of (Env.Seed, slot,
	// listener). Real radios often exhibit capture; the model assumes
	// none, so the default is 0.
	Capture float64
}

// Name implements Medium.
func (GraphThreshold) Name() string { return "graph" }

// Bind implements Medium.
func (m GraphThreshold) Bind(env Env) (Instance, error) {
	if len(env.Offsets) != env.N+1 {
		return nil, fmt.Errorf("medium: graph medium needs a CSR adjacency (%d offsets for %d nodes)", len(env.Offsets), env.N)
	}
	if !(m.Capture >= 0 && m.Capture <= 1) {
		return nil, fmt.Errorf("medium: graph capture probability %v outside [0, 1]", m.Capture)
	}
	return &graphInstance{
		offsets: env.Offsets,
		edges:   env.Edges,
		count:   make([]int32, env.N),
		from:    make([]int32, env.N),
		capture: m.Capture,
		seed:    env.Seed,
	}, nil
}

// graphInstance accumulates per-listener transmitting-neighbor counts
// over the transmitters' CSR rows, exactly like the engine's built-in
// resolve phase. count keeps a zero between-slot invariant: every
// touched entry is reset while its cache line is still hot.
type graphInstance struct {
	offsets []int32
	edges   []int32
	count   []int32
	from    []int32 // first, i.e. lowest-indexed, transmitter heard
	touched []int32
	capture float64
	seed    int64
}

// Name implements Instance.
func (g *graphInstance) Name() string { return "graph" }

// N implements Instance.
func (g *graphInstance) N() int { return len(g.count) }

// Resolve implements Instance.
func (g *graphInstance) Resolve(slot int64, tx []int32, listening func(int32) bool, dst []Reception) ([]Reception, Stats) {
	var st Stats
	touched := g.touched[:0]
	for _, v := range tx {
		for _, u := range g.edges[g.offsets[v]:g.offsets[v+1]] {
			if g.count[u] == 0 {
				if !listening(u) {
					continue
				}
				g.from[u] = v
				touched = append(touched, u)
			}
			g.count[u]++
		}
	}
	for _, u := range touched {
		switch c := g.count[u]; {
		case c == 1:
			dst = append(dst, Reception{To: u, From: g.from[u]})
		case c == 2 && g.captured(slot, u):
			// tx is ascending, so from holds the lower-indexed sender.
			dst = append(dst, Reception{To: u, From: g.from[u], Captured: true})
		default:
			st.Collisions++
		}
		g.count[u] = 0
	}
	g.touched = touched
	return dst, st
}

// captured reports whether the two-way collision at listener u in slot
// is captured: a coin that is a pure function of (seed, slot, u), so
// the outcome is identical across worker counts and phase orderings.
func (g *graphInstance) captured(slot int64, u int32) bool {
	if g.capture <= 0 {
		return false
	}
	h := rng.Mix(rng.Mix(uint64(g.seed)^uint64(slot)*0x9E3779B9) ^ uint64(u) ^ 0xCA97)
	return float64(h>>11)/float64(1<<53) < g.capture
}
