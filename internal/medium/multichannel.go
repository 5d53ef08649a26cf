// Multiple communication channels as a medium. Sect. 2 of the paper:
// "in contrast to previous work on the unstructured radio network model
// [13, 14], we do not make the simplifying assumption of having several
// independent communication channels. In our model, there is only one
// communication channel."
//
// This medium restores the multi-channel assumption so the difference
// can be measured: the spectrum is divided into K independent channels
// and every node hops uniformly at random between them each slot (a
// standard oblivious strategy that needs no coordination — exactly what
// an uninitialized network can afford). A transmission is received by a
// listening neighbor iff both happen to sit on the same channel and no
// other audible transmission occupies it. Protocols run unchanged; the
// hopping sequence is part of the environment, derived deterministically
// from (HopSeed, node, slot).
//
// Experiment E21 compares k ∈ {1, 2, 4, 8}: more channels thin the
// contention (collisions drop roughly k²-fold) but also thin the
// useful receptions (sender and receiver must coincide, probability
// 1/k), so the protocol — whose pace is set by counters, not by
// individual deliveries — slows roughly linearly in k. The paper's
// single-channel choice is thus not just less restrictive but also the
// fastest operating point for this algorithm.

package medium

import (
	"fmt"

	"radiocolor/internal/rng"
)

// MultiChannel divides the spectrum into K channels with per-slot
// uniform random hopping. K == 1 degenerates to GraphThreshold.
type MultiChannel struct {
	// K is the channel count (≥ 1).
	K int
	// HopSeed drives the hopping schedule; 0 falls back to the
	// environment's run seed.
	HopSeed int64
}

// Name implements Medium.
func (MultiChannel) Name() string { return "multichannel" }

// Bind implements Medium.
func (m MultiChannel) Bind(env Env) (Instance, error) {
	if m.K < 1 {
		return nil, fmt.Errorf("medium: %d channels", m.K)
	}
	if len(env.Offsets) != env.N+1 {
		return nil, fmt.Errorf("medium: multichannel needs a CSR adjacency (%d offsets for %d nodes)", len(env.Offsets), env.N)
	}
	seed := m.HopSeed
	if seed == 0 {
		seed = env.Seed
	}
	return &multiChannelInstance{
		k:       m.K,
		seed:    seed,
		offsets: env.Offsets,
		edges:   env.Edges,
		chanOf:  make([]int32, env.N),
		stamp:   make([]int64, env.N),
		count:   make([]int32, env.N),
		from:    make([]int32, env.N),
	}, nil
}

type multiChannelInstance struct {
	k       int
	seed    int64
	offsets []int32
	edges   []int32
	// chanOf caches a node's channel for the slot recorded in stamp
	// (slot+1, so the zero value never matches). Only nodes actually
	// involved in a slot — transmitters and their neighbors — pay the
	// hash, instead of the all-n sweep of the old bespoke engine.
	chanOf  []int32
	stamp   []int64
	count   []int32
	from    []int32
	touched []int32
}

// Name implements Instance.
func (m *multiChannelInstance) Name() string { return "multichannel" }

// N implements Instance.
func (m *multiChannelInstance) N() int { return len(m.chanOf) }

// channel returns node i's channel in slot t: a pure function of
// (seed, slot, node), so the schedule is reproducible and independent
// of execution order. The formula is kept verbatim from the retired
// bespoke multichannel engine; the E21 pinned goldens depend on it.
func (m *multiChannelInstance) channel(t int64, i int32) int32 {
	if m.stamp[i] == t+1 {
		return m.chanOf[i]
	}
	h := rng.Mix(rng.Mix(uint64(m.seed)^uint64(t)) ^ (uint64(i) * rng.Gamma))
	c := int32(h % uint64(m.k))
	m.chanOf[i] = c
	m.stamp[i] = t + 1
	return c
}

// Resolve implements Instance: the graph-threshold rule applied per
// channel — a listener decodes iff exactly one neighbor transmits on
// the listener's current channel.
func (m *multiChannelInstance) Resolve(slot int64, tx []int32, listening func(int32) bool, dst []Reception) ([]Reception, Stats) {
	var st Stats
	touched := m.touched[:0]
	for _, v := range tx {
		cv := m.channel(slot, v)
		for _, u := range m.edges[m.offsets[v]:m.offsets[v+1]] {
			if m.count[u] == 0 {
				if !listening(u) || m.channel(slot, u) != cv {
					continue
				}
				m.from[u] = v
				touched = append(touched, u)
			} else if m.channel(slot, u) != cv {
				continue
			}
			m.count[u]++
		}
	}
	for _, u := range touched {
		if m.count[u] == 1 {
			dst = append(dst, Reception{To: u, From: m.from[u]})
		} else {
			st.Collisions++
		}
		m.count[u] = 0
	}
	m.touched = touched
	return dst, st
}
