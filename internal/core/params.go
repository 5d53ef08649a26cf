// Package core implements the paper's primary contribution: the
// randomized vertex-coloring algorithm for unstructured radio networks
// (Algorithms 1–3 of Moscibroda & Wattenhofer). Each network node runs a
// Node, a state machine over the states of Fig. 2:
//
//	Z (asleep) → A₀ → { C₀ (leader) | R (requesting) }
//	R → A_{tc·(κ₂+1)} → A_{i+1} → … → C_i (colored)
//
// Nodes communicate only through the radio channel of internal/radio and
// never observe the topology, exactly as in the unstructured radio
// network model.
package core

import (
	"fmt"
	"math"

	"radiocolor/internal/rng"
)

// Params collects the algorithm's four tunable constants (α, β, γ, σ of
// Sect. 4) together with the global estimates every node is assumed to
// know: n (network size), Δ (maximum degree, paper convention δ_v
// includes the node) and the bounded-independence parameters κ₁, κ₂.
type Params struct {
	// Alpha scales the waiting period ⌈αΔ log n⌉ a node observes upon
	// entering any state A_i before it starts competing.
	Alpha float64
	// Beta scales the ⌈β log n⌉ window a leader spends answering one
	// intra-cluster color request.
	Beta float64
	// Gamma scales the critical range ⌈γζ_i log n⌉ within which
	// competing counters force a reset.
	Gamma float64
	// Sigma scales the decision threshold ⌈σΔ log n⌉ a counter must
	// reach before its node irrevocably joins C_i.
	Sigma float64
	// N is the nodes' estimate of the network size.
	N int
	// Delta is the nodes' estimate of the maximum degree Δ.
	Delta int
	// Kappa1 and Kappa2 are the bounded-independence parameters.
	Kappa1, Kappa2 int
}

// logN returns the log n factor used throughout the algorithm (base-2,
// clamped so tiny networks still get nonzero phases).
func (p Params) logN() float64 {
	return math.Log2(math.Max(4, float64(p.N)))
}

// zeta returns ζ_i: 1 for the leader-election class 0 and Δ for every
// higher class (Algorithm 1, line 2).
func (p Params) zeta(class int32) float64 {
	if class == 0 {
		return 1
	}
	return float64(p.Delta)
}

// maxSlots bounds every derived slot count; Validate rejects params
// whose counts leave [1, maxSlots].
const maxSlots = 1 << 62

// ceilSlots rounds a real slot count up. A value outside [1, maxSlots]
// — NaN and overflow to ±Inf included — maps to 0, so Validate can
// reject it without relying on Go's implementation-defined conversion
// of out-of-range floats.
func ceilSlots(x float64) int64 {
	if c := math.Ceil(x); c >= 1 && c <= maxSlots {
		return int64(c)
	}
	return 0
}

// WaitSlots returns the waiting period ⌈αΔ log n⌉.
func (p Params) WaitSlots() int64 {
	return ceilSlots(p.Alpha * float64(p.Delta) * p.logN())
}

// Threshold returns the decision threshold ⌈σΔ log n⌉.
func (p Params) Threshold() int64 {
	return ceilSlots(p.Sigma * float64(p.Delta) * p.logN())
}

// CriticalRange returns ⌈γζ_i log n⌉ for verification class i.
func (p Params) CriticalRange(class int32) int64 {
	return ceilSlots(p.Gamma * p.zeta(class) * p.logN())
}

// ServeSlots returns the leader's per-request response window
// ⌈β log n⌉.
func (p Params) ServeSlots() int64 {
	return ceilSlots(p.Beta * p.logN())
}

// PSend returns the sending probability of competing (A_i), requesting
// (R) and colored non-leader (C_i, i>0) nodes: 1/(κ₂Δ).
func (p Params) PSend() float64 {
	return 1 / (float64(p.Kappa2) * float64(p.Delta))
}

// PLeader returns the leaders' sending probability 1/κ₂.
func (p Params) PLeader() float64 {
	return 1 / float64(p.Kappa2)
}

// SlotBudget returns the default simulation budget (κ₂+2)·40·⌈σΔ log n⌉
// slots, a generous multiple of the O(κ₂⁴Δ log n) completion bound. It
// saturates at math.MaxInt64 rather than overflow.
func (p Params) SlotBudget() int64 {
	t, f := p.Threshold(), int64(p.Kappa2+2)*40
	if t > math.MaxInt64/f {
		return math.MaxInt64
	}
	return t * f
}

// derived holds the constants a node reads on every tick, computed
// once per Flat so that Send and Recv do no floating-point work.
type derived struct {
	waitSlots, threshold, serveSlots int64
	// crit[min(i, 1)] is the critical range of class i: ζ_i takes
	// only two values, 1 for class 0 and Δ above.
	crit [2]int64
	// sendCoin and leaderCoin are PSend and PLeader as integer coin
	// thresholds (rng.CoinThreshold): the same outcomes as comparing
	// Float64 draws with the probabilities.
	sendCoin, leaderCoin uint64
}

// derive validates p and computes its derived constants.
func (p Params) derive() (derived, error) {
	if p.N < 1 {
		return derived{}, fmt.Errorf("core: N = %d", p.N)
	}
	if p.Delta < 2 {
		return derived{}, fmt.Errorf("core: Delta = %d (need ≥ 2)", p.Delta)
	}
	if p.Kappa1 < 1 || p.Kappa2 < p.Kappa1 {
		return derived{}, fmt.Errorf("core: kappa1 = %d, kappa2 = %d", p.Kappa1, p.Kappa2)
	}
	for _, c := range [...]float64{p.Alpha, p.Beta, p.Gamma, p.Sigma} {
		if !(c > 0) || math.IsInf(c, 1) {
			return derived{}, fmt.Errorf("core: constants must be positive and finite: α=%g β=%g γ=%g σ=%g",
				p.Alpha, p.Beta, p.Gamma, p.Sigma)
		}
	}
	d := derived{
		waitSlots:  p.WaitSlots(),
		threshold:  p.Threshold(),
		serveSlots: p.ServeSlots(),
		crit:       [2]int64{p.CriticalRange(0), p.CriticalRange(1)},
		sendCoin:   rng.CoinThreshold(p.PSend()),
		leaderCoin: rng.CoinThreshold(p.PLeader()),
	}
	for _, s := range [...]int64{d.waitSlots, d.threshold, d.serveSlots, d.crit[0], d.crit[1]} {
		if s == 0 {
			return derived{}, fmt.Errorf("core: a derived slot count is outside [1, 2^62] (α=%g β=%g γ=%g σ=%g, Δ=%d, n=%d)",
				p.Alpha, p.Beta, p.Gamma, p.Sigma, p.Delta, p.N)
		}
	}
	return d, nil
}

// Validate reports configuration errors: estimates out of range,
// constants that are not positive and finite, or constants so large
// that a derived slot count leaves [1, 2^62].
func (p Params) Validate() error {
	_, err := p.derive()
	return err
}

// Scale returns a copy with α, β, γ, σ multiplied by s — the knob the
// parameter-sweep experiment (E7) turns to locate the point where the
// paper's "significantly smaller values suffice" claim breaks down.
func (p Params) Scale(s float64) Params {
	q := p
	q.Alpha *= s
	q.Beta *= s
	q.Gamma *= s
	q.Sigma *= s
	return q
}

// Theoretical returns the constants proved sufficient in Sect. 4/5:
//
//	γ = 5κ₂ / ( [e⁻¹(1−1/κ₂)]^{κ₁/κ₂} · [e⁻¹(1−1/(κ₂Δ))]^{1/κ₂} )
//	σ = 10e²κ₂ / ((1−1/κ₂)(1−1/(κ₂Δ)))
//	β ≥ γ                        (Lemma 8)
//	α > 2γκ₂ + σ + 1             (Lemma 7)
//
// These are enormously conservative (γ ≈ 127, σ ≈ 1409 for UDG values
// κ₁ = 5, κ₂ = 18); the paper itself notes that simulations need far
// smaller values — see Practical.
func Theoretical(n, delta, kappa1, kappa2 int) Params {
	if kappa2 < 2 {
		kappa2 = 2 // the paper's formulas assume κ₂ ≥ 2 (divisions by 1−1/κ₂)
	}
	if kappa1 < 1 {
		kappa1 = 1
	}
	if delta < 2 {
		delta = 2
	}
	k1, k2, d := float64(kappa1), float64(kappa2), float64(delta)
	inner1 := math.Pow((1/math.E)*(1-1/k2), k1/k2)
	inner2 := math.Pow((1/math.E)*(1-1/(k2*d)), 1/k2)
	gamma := 5 * k2 / (inner1 * inner2)
	sigma := 10 * math.E * math.E * k2 / ((1 - 1/k2) * (1 - 1/(k2*d)))
	return Params{
		Alpha:  2*gamma*k2 + sigma + 2,
		Beta:   gamma,
		Gamma:  gamma,
		Sigma:  sigma,
		N:      n,
		Delta:  delta,
		Kappa1: kappa1,
		Kappa2: kappa2,
	}
}

// Practical returns the scaled-down constants used by the experiments.
// Sect. 4 of the paper: "Simulation results show that in networks whose
// nodes are uniformly distributed at random significantly smaller values
// suffice. In fact, the constants are sufficiently small to yield a
// practically efficient coloring algorithm."
//
// The structure mirrors the theoretical formulas — γ grows linearly in
// κ₂ (a decided node notifies its critically-close neighbors at rate
// ≈ 1/κ₂ per slot, so the safety margin must scale with κ₂), σ exceeds
// 2γ (the Theorem 2 proof needs counters unresettable across a full
// critical range before the threshold), and β = γ (Lemma 8) — but the
// multipliers are an order of magnitude smaller than the proved ones.
// Experiment E7 sweeps a scale factor around these values to locate the
// correctness/runtime trade-off empirically.
func Practical(n, delta, kappa1, kappa2 int) Params {
	if kappa2 < 2 {
		kappa2 = 2
	}
	if kappa1 < 1 {
		kappa1 = 1
	}
	if delta < 2 {
		delta = 2
	}
	gamma := float64(kappa2) + 2
	return Params{
		Alpha:  2,
		Beta:   gamma,
		Gamma:  gamma,
		Sigma:  2*gamma + 4,
		N:      n,
		Delta:  delta,
		Kappa1: kappa1,
		Kappa2: kappa2,
	}
}

// Ablation disables individual safeguards of the algorithm so the
// experiments can demonstrate why they are needed (Sect. 4 discusses the
// failure modes at length).
type Ablation struct {
	// NoCompetitorList replaces χ(P_v) by 0: resets ignore the locally
	// stored competitor counters. Sect. 4 predicts nodes then reset into
	// each other's critical ranges, re-enabling cascading resets.
	NoCompetitorList bool
	// NaiveReset replaces the critical-range rule with the naive scheme
	// the paper rejects: reset whenever a received counter is larger
	// than one's own. Predicts starvation in some network regions.
	NaiveReset bool
	// LeaderAssignmentMemory departs from the pseudocode in the
	// opposite, strengthening direction: a leader remembers which
	// intra-cluster color it assigned to each requester and re-serves
	// the SAME tc on a re-request (Algorithm 3 as written hands out a
	// fresh, higher tc, which inflates the palette in the rare case a
	// node misses its entire ⌈β log n⌉ response window). Harmless to
	// correctness either way; this variant keeps Corollary 1's windows
	// tight even under heavy loss.
	LeaderAssignmentMemory bool
}
