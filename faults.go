package radiocolor

import (
	"fmt"

	"radiocolor/internal/fault"
)

// FaultConfig asks a run to inject deterministic faults: lossy links,
// burst fading, fail-stop node crashes (with optional restart),
// adversarial jammers, and clock skew. All fault randomness derives
// from Seed (defaulting to Options.Seed), so two runs with equal
// options inject identical faults — "same seed, same chaos". The
// engine's hot loop pays one nil check per phase when Faults is unset,
// and the output is then bit-identical to a fault-free run.
//
// Runs with faults typically finish with Outcome.Complete == false
// (crashed nodes hold no color); Outcome.Faults separates that
// graceful degradation from hard failures (two live adjacent nodes
// sharing a color).
type FaultConfig struct {
	// Seed drives the fault coins (0 = use Options.Seed).
	Seed int64
	// Loss is the per-link i.i.d. probability that a successful
	// reception is dropped.
	Loss float64
	// Burst adds windowed Gilbert-Elliott burst loss.
	Burst *BurstLoss
	// Crashes schedules fail-stop failures, at most one per node.
	Crashes []NodeCrash
	// Jammers corrupt slots at their victim receivers.
	Jammers []Jam
	// SkewProb offsets each node's clock by half a slot with this
	// probability; receptions then follow the half-slot rule (the
	// paper's non-aligned model). Workers and Tiling still split the
	// Send sweep; the rule resolves each slot in one pass.
	SkewProb float64
}

// BurstLoss approximates a Gilbert-Elliott loss channel: each
// (link, window) pair of Window slots is bad with probability PBad;
// receptions are lost with probability LossBad in bad windows
// (0 means 1) and LossGood otherwise.
type BurstLoss struct {
	PBad     float64
	Window   int64
	LossBad  float64
	LossGood float64
}

// NodeCrash fail-stops Node at slot At; Restart > At revives it with
// cleared protocol state (0 = never).
type NodeCrash struct {
	Node    int
	At      int64
	Restart int64
}

// Jam corrupts slots [From, Until) at the victim Nodes (empty = all).
// Period > 0 jams only the first Duty slots of each period; Prob in
// (0,1) jams each hit slot with that probability.
type Jam struct {
	Nodes  []int
	From   int64
	Until  int64
	Period int64
	Duty   int64
	Prob   float64
}

// ParseFaults parses the compact profile syntax shared by
// cmd/colorsim -faults and the serve job API, e.g.
// "loss=0.05,crash=3@500:900,jam=100:400@0+1~0.8,skew=0.25,seed=42".
// An empty string yields nil (no faults).
func ParseFaults(s string) (*FaultConfig, error) {
	p, err := fault.ParseProfile(s)
	if err != nil {
		return nil, fmt.Errorf("radiocolor: %w", err)
	}
	if !p.Active() {
		return nil, nil
	}
	f := &FaultConfig{Seed: p.Seed, Loss: p.Loss, SkewProb: p.SkewProb}
	if b := p.Burst; b != nil {
		f.Burst = &BurstLoss{PBad: b.PBad, Window: b.Window, LossBad: b.LossBad, LossGood: b.LossGood}
	}
	for _, c := range p.Crashes {
		f.Crashes = append(f.Crashes, NodeCrash{Node: c.Node, At: c.At, Restart: c.Restart})
	}
	for _, j := range p.Jammers {
		f.Jammers = append(f.Jammers, Jam{
			Nodes: append([]int(nil), j.Nodes...),
			From:  j.From, Until: j.Until, Period: j.Period, Duty: j.Duty, Prob: j.Prob,
		})
	}
	return f, nil
}

// String renders the config in ParseFaults' syntax.
func (f *FaultConfig) String() string { return f.profile().String() }

// profile converts to the internal representation.
func (f *FaultConfig) profile() *fault.Profile {
	if f == nil {
		return nil
	}
	p := &fault.Profile{Seed: f.Seed, Loss: f.Loss, SkewProb: f.SkewProb}
	if b := f.Burst; b != nil {
		p.Burst = &fault.Burst{PBad: b.PBad, Window: b.Window, LossBad: b.LossBad, LossGood: b.LossGood}
	}
	for _, c := range f.Crashes {
		p.Crashes = append(p.Crashes, fault.Crash{Node: c.Node, At: c.At, Restart: c.Restart})
	}
	for _, j := range f.Jammers {
		p.Jammers = append(p.Jammers, fault.Jammer{
			Nodes: j.Nodes, From: j.From, Until: j.Until,
			Period: j.Period, Duty: j.Duty, Prob: j.Prob,
		})
	}
	return p
}

// FaultOutcome reports what the fault layer did to a run and the
// graceful-degradation verdict over the survivors.
type FaultOutcome struct {
	// Lost and Jammed count suppressed receptions; Crashes and
	// Restarts count node lifecycle events.
	Lost, Jammed, Crashes, Restarts int64
	// Down lists the nodes crashed at the end of the run.
	Down []int
	// Survivors counts live nodes; SurvivorsColored those holding a
	// color; Degraded the live-but-uncolored remainder (e.g. stuck on
	// a crashed leader).
	Survivors, SurvivorsColored, Degraded int
	// HardViolations counts edges between two live nodes sharing a
	// color. Graceful is true when there are none: crashed or degraded
	// nodes are the accepted cost of the faults, a live-live conflict
	// never is.
	HardViolations int
	Graceful       bool
}
