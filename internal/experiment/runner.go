// Package experiment defines the reproducible experiment suite E1–E20
// indexed in DESIGN.md: each experiment regenerates the quantitative
// content of one of the paper's figures, theorems, or empirical claims
// as an aligned table. cmd/experiments prints the full suite (recorded
// in EXPERIMENTS.md); bench_test.go wraps each experiment in a
// testing.B benchmark.
package experiment

import (
	"fmt"

	"radiocolor/internal/core"
	"radiocolor/internal/graph"
	"radiocolor/internal/monitor"
	"radiocolor/internal/radio"
	"radiocolor/internal/topology"
	"radiocolor/internal/verify"
)

// Options scales the suite. The zero value is upgraded to Full.
type Options struct {
	// Trials is the number of repetitions per table cell.
	Trials int
	// SizeFactor scales network sizes (1.0 = the sizes recorded in
	// EXPERIMENTS.md; benchmarks use smaller factors).
	SizeFactor float64
	// Seed is the master seed; every trial derives its own.
	Seed int64
	// Parallel is the worker count trial jobs run on (via the fleet
	// engine); 0 or 1 keeps the sequential path. Tables are
	// byte-identical at any worker count: every trial derives its own
	// seed and results are folded in deterministic job order.
	Parallel int
	// Progress, when non-nil, receives live job counts from the trial
	// batches (see monitor.Progress and cmd/experiments).
	Progress *monitor.Progress
	// ChannelStats appends per-cell channel columns (collision rate) to
	// the tables that support them. Off by default so the recorded
	// EXPERIMENTS.md tables stay byte-identical.
	ChannelStats bool
}

// Full returns the options used to produce EXPERIMENTS.md.
func Full() Options { return Options{Trials: 3, SizeFactor: 1.0, Seed: 1} }

// Quick returns reduced options for benchmarks and smoke tests.
func Quick() Options { return Options{Trials: 1, SizeFactor: 0.4, Seed: 1} }

func (o Options) normalized() Options {
	if o.Trials <= 0 {
		o.Trials = 3
	}
	if o.SizeFactor <= 0 {
		o.SizeFactor = 1.0
	}
	return o
}

// scale applies the size factor with a floor.
func (o Options) scale(n, floor int) int {
	v := int(float64(n) * o.SizeFactor)
	if v < floor {
		v = floor
	}
	return v
}

// MeasureParams inspects a deployment and returns practical algorithm
// parameters with the measured Δ and κ values — the "rough bounds known
// at deployment time" of the model.
func MeasureParams(d *topology.Deployment) core.Params {
	delta := d.G.MaxDegree()
	k := d.G.Kappa(graph.KappaOptions{Budget: 150_000, MaxNeighborhood: 140})
	return core.Practical(d.N(), delta, k.K1, k.K2)
}

// CoreRun is the outcome of one protocol execution.
type CoreRun struct {
	Deployment *topology.Deployment
	Params     core.Params
	Nodes      []*core.Node
	Radio      *radio.Result
	Colors     []int32
	TCs        []int32
	Report     *verify.Report
	Leaders    int
}

// Correct reports completion with a proper coloring.
func (r *CoreRun) Correct() bool { return r.Radio.AllDone && r.Report.OK() }

// RunCore executes the paper's algorithm on d and verifies the result.
func RunCore(d *topology.Deployment, par core.Params, wake []int64, seed int64, maxSlots int64, abl core.Ablation) (*CoreRun, error) {
	nodes, protos := core.Nodes(d.N(), seed, par, abl)
	res, err := radio.Run(radio.Config{
		G:         d.G,
		Protocols: protos,
		Wake:      wake,
		MaxSlots:  maxSlots,
		NEstimate: par.N,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", d.Name, err)
	}
	run := &CoreRun{
		Deployment: d,
		Params:     par,
		Nodes:      nodes,
		Radio:      res,
		Colors:     make([]int32, d.N()),
		TCs:        make([]int32, d.N()),
	}
	for i, v := range nodes {
		run.Colors[i] = v.Color()
		run.TCs[i] = v.TC()
		if v.IsLeader() {
			run.Leaders++
		}
	}
	run.Report = verify.Check(d.G, run.Colors)
	return run, nil
}

// defaultBudget is the slot budget for a run expected to complete: a
// generous multiple of the O(κ₂⁴Δ log n)-flavored bound.
func defaultBudget(par core.Params) int64 {
	return max(par.SlotBudget(), 1_000_000)
}

// trialSeed derives a per-trial seed.
func trialSeed(master int64, cell, trial int) int64 {
	return master*1_000_003 + int64(cell)*7919 + int64(trial)*104729
}

// core0 is the un-ablated algorithm.
var core0 core.Ablation
