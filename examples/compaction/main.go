// Compaction: initialize from scratch with the paper's algorithm, then
// run the post-initialization color-compaction pass (internal/reduce)
// and compare the palette against the centralized greedy reference.
// Theorem 4 makes low colors the currency of TDMA bandwidth; this demo
// shows the from-scratch premium being refunded once the network is up.
//
//	go run ./examples/compaction
package main

import (
	"fmt"
	"log"

	"radiocolor/internal/core"
	"radiocolor/internal/experiment"
	"radiocolor/internal/radio"
	"radiocolor/internal/reduce"
	"radiocolor/internal/sched"
	"radiocolor/internal/topology"
	"radiocolor/internal/verify"
)

func main() {
	d := topology.RandomUDG(topology.UDGConfig{N: 120, Side: 6.5, Radius: 1.2, Seed: 8})
	par := experiment.MeasureParams(d)
	fmt.Printf("deployment: %s, Δ=%d, κ₂=%d\n\n", d.Name, par.Delta, par.Kappa2)

	// Stage 1: the paper's algorithm, from scratch.
	run, err := experiment.RunCore(d, par, radio.WakeSynchronous(d.N()), 5,
		par.SlotBudget(), core.Ablation{})
	if err != nil || !run.Correct() {
		log.Fatalf("initialization failed: %v", err)
	}
	report(d, "after initialization  ", run.Colors)

	// Stage 2: compaction in the same radio model.
	rNodes, rProtos := reduce.Nodes(run.Colors, 13, reduce.Params{
		N: par.N, Delta: par.Delta, Kappa2: par.Kappa2,
	})
	res, err := radio.Run(radio.Config{
		G: d.G, Protocols: rProtos, Wake: radio.WakeSynchronous(d.N()),
		MaxSlots: 200_000_000,
	})
	if err != nil || !res.AllDone {
		log.Fatalf("compaction failed: %v", err)
	}
	after := make([]int32, d.N())
	var moves int64
	for i, v := range rNodes {
		after[i] = v.Color()
		moves += v.Moves() + v.Repairs()
	}
	report(d, "after compaction      ", after)
	fmt.Printf("  (%d slots of maintenance, %.2f recolorings per node)\n\n",
		res.Slots, float64(moves)/float64(d.N()))

	// Reference: what a centralized scheduler would do.
	report(d, "centralized greedy ref", d.G.GreedyColoring())
}

func report(d *topology.Deployment, label string, colors []int32) {
	rep := verify.Check(d.G, colors)
	s, err := sched.FromColoring(colors)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: proper=%-5v colors=%-3d max=%-3d TDMA frame=%d slots\n",
		label, rep.Proper, rep.NumColors, rep.MaxColor, s.FrameLen)
}
