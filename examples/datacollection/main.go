// Data collection: the full chain the paper's introduction motivates.
// A fresh sensor deployment initializes itself from scratch with the
// coloring algorithm, derives a TDMA schedule, optionally compacts it,
// and then actually collects data to a sink over a BFS tree — measuring
// what the MAC layer is ultimately for.
//
//	go run ./examples/datacollection
package main

import (
	"fmt"
	"log"

	"radiocolor/internal/collect"
	"radiocolor/internal/core"
	"radiocolor/internal/experiment"
	"radiocolor/internal/radio"
	"radiocolor/internal/reduce"
	"radiocolor/internal/sched"
	"radiocolor/internal/topology"
)

func main() {
	d := topology.RandomUDG(topology.UDGConfig{N: 100, Side: 5.5, Radius: 1.3, Seed: 12})
	if !d.G.Connected() {
		log.Fatal("sample deployment disconnected; change the seed")
	}
	par := experiment.MeasureParams(d)
	fmt.Printf("deployment: %s, Δ=%d, κ₂=%d, diameter=%d\n\n",
		d.Name, par.Delta, par.Kappa2, d.G.Diameter())

	// 1. Initialize from scratch.
	run, err := experiment.RunCore(d, par, radio.WakeSynchronous(d.N()), 5,
		par.SlotBudget(), core.Ablation{})
	if err != nil || !run.Correct() {
		log.Fatalf("initialization failed: %v", err)
	}
	fmt.Printf("initialized in %d slots: %d colors, max %d\n",
		run.Radio.MaxLatency(), run.Report.NumColors, run.Report.MaxColor)

	// 2. Optionally compact the palette (E19).
	rNodes, rProtos := reduce.Nodes(run.Colors, 9, reduce.Params{
		N: par.N, Delta: par.Delta, Kappa2: par.Kappa2})
	res, err := radio.Run(radio.Config{G: d.G, Protocols: rProtos,
		Wake: radio.WakeSynchronous(d.N()), MaxSlots: 200_000_000})
	if err != nil || !res.AllDone {
		log.Fatalf("compaction failed: %v", err)
	}
	compacted := make([]int32, d.N())
	for i, v := range rNodes {
		compacted[i] = v.Color()
	}

	// 3. Collect 5 readings from every node to node 0.
	for _, variant := range []struct {
		name   string
		colors []int32
	}{
		{"protocol schedule ", run.Colors},
		{"compacted schedule", compacted},
	} {
		s, err := sched.FromColoring(variant.colors)
		if err != nil {
			log.Fatal(err)
		}
		stats, err := collect.Run(d.G, s, collect.Config{
			Sink: 0, PacketsPerNode: 5, CoinSeed: 3,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (frame %3d slots): %v\n", variant.name, s.FrameLen, stats)
	}
	fmt.Println("\nsame deployment, same radios — the compacted frame moves data an order")
	fmt.Println("of magnitude faster, which is why low colors matter (Theorem 4).")
}
