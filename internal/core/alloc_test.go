package core_test

import (
	"runtime"
	"testing"

	"radiocolor/internal/core"
	"radiocolor/internal/radio"
	"radiocolor/internal/topology"
)

// TestSteadyStateStepZeroAlloc pins the real protocol's per-slot cost
// at zero heap allocations on the sequential untiled and tiled loops:
// messages come from each node's outbox and the derived constants are
// read, not recomputed. Competitor lists and leader queues grow by
// append and keep their storage across class moves and served
// requests, so their few growth allocations amortize to zero per slot
// (AllocsPerRun reports the per-run average). The window starts once
// every node has woken and the first contenders are active, so
// transmissions, receptions, resets, decisions and leader service all
// occur inside it.
func TestSteadyStateStepZeroAlloc(t *testing.T) {
	d := topology.UDGWithTargetDegree(300, 10, 3)
	par := core.Practical(d.N(), d.G.MaxDegree(), 5, 12)
	for _, tiles := range []int{0, 4} {
		nodes, protos := core.Nodes(d.N(), 7, par, core.Ablation{})
		e, err := radio.NewEngine(radio.Config{
			G: d.G, Protocols: protos, MaxSlots: 1 << 40, NEstimate: par.N,
			Wake:  radio.WakeUniform(d.N(), par.WaitSlots(), 7),
			Tiles: tiles,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Warm up through the wake ramp and one more waiting period.
		for e.Slot() < 2*par.WaitSlots()+par.Threshold() {
			e.Step()
		}
		before := e.Result().Transmissions
		if allocs := testing.AllocsPerRun(2000, func() { e.Step() }); allocs != 0 {
			t.Errorf("tiles=%d: Step allocates %v per slot, want 0", tiles, allocs)
		}
		tx := e.Result().Transmissions - before
		colored := 0
		for _, v := range nodes {
			if v.Phase() == core.PhaseColored {
				colored++
			}
		}
		if tx == 0 || colored == 0 || colored == len(nodes) {
			t.Fatalf("tiles=%d: window not in steady state: %d transmissions, %d/%d colored", tiles, tx, colored, len(nodes))
		}
	}
}

// TestNodesUnderOneKilobyte pins the per-node footprint of a fresh
// protocol instance: one Node allocation per vertex, with the random
// stream held inline, adds up to well under 1 KB a node (a math/rand
// source alone was 5.4 KB). The bytes are the heap growth of one
// Nodes call, read from runtime.MemStats.
func TestNodesUnderOneKilobyte(t *testing.T) {
	const n = 1000
	par := core.Practical(n, 12, 5, 12)
	if allocs := testing.AllocsPerRun(5, func() { core.Nodes(n, 1, par, core.Ablation{}) }); allocs > n+2 {
		t.Errorf("Nodes(%d) makes %v allocations, want at most one per node plus two slices", n, allocs)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	nodes, protos := core.Nodes(n, 1, par, core.Ablation{})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(nodes)
	runtime.KeepAlive(protos)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1024 {
		t.Errorf("Nodes(%d) allocates %d bytes per node, want under 1024", n, per)
	} else {
		t.Logf("%d bytes per node", per)
	}
}
