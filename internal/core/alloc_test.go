package core_test

import (
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
