package core_test

import (
	"runtime"
	"testing"

	"radiocolor/internal/core"
	"radiocolor/internal/radio"
	"radiocolor/internal/topology"
)

// TestSteadyStateStepZeroAlloc pins the real protocol's per-slot cost
// at zero heap allocations on the sequential untiled and tiled loops,
// driven both by the Flat batch (one Send call per list, decisions
// reported by the call) and by the per-node adapter: messages come
// from each node's outbox and the derived constants are read, not
// recomputed. Competitor lists and leader queues grow by append and
// keep their storage across class moves and served requests, so their
// few growth allocations amortize to zero per slot (AllocsPerRun
// reports the per-run average). The window starts once every node has
// woken and the first contenders are active, so transmissions,
// receptions, resets, decisions and leader service all occur inside
// it.
func TestSteadyStateStepZeroAlloc(t *testing.T) {
	d := topology.UDGWithTargetDegree(300, 10, 3)
	par := core.Practical(d.N(), d.G.MaxDegree(), 5, 12)
	for _, c := range []struct {
		tiles   int
		perNode bool
	}{{0, false}, {4, false}, {0, true}, {4, true}} {
		tiles := c.tiles
		nodes, protos := core.Nodes(d.N(), 7, par, core.Ablation{})
		if c.perNode {
			protos = adapted(nodes)
		}
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
			t.Errorf("tiles=%d perNode=%v: Step allocates %v per slot, want 0", tiles, c.perNode, allocs)
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
// population: one Flat holds every field in a fixed number of arrays,
// with the random streams inline, so Nodes makes a constant number of
// allocations whatever n is, and the handles, the protocol slice and
// the state add up to under 300 bytes a node (measured 252 B on
// amd64). The bytes are the heap growth of one Nodes call, read from
// runtime.MemStats.
func TestNodesUnderOneKilobyte(t *testing.T) {
	const n = 1000
	par := core.Practical(n, 12, 5, 12)
	if allocs := testing.AllocsPerRun(5, func() { core.Nodes(n, 1, par, core.Ablation{}) }); allocs > 20 {
		t.Errorf("Nodes(%d) makes %v allocations, want at most 20 (one per state array)", n, allocs)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	nodes, protos := core.Nodes(n, 1, par, core.Ablation{})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(nodes)
	runtime.KeepAlive(protos)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 300 {
		t.Errorf("Nodes(%d) allocates %d bytes per node, want under 300", n, per)
	} else {
		t.Logf("%d bytes per node", per)
	}
}
