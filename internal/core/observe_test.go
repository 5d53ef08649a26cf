package core

import (
	"testing"

	"radiocolor/internal/graph"
	"radiocolor/internal/obs"
	"radiocolor/internal/radio"
)

// TestPhaseEnumPinned locks the numeric agreement between core.Phase and
// obs.Phase that ObservePhases' integer cast relies on. If either enum
// gains, loses or reorders a value, this fails before any trace does.
func TestPhaseEnumPinned(t *testing.T) {
	pairs := []struct {
		c Phase
		o obs.Phase
	}{
		{PhaseAsleep, obs.PhaseAsleep},
		{PhaseWaiting, obs.PhaseWaiting},
		{PhaseActive, obs.PhaseActive},
		{PhaseRequest, obs.PhaseRequest},
		{PhaseColored, obs.PhaseColored},
	}
	if len(pairs) != int(obs.NumPhases) {
		t.Fatalf("obs.NumPhases = %d, core has %d phases", obs.NumPhases, len(pairs))
	}
	for _, p := range pairs {
		if uint8(p.c) != uint8(p.o) {
			t.Errorf("core %v = %d but obs %v = %d", p.c, uint8(p.c), p.o, uint8(p.o))
		}
		if p.c.String() != p.o.String() {
			t.Errorf("name mismatch: core %q vs obs %q", p.c.String(), p.o.String())
		}
	}
}

func clique(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

// TestObservePhases runs a real coloring on a small clique and checks
// the phase hook delivers a trajectory consistent with the state
// machine: every node starts waiting, every node ends colored, and the
// timeline's terminal occupancy agrees.
func TestObservePhases(t *testing.T) {
	const n = 6
	g := clique(n)
	k := g.Kappa(graph.KappaOptions{Budget: 200_000, MaxNeighborhood: 160})
	par := Practical(n, g.MaxDegree(), k.K1, k.K2)
	nodes, protos := Nodes(n, 42, par, Ablation{})
	tl := obs.NewTimeline(n, 0)
	tr := obs.NewTracer(0, nil, obs.KindPhase)
	c := &obs.Collector{Tracer: tr, Timeline: tl}
	ObservePhases(nodes, c)
	res, err := radio.Run(radio.Config{
		G:         g,
		Protocols: protos,
		Wake:      radio.WakeSynchronous(n),
		MaxSlots:  3_000_000,
		NEstimate: par.N,
		Observer:  radio.CollectorObserver(c),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone {
		t.Fatalf("run did not finish: %v", res)
	}

	// Every node's first transition is into waiting (A₀); its last into
	// colored.
	first := map[int32]obs.Phase{}
	last := map[int32]obs.Phase{}
	for _, e := range tr.Events() {
		if _, ok := first[e.Node]; !ok {
			first[e.Node] = e.Phase
		}
		last[e.Node] = e.Phase
	}
	if len(first) != n {
		t.Fatalf("saw transitions for %d nodes, want %d", len(first), n)
	}
	for id := int32(0); id < n; id++ {
		if first[id] != obs.PhaseWaiting {
			t.Errorf("node %d first transition to %v, want waiting", id, first[id])
		}
		if last[id] != obs.PhaseColored {
			t.Errorf("node %d last transition to %v, want colored", id, last[id])
		}
	}

	// Timeline occupancy at the last slot: the n nodes start asleep and
	// each transition moves one of them, so the sample sums to n and
	// colored holds them all.
	buckets := tl.Buckets()
	if len(buckets) == 0 {
		t.Fatal("timeline sampled no slot")
	}
	occ := buckets[len(buckets)-1].PhaseNodes
	if occ[obs.PhaseColored] != n {
		t.Errorf("colored occupancy = %d, want %d", occ[obs.PhaseColored], n)
	}
	var total int64
	for _, c := range occ {
		total += c
	}
	if total != n {
		t.Errorf("occupancy sum = %d, want %d", total, n)
	}

	// All nodes entered colored exactly once.
	ph := tl.Phases()
	if ph[obs.PhaseColored].Entries != int64(n) {
		t.Errorf("timeline colored entries = %d, want %d", ph[obs.PhaseColored].Entries, n)
	}
}

// TestObservePhasesNop checks that an empty collector installs no hook.
func TestObservePhasesNop(t *testing.T) {
	nodes, _ := Nodes(2, 1, Practical(2, 2, 1, 1), Ablation{})
	ObservePhases(nodes, nil)
	ObservePhases(nodes, &obs.Collector{})
	for i, v := range nodes {
		if v.s.hooks != nil && v.s.hooks[v.i] != nil {
			t.Errorf("node %d got a hook from an empty collector", i)
		}
	}
}
