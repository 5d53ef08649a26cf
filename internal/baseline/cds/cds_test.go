package cds

import (
	"math/rand"
	"testing"

	"radiocolor/internal/graph"
	"radiocolor/internal/msgpass"
	"radiocolor/internal/rng"
	"radiocolor/internal/verify"
)

func udg(n int, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.08 {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Build()
}

func TestFixRepairsMonochromaticStart(t *testing.T) {
	// The worst possible start: every node holds color 0.
	g := udg(120, 1)
	initial := make([]int32, g.N())
	res, colors, err := Fix(g, initial, 42, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone {
		t.Fatalf("did not converge in %d rounds", res.Rounds)
	}
	if rep := verify.Check(g, colors); !rep.Proper {
		t.Fatalf("repaired coloring improper: %v", rep)
	}
	for _, c := range colors {
		if c < 0 || int(c) > g.MaxDegree() {
			t.Fatalf("color %d outside palette {0..%d}", c, g.MaxDegree())
		}
	}
}

func TestFixPreservesProperColoring(t *testing.T) {
	// A proper start must converge immediately (round 1: everyone
	// observes no conflict) without changing any color.
	g := udg(80, 2)
	_, proper, err := Fix(g, make([]int32, g.N()), 7, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	res, colors, err := Fix(g, proper, 99, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 {
		t.Errorf("proper start took %d rounds, want 2 (announce + observe)", res.Rounds)
	}
	for i, c := range colors {
		if c != proper[i] {
			t.Errorf("node %d recolored %d → %d without a conflict", i, proper[i], c)
		}
	}
}

func TestFixLocalizedPerturbationIsCheap(t *testing.T) {
	// Flip a handful of nodes of a proper coloring to a conflicting
	// color: repair must converge in far fewer rounds than the
	// monochromatic cold start and only conflicted regions may move.
	g := udg(120, 3)
	_, proper, err := Fix(g, make([]int32, g.N()), 7, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, _, err := Fix(g, make([]int32, g.N()), 11, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := append([]int32(nil), proper...)
	flipped := 0
	for v := 0; v < g.N() && flipped < 5; v++ {
		adj := g.Adj(v)
		if len(adj) == 0 {
			continue
		}
		perturbed[v] = proper[adj[0]] // collide with the first neighbor
		flipped++
	}
	res, colors, err := Fix(g, perturbed, 11, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep := verify.Check(g, colors); !rep.Proper {
		t.Fatalf("repair left conflicts: %v", rep)
	}
	if res.Rounds >= coldRes.Rounds {
		t.Errorf("perturbation repair took %d rounds, cold start %d — repair should be strictly cheaper",
			res.Rounds, coldRes.Rounds)
	}
}

func TestDoneIsStable(t *testing.T) {
	// Drive a conflicted pair by hand: once a node reports Done it must
	// never move again, even while its neighbor keeps repairing.
	n0 := New(2, 0, rng.Derive(1, 0))
	n1 := New(2, 1, rng.Derive(2, 0))
	protos := []msgpass.Protocol{n0, n1}
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	res, err := msgpass.Run(b.Build(), protos, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone {
		t.Fatal("conflict-free pair did not terminate")
	}
	if n0.Color() == n1.Color() {
		t.Errorf("adjacent pair share color %d", n0.Color())
	}
	if n0.Color() != 0 || n1.Color() != 1 {
		t.Errorf("conflict-free nodes moved: %d, %d", n0.Color(), n1.Color())
	}
}

func TestFixRejectsSizeMismatch(t *testing.T) {
	g := udg(10, 4)
	if _, _, err := Fix(g, make([]int32, 3), 1, 100); err == nil {
		t.Error("no error for wrong initial length")
	}
}
