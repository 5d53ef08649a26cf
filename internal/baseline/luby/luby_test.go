package luby

import (
	"testing"

	"radiocolor/internal/graph"
	"radiocolor/internal/msgpass"
	"radiocolor/internal/rng"
	"radiocolor/internal/topology"
	"radiocolor/internal/verify"
)

func colorsOf(nodes []*Node) []int32 {
	out := make([]int32, len(nodes))
	for i, v := range nodes {
		out[i] = v.Color()
	}
	return out
}

func runOn(t *testing.T, g *graph.Graph, seed int64) ([]*Node, *msgpass.Result) {
	t.Helper()
	delta := g.MaxDegree()
	nodes, protos := Nodes(g.N(), delta, seed)
	res, err := msgpass.Run(g, protos, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	return nodes, res
}

func TestLubyColorsPath(t *testing.T) {
	b := graph.NewBuilder(10)
	for i := 0; i < 9; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.Build()
	nodes, res := runOn(t, g, 1)
	if !res.AllDone {
		t.Fatalf("did not terminate: %+v", res)
	}
	rep := verify.Check(g, colorsOf(nodes))
	if !rep.OK() {
		t.Fatalf("bad coloring: %v", rep)
	}
	if rep.MaxColor > int32(g.MaxDegree()) {
		t.Errorf("max color %d exceeds Δ = %d", rep.MaxColor, g.MaxDegree())
	}
}

func TestLubyColorsRandomUDG(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		d := topology.RandomUDG(topology.UDGConfig{N: 150, Side: 6, Radius: 1.2, Seed: seed})
		nodes, res := runOn(t, d.G, seed+10)
		if !res.AllDone {
			t.Fatalf("seed %d: did not terminate", seed)
		}
		rep := verify.Check(d.G, colorsOf(nodes))
		if !rep.OK() {
			t.Fatalf("seed %d: bad coloring: %v", seed, rep)
		}
		// (Δ+1) colors maximum.
		if rep.MaxColor > int32(d.G.MaxDegree()) {
			t.Errorf("seed %d: max color %d > Δ %d", seed, rep.MaxColor, d.G.MaxDegree())
		}
	}
}

func TestLubyCliqueUsesAllColors(t *testing.T) {
	d := topology.Clique(12)
	nodes, res := runOn(t, d.G, 3)
	if !res.AllDone {
		t.Fatal("clique did not terminate")
	}
	rep := verify.Check(d.G, colorsOf(nodes))
	if !rep.OK() || rep.NumColors != 12 {
		t.Fatalf("clique coloring: %v", rep)
	}
}

func TestLubyFastOnLargeNetworks(t *testing.T) {
	// O(log n) rounds: even 500 nodes finish within a generous bound.
	d := topology.RandomUDG(topology.UDGConfig{N: 500, Side: 10, Radius: 1.2, Seed: 9})
	_, res := runOn(t, d.G, 4)
	if !res.AllDone {
		t.Fatal("did not terminate")
	}
	if res.Rounds > 200 {
		t.Errorf("rounds = %d, expected O(log n) ≪ 200", res.Rounds)
	}
}

func TestLubyDeterministic(t *testing.T) {
	d := topology.RandomUDG(topology.UDGConfig{N: 80, Side: 5, Radius: 1.2, Seed: 2})
	a, _ := runOn(t, d.G, 7)
	b, _ := runOn(t, d.G, 7)
	for i := range a {
		if a[i].Color() != b[i].Color() {
			t.Fatalf("node %d differs across identical runs", i)
		}
	}
}

func TestLubyIsolatedVertex(t *testing.T) {
	g := graph.NewBuilder(1).Build()
	nodes, res := runOn(t, g, 5)
	if !res.AllDone || nodes[0].Color() < 0 {
		t.Fatal("isolated vertex not colored")
	}
}

func TestNodePaletteExhaustionGuard(t *testing.T) {
	// Force the degenerate guard: empty palette returns nil and the node
	// never terminates (rather than panicking).
	v := New(0, rng.Derive(1, 0))
	v.palette = nil
	if out := v.Round(0, nil); out != nil {
		t.Error("empty palette should broadcast nothing")
	}
	if v.Done() {
		t.Error("node with empty palette cannot decide")
	}
}

func TestRemoveFromPalette(t *testing.T) {
	v := New(4, rng.Derive(1, 0))
	v.removeFromPalette(2)
	v.removeFromPalette(2) // idempotent
	v.removeFromPalette(99)
	want := []int32{0, 1, 3, 4}
	if len(v.palette) != len(want) {
		t.Fatalf("palette = %v", v.palette)
	}
	for i := range want {
		if v.palette[i] != want[i] {
			t.Fatalf("palette = %v", v.palette)
		}
	}
}
