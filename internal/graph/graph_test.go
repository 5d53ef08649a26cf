package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// path returns the path graph 0-1-2-...-(n-1).
func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// cycle returns the cycle graph on n vertices.
func cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

// complete returns K_n.
func complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

// star returns a star with center 0 and n-1 leaves.
func star(n int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	return b.Build()
}

// randomGraph returns a G(n, p) graph from the given source.
func randomGraph(n int, p float64, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Build()
}

func TestBuilderDedupAndLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	b.AddEdge(2, 2)
	g := b.Build()
	if g.M() != 1 {
		t.Errorf("M = %d, want 1 (dedup + loop discard)", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge (0,1) missing")
	}
	if g.HasEdge(2, 2) {
		t.Error("self-loop present")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range edge")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestNewBuilderNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative n")
		}
	}()
	NewBuilder(-1)
}

func TestDegreeConvention(t *testing.T) {
	// The paper counts the node itself in δ_v.
	g := path(3)
	if g.Degree(0) != 2 || g.Degree(1) != 3 || g.Degree(2) != 2 {
		t.Errorf("degrees = %d %d %d, want 2 3 2", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d, want 3", g.MaxDegree())
	}
	if got := g.AvgDegree(); got != (2.0+3.0+2.0)/3.0 {
		t.Errorf("AvgDegree = %v", got)
	}
}

func TestNeighborhoodIncludesSelf(t *testing.T) {
	g := path(5)
	n2 := g.Neighborhood(2)
	want := []int32{1, 2, 3}
	if len(n2) != len(want) {
		t.Fatalf("N(2) = %v, want %v", n2, want)
	}
	for i := range want {
		if n2[i] != want[i] {
			t.Fatalf("N(2) = %v, want %v", n2, want)
		}
	}
	// Endpoint: self must still be inserted even when larger than all
	// neighbors.
	n4 := g.Neighborhood(4)
	if len(n4) != 2 || n4[0] != 3 || n4[1] != 4 {
		t.Fatalf("N(4) = %v, want [3 4]", n4)
	}
	n0 := g.Neighborhood(0)
	if len(n0) != 2 || n0[0] != 0 || n0[1] != 1 {
		t.Fatalf("N(0) = %v, want [0 1]", n0)
	}
}

func TestTwoHopAndKHop(t *testing.T) {
	g := path(7)
	got := g.TwoHop(3)
	want := []int32{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("TwoHop(3) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TwoHop(3) = %v", got)
		}
	}
	graphs := []*Graph{g}
	for seed := int64(0); seed < 30; seed++ {
		graphs = append(graphs, randomGraph(50, 0.01+0.01*float64(seed%8), seed))
	}
	for gi, h := range graphs {
		for v := 0; v < h.N(); v++ {
			if k2, t2 := h.KHop(v, 2), h.TwoHop(v); !slices.Equal(k2, t2) {
				t.Fatalf("graph %d: KHop(%d,2)=%v != TwoHop=%v", gi, v, k2, t2)
			}
		}
	}
	if got := g.KHop(0, 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("KHop(0,0) = %v, want [0]", got)
	}
	if got := g.KHop(0, 100); len(got) != 7 {
		t.Errorf("KHop(0,∞) covers %d vertices, want 7", len(got))
	}
}

func TestConnectivity(t *testing.T) {
	if !path(5).Connected() {
		t.Error("path should be connected")
	}
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	if g.Connected() {
		t.Error("two components should not be connected")
	}
	if g.Components() != 2 {
		t.Errorf("Components = %d, want 2", g.Components())
	}
	comp := g.Component(2)
	if len(comp) != 2 || comp[0] != 2 || comp[1] != 3 {
		t.Errorf("Component(2) = %v", comp)
	}
	empty := NewBuilder(0).Build()
	if !empty.Connected() {
		t.Error("empty graph counts as connected")
	}
	if got := NewBuilder(3).Build().Components(); got != 3 {
		t.Errorf("edgeless components = %d, want 3", got)
	}
}

func TestInduced(t *testing.T) {
	g := cycle(6)
	sub, orig := g.Induced([]int32{0, 1, 3, 4})
	if sub.N() != 4 {
		t.Fatalf("induced N = %d", sub.N())
	}
	// Edges kept: (0,1) and (3,4); edge (5,0), (1,2), (2,3), (4,5) dropped.
	if sub.M() != 2 {
		t.Fatalf("induced M = %d, want 2", sub.M())
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(2, 3) {
		t.Error("induced edges misplaced")
	}
	if orig[2] != 3 || orig[3] != 4 {
		t.Errorf("orig mapping = %v", orig)
	}
}

func TestInducedDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for duplicate vertices")
		}
	}()
	path(3).Induced([]int32{0, 0})
}

func TestIsIndependent(t *testing.T) {
	g := cycle(6)
	if !g.IsIndependent([]int32{0, 2, 4}) {
		t.Error("{0,2,4} is independent in C6")
	}
	if g.IsIndependent([]int32{0, 1}) {
		t.Error("{0,1} is not independent in C6")
	}
	if !g.IsIndependent(nil) {
		t.Error("empty set is independent")
	}
	if !g.IsIndependent([]int32{3, 3}) {
		t.Error("duplicates are set-semantics, {3} is independent")
	}
}

func TestGreedyMISMaximal(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(60, 0.15, seed)
		mis := g.GreedyMIS()
		if !g.IsIndependent(mis) {
			t.Fatalf("seed %d: greedy set not independent", seed)
		}
		member := make(map[int32]bool)
		for _, v := range mis {
			member[v] = true
		}
		// Maximality: every vertex outside has a neighbor inside.
		for v := 0; v < g.N(); v++ {
			if member[int32(v)] {
				continue
			}
			covered := false
			for _, u := range g.Adj(v) {
				if member[u] {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("seed %d: vertex %d could be added", seed, v)
			}
		}
	}
}

func TestMaxIndependentSetKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"K5", complete(5), 1},
		{"C6", cycle(6), 3},
		{"C7", cycle(7), 3},
		{"P7", path(7), 4},
		{"star10", star(10), 9},
		{"edgeless8", NewBuilder(8).Build(), 8},
		{"empty", NewBuilder(0).Build(), 0},
	}
	for _, c := range cases {
		got, exact := c.g.MaxIndependentSetSize(0)
		if !exact {
			t.Errorf("%s: search not exact", c.name)
		}
		if got != c.want {
			t.Errorf("%s: MIS = %d, want %d", c.name, got, c.want)
		}
	}
}

// bruteMIS computes the exact maximum independent set by enumeration for
// tiny graphs.
func bruteMIS(g *Graph) int {
	n := g.N()
	best := 0
	for mask := 0; mask < 1<<n; mask++ {
		var set []int32
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				set = append(set, int32(v))
			}
		}
		if len(set) > best && g.IsIndependent(set) {
			best = len(set)
		}
	}
	return best
}

func TestMaxIndependentSetMatchesBrute(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g := randomGraph(12, 0.3, seed)
		want := bruteMIS(g)
		got, exact := g.MaxIndependentSetSize(0)
		if !exact || got != want {
			t.Fatalf("seed %d: MIS = %d (exact=%v), brute = %d", seed, got, exact, want)
		}
	}
}

func TestMaxIndependentSetBudgetExhaustion(t *testing.T) {
	g := randomGraph(40, 0.2, 99)
	got, exact := g.MaxIndependentSetSize(1)
	if exact {
		t.Error("budget 1 should not complete on a 40-vertex graph")
	}
	// Even exhausted, the greedy seed guarantees a valid lower bound.
	if got < 1 {
		t.Errorf("lower bound = %d", got)
	}
	full, fullExact := g.MaxIndependentSetSize(0)
	if !fullExact {
		t.Fatal("full search should complete")
	}
	if got > full {
		t.Errorf("budgeted result %d exceeds exact %d", got, full)
	}
}

func TestKappaKnownGraphs(t *testing.T) {
	// Clique: every neighborhood is the whole clique → κ₁ = κ₂ = 1.
	k := complete(6).Kappa(KappaOptions{})
	if k.K1 != 1 || k.K2 != 1 || !k.Exact {
		t.Errorf("K6 kappa = %+v, want 1/1 exact", k)
	}
	// Star: N(center) is the whole star, MIS = all leaves.
	s := star(8).Kappa(KappaOptions{})
	if s.K1 != 7 || s.K2 != 7 {
		t.Errorf("star kappa = %+v, want 7/7", s)
	}
	// Long cycle: N(v) has 3 vertices (path) → κ₁ = 2; N²(v) is a
	// 5-path → κ₂ = 3.
	c := cycle(12).Kappa(KappaOptions{})
	if c.K1 != 2 || c.K2 != 3 {
		t.Errorf("C12 kappa = %+v, want 2/3", c)
	}
}

func TestKappaMonotone(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(30, 0.2, seed)
		k := g.Kappa(KappaOptions{})
		if k.K2 < k.K1 {
			t.Errorf("seed %d: κ₂ = %d < κ₁ = %d", seed, k.K2, k.K1)
		}
		if k.K1 < 1 && g.N() > 0 {
			t.Errorf("seed %d: κ₁ = %d", seed, k.K1)
		}
		if k.K1 > g.MaxDegree() {
			t.Errorf("seed %d: κ₁ = %d exceeds Δ = %d", seed, k.K1, g.MaxDegree())
		}
	}
}

func TestKappaGreedyFallback(t *testing.T) {
	g := randomGraph(40, 0.1, 7)
	exact := g.Kappa(KappaOptions{})
	approx := g.Kappa(KappaOptions{MaxNeighborhood: 2})
	if approx.Exact {
		t.Error("tiny MaxNeighborhood must force inexact result")
	}
	if approx.K1 > exact.K1 || approx.K2 > exact.K2 {
		t.Errorf("greedy bound exceeds exact: %+v vs %+v", approx, exact)
	}
}

// Property: HasEdge agrees with adjacency lists on random graphs.
func TestQuickHasEdgeConsistent(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(15, 0.3, seed)
		for v := 0; v < g.N(); v++ {
			present := make(map[int32]bool)
			for _, u := range g.Adj(v) {
				present[u] = true
			}
			for u := 0; u < g.N(); u++ {
				if g.HasEdge(v, u) != present[int32(u)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: greedy MIS size never exceeds exact MIS size.
func TestQuickGreedyBelowExact(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(14, 0.25, seed)
		exact, ok := g.MaxIndependentSetSize(0)
		return ok && len(g.GreedyMIS()) <= exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: validate always passes on built graphs.
func TestQuickValidateBuilt(t *testing.T) {
	f := func(seed int64) bool {
		return randomGraph(20, 0.3, seed).Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBitsetOps(t *testing.T) {
	b := newBitset(130)
	b.set(0)
	b.set(64)
	b.set(129)
	if !b.has(0) || !b.has(64) || !b.has(129) || b.has(1) {
		t.Error("set/has broken")
	}
	if b.count() != 3 {
		t.Errorf("count = %d, want 3", b.count())
	}
	b.clear(64)
	if b.has(64) || b.count() != 2 {
		t.Error("clear broken")
	}
	var got []int
	b.forEach(func(i int) { got = append(got, i) })
	if len(got) != 2 || got[0] != 0 || got[1] != 129 {
		t.Errorf("forEach = %v", got)
	}
	c := b.clone()
	c.set(5)
	if b.has(5) {
		t.Error("clone aliases storage")
	}
	mask := newBitset(130)
	mask.set(0)
	d := b.andNot(mask)
	if d.has(0) || !d.has(129) {
		t.Error("andNot broken")
	}
	if b.intersectCount(mask) != 1 {
		t.Error("intersectCount broken")
	}
	if b.empty() {
		t.Error("nonempty reported empty")
	}
	if !newBitset(10).empty() {
		t.Error("fresh bitset not empty")
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	if d := path(5).Diameter(); d != 4 {
		t.Errorf("P5 diameter = %d", d)
	}
	if d := cycle(8).Diameter(); d != 4 {
		t.Errorf("C8 diameter = %d", d)
	}
	if d := complete(6).Diameter(); d != 1 {
		t.Errorf("K6 diameter = %d", d)
	}
	if d := star(7).Diameter(); d != 2 {
		t.Errorf("star diameter = %d", d)
	}
	if e := path(5).Eccentricity(2); e != 2 {
		t.Errorf("P5 center eccentricity = %d", e)
	}
	if e := path(5).Eccentricity(0); e != 4 {
		t.Errorf("P5 endpoint eccentricity = %d", e)
	}
	// Disconnected → -1; empty → 0.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	if d := b.Build().Diameter(); d != -1 {
		t.Errorf("disconnected diameter = %d", d)
	}
	if d := NewBuilder(0).Build().Diameter(); d != 0 {
		t.Errorf("empty diameter = %d", d)
	}
}
