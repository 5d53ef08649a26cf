package graph

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
)

// unitDisk builds a unit-disk graph on n uniform points in a square
// sized for the given mean degree: the geometric neighborhoods κ is
// measured on in practice.
func unitDisk(n int, degree float64, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	side := 1.0
	for float64(n)*3.14159/(side*side) > degree {
		side *= 1.05
	}
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = r.Float64()*side, r.Float64()*side
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dx, dy := xs[i]-xs[j], ys[i]-ys[j]; dx*dx+dy*dy <= 1 {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Build()
}

// bruteKappa measures κ₁/κ₂ by enumerating every independent set of g
// (n ≤ 20): κ_h is the largest one inside some N^h(v).
func bruteKappa(g *Graph) (k1, k2 int) {
	n := g.N()
	adj := make([]uint32, n)
	hood := [2][]uint32{make([]uint32, n), make([]uint32, n)}
	for v := 0; v < n; v++ {
		for _, u := range g.Adj(v) {
			adj[v] |= 1 << u
		}
		for _, u := range g.Neighborhood(v) {
			hood[0][v] |= 1 << u
		}
		for _, u := range g.TwoHop(v) {
			hood[1][v] |= 1 << u
		}
	}
	var walk func(v int, set uint32)
	walk = func(v int, set uint32) {
		if v == n {
			size := bits.OnesCount32(set)
			for w := 0; w < n; w++ {
				if set&^hood[0][w] == 0 {
					k1 = max(k1, size)
				}
				if set&^hood[1][w] == 0 {
					k2 = max(k2, size)
				}
			}
			return
		}
		walk(v+1, set)
		if set&adj[v] == 0 {
			walk(v+1, set|1<<v)
		}
	}
	walk(0, 0)
	return k1, k2
}

func TestKappaMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		n := 4 + int(seed%17)
		p := 0.15 + 0.05*float64(seed%6)
		g := randomGraph(n, p, seed)
		k1, k2 := bruteKappa(g)
		got := g.Kappa(KappaOptions{})
		if want := (KappaResult{K1: k1, K2: k2, Exact: true}); got != want {
			t.Fatalf("seed %d (n=%d p=%.2f): Kappa = %+v, brute force %+v", seed, n, p, got, want)
		}
	}
}

// oracleCase is one graph and option set on which the solver is held to
// the reference solver.
type oracleCase struct {
	name string
	g    *Graph
	opts KappaOptions
}

func oracleCases(long bool) []oracleCase {
	var cases []oracleCase
	for seed := int64(0); seed < 24; seed++ {
		budget := []int{1, 4, 20, 200}[seed%4]
		limit := []int{0, 6, 12, 25}[seed/4%4]
		opts := KappaOptions{Budget: budget, MaxNeighborhood: limit}
		cases = append(cases,
			oracleCase{fmt.Sprintf("random/%d", seed), randomGraph(40, 0.08+0.02*float64(seed%5), seed), opts},
			oracleCase{fmt.Sprintf("udg/%d", seed), unitDisk(150, 10+float64(seed%4)*4, seed), opts})
	}
	if long {
		// Dense UDGs with the production options: the budget binds on
		// some N²(v), so the reference's result is only a lower bound
		// there.
		for seed := int64(0); seed < 4; seed++ {
			opts := KappaOptions{Budget: 150_000, MaxNeighborhood: 140}
			cases = append(cases, oracleCase{fmt.Sprintf("udg-dense/%d", seed), unitDisk(300, 30, seed), opts})
		}
		cases = append(cases, oracleCase{"random-default", randomGraph(60, 0.15, 5), KappaOptions{}})
	}
	return cases
}

// TestKappaMatchesOracle holds the solver to the reference solver: the
// same result wherever the reference's search completed, and otherwise
// no smaller K (the clique-cover bound only prunes subtrees that cannot
// improve on the best, so the budget reaches further).
func TestKappaMatchesOracle(t *testing.T) {
	for _, c := range oracleCases(!testing.Short()) {
		old := oracleKappa(c.g, c.opts)
		got := c.g.Kappa(c.opts)
		switch {
		case old.Exact && got != old:
			t.Errorf("%s %+v: Kappa = %+v, reference solver (exact) %+v", c.name, c.opts, got, old)
		case got.K1 < old.K1 || got.K2 < old.K2:
			t.Errorf("%s %+v: Kappa = %+v below reference solver %+v", c.name, c.opts, got, old)
		}
	}
}

func TestMaxIndependentSetMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g := randomGraph(30+int(seed%3)*10, 0.1+0.05*float64(seed%4), seed)
		for _, budget := range []int{1, 3, 10, 50, 0} {
			old, oldExact := oracleMaxIndependentSetSize(g, budget)
			got, exact := g.MaxIndependentSetSize(budget)
			if oldExact && (got != old || !exact) || got < old {
				t.Fatalf("seed %d budget %d: MIS = %d (exact=%v), reference solver %d (exact=%v)",
					seed, budget, got, exact, old, oldExact)
			}
		}
		if got, want := len(g.GreedyMIS()), len(oracleGreedyMIS(g)); got != want {
			t.Fatalf("seed %d: greedy size %d, reference greedy %d", seed, got, want)
		}
	}
}

// TestKappaIndependentOfGOMAXPROCS pins the result, exact or not, at
// every worker count.
func TestKappaIndependentOfGOMAXPROCS(t *testing.T) {
	g := unitDisk(1200, 14, 3)
	optsList := []KappaOptions{
		{Budget: 150_000, MaxNeighborhood: 140},
		{Budget: 6, MaxNeighborhood: 30},
		{Budget: 2, MaxNeighborhood: 12},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, opts := range optsList {
		runtime.GOMAXPROCS(1)
		want := g.Kappa(opts)
		for _, procs := range []int{2, 4} {
			runtime.GOMAXPROCS(procs)
			if got := g.Kappa(opts); got != want {
				t.Errorf("%+v: GOMAXPROCS %d gives %+v, GOMAXPROCS 1 gives %+v", opts, procs, got, want)
			}
		}
	}
}

// TestKappaNeighborhoodZeroAlloc: once a worker's scratch has grown,
// measuring a neighborhood allocates nothing, on the search path and
// the sparse greedy path alike.
func TestKappaNeighborhoodZeroAlloc(t *testing.T) {
	g := unitDisk(400, 14, 1)
	s := newMISScratch(g)
	opts := KappaOptions{Budget: 150_000, MaxNeighborhood: 30}
	measure := func() {
		for v := 0; v < g.N(); v++ {
			s.gatherNeighborhood(v)
			s.measure(opts)
			s.gatherTwoHop(v)
			s.measure(opts)
		}
	}
	measure()
	if allocs := testing.AllocsPerRun(3, measure); allocs != 0 {
		t.Errorf("%.1f allocations per pass over %d neighborhoods, want 0", allocs, 2*g.N())
	}
}

// TestKappaLargeStar: every N²(v) of a 3,000-leaf star is the whole
// star, far above the size cap, so κ comes from the sparse greedy bound.
func TestKappaLargeStar(t *testing.T) {
	got := star(3001).Kappa(KappaOptions{Budget: 150_000, MaxNeighborhood: 140})
	if want := (KappaResult{K1: 3000, K2: 3000}); got != want {
		t.Errorf("Kappa = %+v, want %+v", got, want)
	}
}

func TestKappaContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k, err := unitDisk(2000, 12, 1).KappaContext(ctx, KappaOptions{})
	if !errors.Is(err, context.Canceled) || k != (KappaResult{}) {
		t.Errorf("KappaContext on a canceled context = %+v, %v", k, err)
	}
	k, err = cycle(12).KappaContext(context.Background(), KappaOptions{})
	if err != nil || k != (KappaResult{K1: 2, K2: 3, Exact: true}) {
		t.Errorf("KappaContext = %+v, %v", k, err)
	}
}
