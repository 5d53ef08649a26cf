package topology

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"radiocolor/internal/geom"
	"radiocolor/internal/graph"
)

func TestRandomUDGDeterministic(t *testing.T) {
	cfg := UDGConfig{N: 100, Side: 10, Radius: 1.5, Seed: 42}
	a := RandomUDG(cfg)
	b := RandomUDG(cfg)
	if a.G.M() != b.G.M() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.G.M(), b.G.M())
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("same seed, different points at %d", i)
		}
	}
	c := RandomUDG(UDGConfig{N: 100, Side: 10, Radius: 1.5, Seed: 43})
	same := true
	for i := range a.Points {
		if a.Points[i] != c.Points[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical placements")
	}
}

func TestRandomUDGEdgesMatchDistance(t *testing.T) {
	d := RandomUDG(UDGConfig{N: 120, Side: 8, Radius: 1.2, Seed: 7})
	for i := 0; i < d.N(); i++ {
		for j := i + 1; j < d.N(); j++ {
			within := d.Points[i].Dist(d.Points[j]) <= d.Radius
			if d.G.HasEdge(i, j) != within {
				t.Fatalf("edge (%d,%d) = %v, distance predicate = %v", i, j, d.G.HasEdge(i, j), within)
			}
		}
	}
	if err := d.G.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUDGSmallNUsesBruteForce(t *testing.T) {
	// Fewer than 65 points bypasses the grid; the result must still match
	// the distance predicate.
	d := RandomUDG(UDGConfig{N: 30, Side: 4, Radius: 1, Seed: 3})
	for i := 0; i < d.N(); i++ {
		for j := i + 1; j < d.N(); j++ {
			if d.G.HasEdge(i, j) != (d.Points[i].Dist(d.Points[j]) <= 1) {
				t.Fatalf("mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestUDGKappaBounds(t *testing.T) {
	// Theory: unit disk graphs have κ₁ ≤ 5 and κ₂ ≤ 18 (Sect. 2).
	for seed := int64(0); seed < 5; seed++ {
		d := RandomUDG(UDGConfig{N: 250, Side: 6, Radius: 1, Seed: seed})
		k := d.G.Kappa(graph.KappaOptions{Budget: 500_000})
		if k.K1 > 5 {
			t.Errorf("seed %d: κ₁ = %d > 5 in a UDG", seed, k.K1)
		}
		if k.K2 > 18 {
			t.Errorf("seed %d: κ₂ = %d > 18 in a UDG", seed, k.K2)
		}
	}
}

func TestUDGWithTargetDegree(t *testing.T) {
	for _, target := range []int{5, 10, 20} {
		d := UDGWithTargetDegree(400, target, 11)
		avg := d.G.AvgDegree()
		// Boundary effects pull the average below target; allow a wide
		// band but insist on the right order of magnitude.
		if avg < float64(target)*0.5 || avg > float64(target)*1.4 {
			t.Errorf("target %d: average degree %.2f out of band", target, avg)
		}
	}
	// Degenerate target is clamped rather than dividing by zero.
	d := UDGWithTargetDegree(50, 1, 1)
	if d.N() != 50 {
		t.Error("clamped generator failed")
	}
}

func TestClusteredUDGDensityContrast(t *testing.T) {
	d := ClusteredUDG(80, 40, 20, 1.0, 5)
	if d.N() != 120 {
		t.Fatalf("N = %d, want 120", d.N())
	}
	// The max degree over core nodes should exceed the fringe max: the
	// core is a deliberate hot spot.
	coreMax, fringeMax := 0, 0
	for v := 0; v < 80; v++ {
		if deg := d.G.Degree(v); deg > coreMax {
			coreMax = deg
		}
	}
	for v := 80; v < 120; v++ {
		if deg := d.G.Degree(v); deg > fringeMax {
			fringeMax = deg
		}
	}
	if coreMax <= fringeMax {
		t.Errorf("core max degree %d not above fringe max %d", coreMax, fringeMax)
	}
}

func TestBIGWithWallsSeversLinks(t *testing.T) {
	cfg := UDGConfig{N: 200, Side: 8, Radius: 1.2, Seed: 9}
	plain := RandomUDG(cfg)
	walled := BIGWithWalls(cfg, 40)
	if walled.Obstacles.Count() != 40 {
		t.Fatalf("walls = %d, want 40", walled.Obstacles.Count())
	}
	if walled.G.M() >= plain.G.M() {
		t.Errorf("walls removed no edges: %d vs %d", walled.G.M(), plain.G.M())
	}
	// Every edge present must respect distance and visibility.
	for i := 0; i < walled.N(); i++ {
		for _, j := range walled.G.Adj(i) {
			if walled.Points[i].Dist(walled.Points[j]) > cfg.Radius {
				t.Fatalf("edge (%d,%d) too long", i, j)
			}
			if walled.Obstacles.Blocked(walled.Points[i], walled.Points[j]) {
				t.Fatalf("edge (%d,%d) crosses a wall", i, j)
			}
		}
	}
	// Zero walls must reproduce the plain UDG.
	same := BIGWithWalls(cfg, 0)
	if same.G.M() != plain.G.M() {
		t.Errorf("0 walls: %d edges vs plain %d", same.G.M(), plain.G.M())
	}
}

func TestUnitBallGraphMetrics(t *testing.T) {
	cfg := UDGConfig{N: 150, Side: 6, Radius: 1, Seed: 21}
	euclid := UnitBallGraph(cfg, geom.Euclidean{})
	plain := RandomUDG(cfg)
	if euclid.G.M() != plain.G.M() {
		t.Errorf("UBG under Euclidean should equal UDG: %d vs %d edges", euclid.G.M(), plain.G.M())
	}
	// Chebyshev balls (squares) strictly contain Euclidean balls of the
	// same radius → at least as many edges.
	cheb := UnitBallGraph(cfg, geom.Chebyshev{})
	if cheb.G.M() < euclid.G.M() {
		t.Errorf("Chebyshev UBG has fewer edges (%d) than Euclidean (%d)", cheb.G.M(), euclid.G.M())
	}
	// Hub metric adds long-range links through the hub.
	hub := UnitBallGraph(cfg, geom.HubMetric{Hub: geom.Point{X: 3, Y: 3}, Factor: 0.2})
	if hub.G.M() <= euclid.G.M() {
		t.Errorf("hub UBG added no links: %d vs %d", hub.G.M(), euclid.G.M())
	}
}

func TestGridGraph(t *testing.T) {
	d := GridGraph(4, 5, 1.0, 1.1)
	if d.N() != 20 {
		t.Fatalf("N = %d", d.N())
	}
	// 4-neighbor lattice: edges = rows*(cols-1) + cols*(rows-1).
	want := 4*4 + 5*3
	if d.G.M() != want {
		t.Errorf("M = %d, want %d", d.G.M(), want)
	}
	// Diagonal radius picks up 8-neighborhoods.
	diag := GridGraph(4, 5, 1.0, 1.5)
	if diag.G.M() <= d.G.M() {
		t.Error("diagonal radius should add edges")
	}
}

func TestStructuredTopologies(t *testing.T) {
	ring := Ring(10)
	if ring.G.M() != 10 || ring.G.MaxDegree() != 3 {
		t.Errorf("ring: M=%d Δ=%d", ring.G.M(), ring.G.MaxDegree())
	}
	clique := Clique(7)
	if clique.G.M() != 21 || clique.G.MaxDegree() != 7 {
		t.Errorf("clique: M=%d Δ=%d", clique.G.M(), clique.G.MaxDegree())
	}
	star := Star(9)
	if star.G.M() != 8 || star.G.Degree(0) != 9 {
		t.Errorf("star: M=%d deg(hub)=%d", star.G.M(), star.G.Degree(0))
	}
	tree := RandomTree(50, 3)
	if tree.G.M() != 49 || !tree.G.Connected() {
		t.Errorf("tree: M=%d connected=%v", tree.G.M(), tree.G.Connected())
	}
	bip := CompleteBipartite(3, 4)
	if bip.G.M() != 12 {
		t.Errorf("bipartite: M=%d, want 12", bip.G.M())
	}
	if bip.G.HasEdge(0, 1) || !bip.G.HasEdge(0, 3) {
		t.Error("bipartite structure wrong")
	}
}

func TestCorridorIsElongated(t *testing.T) {
	d := CorridorUDG(150, 30, 2, 1.0, 13)
	if d.N() != 150 {
		t.Fatal("wrong N")
	}
	var maxX, maxY float64
	for _, p := range d.Points {
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	if maxX < 20 || maxY > 2 {
		t.Errorf("corridor shape wrong: maxX=%.1f maxY=%.1f", maxX, maxY)
	}
}

func TestDeploymentNames(t *testing.T) {
	// Names feed experiment tables; they must be nonempty and distinct
	// across generators.
	names := map[string]bool{}
	for _, d := range []*Deployment{
		RandomUDG(UDGConfig{N: 10, Side: 3, Radius: 1, Seed: 1}),
		ClusteredUDG(5, 5, 5, 1, 1),
		BIGWithWalls(UDGConfig{N: 10, Side: 3, Radius: 1, Seed: 1}, 2),
		UnitBallGraph(UDGConfig{N: 10, Side: 3, Radius: 1, Seed: 1}, geom.Manhattan{}),
		GridGraph(2, 2, 1, 1.1),
		Ring(5), Clique(4), Star(4), RandomTree(5, 1), CompleteBipartite(2, 2),
		CorridorUDG(10, 10, 1, 1, 1),
	} {
		if d.Name == "" {
			t.Error("empty deployment name")
		}
		if names[d.Name] {
			t.Errorf("duplicate name %q", d.Name)
		}
		names[d.Name] = true
	}
}

// allPairsUnitDisk is the O(n²) reference for UnitDisk: every pair at
// Euclidean distance ≤ radius.
func allPairsUnitDisk(pts []geom.Point, radius float64) *graph.Graph {
	b := graph.NewBuilder(len(pts))
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist(pts[j]) <= radius {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Build()
}

// TestUnitDiskGridMatchesAllPairs checks the grid build against the
// all-pairs scan edge for edge. graph.Build sorts each row, so equal
// edge sets give equal CSRs. The inputs stress the grid's cell borders:
// random points, duplicates, and lattices whose neighbors sit exactly
// one radius apart on cell boundaries.
func TestUnitDiskGridMatchesAllPairs(t *testing.T) {
	type input struct {
		name   string
		pts    []geom.Point
		radius float64
	}
	var inputs []input
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{65, 300, 1000} {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: r.Float64()*20 - 10, Y: r.Float64()*20 - 10}
		}
		inputs = append(inputs, input{fmt.Sprintf("random-%d", n), pts, 1.3})
	}
	dup := make([]geom.Point, 200)
	for i := range dup {
		dup[i] = geom.Point{X: float64(i % 7), Y: float64(i % 3)}
	}
	inputs = append(inputs, input{"duplicates", dup, 1})
	for _, radius := range []float64{1, 0.1, 0.3, 1.7, 1e-3} {
		var lat []geom.Point
		for i := -6; i < 6; i++ {
			for j := -6; j < 6; j++ {
				lat = append(lat, geom.Point{X: float64(i) * radius, Y: float64(j) * radius})
			}
		}
		inputs = append(inputs, input{fmt.Sprintf("lattice-r%g", radius), lat, radius})
	}
	for _, in := range inputs {
		got, want := UnitDisk(in.pts, in.radius), allPairsUnitDisk(in.pts, in.radius)
		if got.M() == 0 {
			t.Fatalf("%s: no edges; the comparison is vacuous", in.name)
		}
		if got.M() != want.M() {
			t.Errorf("%s: grid build has %d edges, all pairs %d", in.name, got.M(), want.M())
			continue
		}
		for v := 0; v < got.N(); v++ {
			if !reflect.DeepEqual(got.Adj(v), want.Adj(v)) {
				t.Errorf("%s: node %d: grid row %v, all-pairs row %v", in.name, v, got.Adj(v), want.Adj(v))
				break
			}
		}
	}
}
