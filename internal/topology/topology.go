// Package topology generates the network deployments the experiments run
// on: random unit disk graphs, obstacle-laden bounded independence
// graphs, unit ball graphs over general metrics (Corollary 3), and
// structured adversarial graphs. All generators are deterministic under
// an explicit seed.
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"radiocolor/internal/geom"
	"radiocolor/internal/graph"
)

// Deployment bundles a generated network: node positions (when the
// topology is geometric), the induced communication graph, and metadata
// describing how it was produced.
type Deployment struct {
	// Name identifies the generator and parameters for experiment tables.
	Name string
	// Points holds node positions; nil for non-geometric topologies.
	Points []geom.Point
	// G is the communication graph.
	G *graph.Graph
	// Radius is the transmission range for geometric deployments (0 if
	// not applicable).
	Radius float64
	// Obstacles holds the wall set for obstacle deployments (nil
	// otherwise).
	Obstacles *geom.Obstacles
}

// N returns the number of nodes.
func (d *Deployment) N() int { return d.G.N() }

// buildGeometric constructs the communication graph over points: an edge
// wherever the metric distance is ≤ radius and no obstacle blocks the
// straight line. For the Euclidean metric a spatial grid makes this
// near-linear; general metrics fall back to the O(n²) scan (they may link
// points that are Euclid-far apart, e.g. via a hub).
func buildGeometric(points []geom.Point, m geom.Metric, radius float64, obs *geom.Obstacles) *graph.Graph {
	b := graph.NewBuilder(len(points))
	connect := func(i, j int) {
		if m.Dist(points[i], points[j]) <= radius && !obs.Blocked(points[i], points[j]) {
			b.AddEdge(i, j)
		}
	}
	if _, euclid := m.(geom.Euclidean); euclid && len(points) > 64 {
		// Cells a hair wider than the radius: rounding in a cell index
		// (x / size, floored) can then never put two points the
		// predicate connects two cells apart.
		grid := geom.NewGrid(points, radius*(1+1e-9))
		grid.CandidatePairs(connect)
	} else {
		for i := range points {
			for j := i + 1; j < len(points); j++ {
				connect(i, j)
			}
		}
	}
	return b.Build()
}

// UnitDisk builds the unit disk graph over points: an edge wherever the
// Euclidean distance is ≤ radius. Above 64 points a spatial grid makes
// the build near-linear; the edge set is the all-pairs scan's. Every
// coordinate must be finite and radius positive.
func UnitDisk(points []geom.Point, radius float64) *graph.Graph {
	return buildGeometric(points, geom.Euclidean{}, radius, nil)
}

// UDGConfig parameterizes random unit disk graph generation.
type UDGConfig struct {
	// N is the number of nodes.
	N int
	// Side is the side length of the square deployment area.
	Side float64
	// Radius is the transmission range.
	Radius float64
	// Seed drives the deterministic placement.
	Seed int64
}

// RandomUDG places N nodes uniformly at random in a Side×Side square and
// connects nodes within Euclidean distance Radius — the classic unit disk
// model (Corollary 2).
func RandomUDG(cfg UDGConfig) *Deployment {
	r := rand.New(rand.NewSource(cfg.Seed))
	pts := make([]geom.Point, cfg.N)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * cfg.Side, Y: r.Float64() * cfg.Side}
	}
	return &Deployment{
		Name:   fmt.Sprintf("udg(n=%d,side=%.1f,r=%.1f)", cfg.N, cfg.Side, cfg.Radius),
		Points: pts,
		G:      buildGeometric(pts, geom.Euclidean{}, cfg.Radius, nil),
		Radius: cfg.Radius,
	}
}

// UDGWithTargetDegree generates a random UDG whose expected degree δ_v
// (paper convention, including the node) is approximately target. Density
// is set from the expected number of nodes in a disk of the transmission
// radius: E[δ] = 1 + (n−1)·πr²/side².
func UDGWithTargetDegree(n, target int, seed int64) *Deployment {
	if target < 2 {
		target = 2
	}
	const radius = 1.0
	side := math.Sqrt(float64(n-1) * math.Pi * radius * radius / float64(target-1))
	d := RandomUDG(UDGConfig{N: n, Side: side, Radius: radius, Seed: seed})
	d.Name = fmt.Sprintf("udg(n=%d,target δ=%d)", n, target)
	return d
}

// ClusteredUDG deploys a dense core cluster plus a sparse uniform fringe
// in the same area — the heterogeneous-density scenario behind the
// locality property (Theorem 4): low colors should suffice on the fringe
// even though the core needs many.
func ClusteredUDG(nCore, nFringe int, side, radius float64, seed int64) *Deployment {
	r := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, 0, nCore+nFringe)
	// Core: Gaussian blob around the area center with spread ~radius.
	cx, cy := side/2, side/2
	for i := 0; i < nCore; i++ {
		pts = append(pts, geom.Point{
			X: clamp(cx+r.NormFloat64()*radius*0.6, 0, side),
			Y: clamp(cy+r.NormFloat64()*radius*0.6, 0, side),
		})
	}
	for i := 0; i < nFringe; i++ {
		pts = append(pts, geom.Point{X: r.Float64() * side, Y: r.Float64() * side})
	}
	return &Deployment{
		Name:   fmt.Sprintf("clustered(core=%d,fringe=%d)", nCore, nFringe),
		Points: pts,
		G:      buildGeometric(pts, geom.Euclidean{}, radius, nil),
		Radius: radius,
	}
}

func clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}

// BIGWithWalls generates a unit disk deployment and then drops random
// wall segments that sever links crossing them — the Fig. 1 scenario in
// which obstacles deform transmission ranges. The result is generally not
// a unit disk graph but remains a bounded independence graph with
// moderately increased κ₁/κ₂.
func BIGWithWalls(cfg UDGConfig, walls int) *Deployment {
	r := rand.New(rand.NewSource(cfg.Seed))
	pts := make([]geom.Point, cfg.N)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * cfg.Side, Y: r.Float64() * cfg.Side}
	}
	obs := &geom.Obstacles{}
	for w := 0; w < walls; w++ {
		// Walls are segments of length ~radius..2·radius at random
		// orientation.
		c := geom.Point{X: r.Float64() * cfg.Side, Y: r.Float64() * cfg.Side}
		angle := r.Float64() * 2 * math.Pi
		length := cfg.Radius * (1 + r.Float64())
		half := geom.Point{X: math.Cos(angle), Y: math.Sin(angle)}.Scale(length / 2)
		obs.Walls = append(obs.Walls, geom.Segment{A: c.Sub(half), B: c.Add(half)})
	}
	return &Deployment{
		Name:      fmt.Sprintf("big(n=%d,walls=%d)", cfg.N, walls),
		Points:    pts,
		G:         buildGeometric(pts, geom.Euclidean{}, cfg.Radius, obs),
		Radius:    cfg.Radius,
		Obstacles: obs,
	}
}

// UnitBallGraph places N nodes uniformly in a Side×Side square and
// connects nodes whose distance under the given metric is ≤ radius — the
// unit ball graph model of Corollary 3. Non-Euclidean metrics (snapped,
// hub) yield higher doubling dimension and thus larger κ₂.
func UnitBallGraph(cfg UDGConfig, m geom.Metric) *Deployment {
	r := rand.New(rand.NewSource(cfg.Seed))
	pts := make([]geom.Point, cfg.N)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * cfg.Side, Y: r.Float64() * cfg.Side}
	}
	return &Deployment{
		Name:   fmt.Sprintf("ubg(n=%d,%s)", cfg.N, m.Name()),
		Points: pts,
		G:      buildGeometric(pts, m, cfg.Radius, nil),
		Radius: cfg.Radius,
	}
}

// GridGraph deploys nodes on a rows×cols lattice with the given spacing
// and transmission radius. With radius slightly above the spacing the
// result is the 4-neighbor grid; larger radii add diagonals.
func GridGraph(rows, cols int, spacing, radius float64) *Deployment {
	pts := make([]geom.Point, 0, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			pts = append(pts, geom.Point{X: float64(j) * spacing, Y: float64(i) * spacing})
		}
	}
	return &Deployment{
		Name:   fmt.Sprintf("grid(%dx%d)", rows, cols),
		Points: pts,
		G:      buildGeometric(pts, geom.Euclidean{}, radius, nil),
		Radius: radius,
	}
}

// Ring returns the n-cycle (a 1-dimensional multi-hop network).
func Ring(n int) *Deployment {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return &Deployment{Name: fmt.Sprintf("ring(%d)", n), G: b.Build()}
}

// Clique returns the complete graph K_n — the single-hop worst case for
// contention.
func Clique(n int) *Deployment {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return &Deployment{Name: fmt.Sprintf("clique(%d)", n), G: b.Build()}
}

// Star returns the star K_{1,n−1}: one hub adjacent to all leaves — the
// extreme hidden-terminal topology (leaves cannot hear each other).
func Star(n int) *Deployment {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	return &Deployment{Name: fmt.Sprintf("star(%d)", n), G: b.Build()}
}

// RandomTree returns a uniformly random recursive tree on n vertices:
// vertex i attaches to a uniform earlier vertex.
func RandomTree(n int, seed int64) *Deployment {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i, r.Intn(i))
	}
	return &Deployment{Name: fmt.Sprintf("tree(%d)", n), G: b.Build()}
}

// CompleteBipartite returns K_{a,b}: a fully adversarial two-cluster
// hidden-terminal topology.
func CompleteBipartite(a, b int) *Deployment {
	bld := graph.NewBuilder(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			bld.AddEdge(i, a+j)
		}
	}
	return &Deployment{Name: fmt.Sprintf("bipartite(%d,%d)", a, b), G: bld.Build()}
}

// CorridorUDG deploys nodes uniformly along a long thin corridor (length
// × width), producing chain-like multi-hop networks in which progress
// must happen simultaneously in all regions — the scenario motivating the
// paper's parallel-progress argument (Lemma 7).
func CorridorUDG(n int, length, width, radius float64, seed int64) *Deployment {
	r := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * length, Y: r.Float64() * width}
	}
	return &Deployment{
		Name:   fmt.Sprintf("corridor(n=%d,%gx%g)", n, length, width),
		Points: pts,
		G:      buildGeometric(pts, geom.Euclidean{}, radius, nil),
		Radius: radius,
	}
}
