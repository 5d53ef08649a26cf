// Package graph provides the network-graph substrate: an adjacency-list
// graph with the neighborhood, independence, and bounded-independence
// (κ₁/κ₂) machinery the paper's model section (Sect. 2) is built on.
//
// Conventions follow the paper: the neighborhood N(v) of a node v
// includes v itself, the degree δ_v = |N(v)| counts v, and Δ = max_v δ_v.
// The two-hop neighborhood N²(v) is the set of nodes within graph
// distance ≤ 2 of v (again including v).
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is an undirected simple graph over vertices 0..N-1, stored in
// compressed sparse row (CSR) form: one flat, sorted edge array plus
// per-vertex offsets. The adjacency slices in adj are views into the
// shared edge array, so both the slice API (Adj) and the flat API (CSR)
// walk the same cache-friendly memory. It is immutable after Build;
// concurrent readers need no synchronization.
type Graph struct {
	n       int
	adj     [][]int32 // adj[v] aliases edges[offsets[v]:offsets[v+1]]
	edges   []int32   // concatenated sorted neighbor rows, len 2·M
	offsets []int32   // len n+1; row v is edges[offsets[v]:offsets[v+1]]
}

// Builder accumulates edges for a Graph. Duplicate edges and self-loops
// are silently discarded at Build time.
type Builder struct {
	n     int
	edges [][2]int32
}

// NewBuilder creates a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge (u, v). It panics on out-of-range
// endpoints; self-loops are ignored.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// Build finalizes the graph. The builder may be reused afterwards, but
// the built graph is independent of it.
//
// The result is laid out in CSR form in a single pass: edges are sorted
// by (min endpoint, max endpoint) and deduplicated, degrees prefix-summed
// into offsets, and each row filled by one scan over the unique edges.
// Because the scan visits min endpoints in ascending order, row v first
// receives its smaller neighbors (ascending) and then, during v's own
// block, its larger neighbors (ascending) — every row comes out sorted
// without a per-row sort.
func (b *Builder) Build() *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i][0] != b.edges[j][0] {
			return b.edges[i][0] < b.edges[j][0]
		}
		return b.edges[i][1] < b.edges[j][1]
	})
	deg := make([]int32, b.n)
	uniq := b.edges[:0]
	var prev [2]int32 = [2]int32{-1, -1}
	for _, e := range b.edges {
		if e == prev {
			continue
		}
		prev = e
		uniq = append(uniq, e)
		deg[e[0]]++
		deg[e[1]]++
	}
	if int64(len(uniq))*2 > int64(1<<31-1) {
		panic(fmt.Sprintf("graph: %d edges overflow int32 CSR offsets", len(uniq)))
	}
	g := &Graph{
		n:       b.n,
		adj:     make([][]int32, b.n),
		edges:   make([]int32, 2*len(uniq)),
		offsets: make([]int32, b.n+1),
	}
	for v := 0; v < b.n; v++ {
		g.offsets[v+1] = g.offsets[v] + deg[v]
	}
	cursor := deg // reuse as fill cursor: next free index relative to row start
	for v := range cursor {
		cursor[v] = g.offsets[v]
	}
	for _, e := range uniq {
		g.edges[cursor[e[0]]] = e[1]
		cursor[e[0]]++
		g.edges[cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
	for v := 0; v < b.n; v++ {
		g.adj[v] = g.edges[g.offsets[v]:g.offsets[v+1]:g.offsets[v+1]]
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.edges) / 2 }

// Adj returns the sorted neighbor list of v (excluding v). The returned
// slice is shared with the graph and must not be modified.
func (g *Graph) Adj(v int) []int32 { return g.adj[v] }

// HasEdge reports whether (u, v) is an edge, by binary search over the
// sorted CSR row of u (no closure per probe, unlike sort.Search).
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	lo, hi := g.offsets[u], g.offsets[u+1]
	w := int32(v)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if g.edges[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < g.offsets[u+1] && g.edges[lo] == w
}

// Degree returns δ_v = |N(v)| including v itself, per the paper's
// convention (footnote 1 in Sect. 2).
func (g *Graph) Degree(v int) int { return len(g.adj[v]) + 1 }

// MaxDegree returns Δ = max_v δ_v (paper convention: includes the node).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the mean of δ_v over all vertices.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	total := 0
	for v := 0; v < g.n; v++ {
		total += g.Degree(v)
	}
	return float64(total) / float64(g.n)
}

// Neighborhood returns N(v): v together with its neighbors, sorted.
func (g *Graph) Neighborhood(v int) []int32 {
	out := make([]int32, 0, len(g.adj[v])+1)
	inserted := false
	for _, u := range g.adj[v] {
		if !inserted && u > int32(v) {
			out = append(out, int32(v))
			inserted = true
		}
		out = append(out, u)
	}
	if !inserted {
		out = append(out, int32(v))
	}
	return out
}

// TwoHop returns N²(v): all nodes within graph distance ≤ 2 of v
// (including v), sorted.
func (g *Graph) TwoHop(v int) []int32 {
	size := 1 + len(g.adj[v])
	for _, u := range g.adj[v] {
		size += len(g.adj[u])
	}
	out := make([]int32, 0, size)
	out = append(out, int32(v))
	for _, u := range g.adj[v] {
		out = append(out, u)
		out = append(out, g.adj[u]...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// KHop returns all nodes within graph distance ≤ k of v (including v),
// sorted, by breadth-first search.
func (g *Graph) KHop(v, k int) []int32 {
	dist := map[int32]int{int32(v): 0}
	frontier := []int32{int32(v)}
	for d := 0; d < k && len(frontier) > 0; d++ {
		var next []int32
		for _, u := range frontier {
			for _, w := range g.adj[u] {
				if _, ok := dist[w]; !ok {
					dist[w] = d + 1
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	out := make([]int32, 0, len(dist))
	for u := range dist {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Connected reports whether the graph is connected (the empty graph and
// singletons count as connected).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	return len(g.Component(0)) == g.n
}

// Component returns the vertices of the connected component containing v,
// sorted.
func (g *Graph) Component(v int) []int32 {
	seen := make([]bool, g.n)
	seen[v] = true
	stack := []int32{int32(v)}
	out := []int32{int32(v)}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[u] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
				out = append(out, w)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Components returns the number of connected components.
func (g *Graph) Components() int {
	seen := make([]bool, g.n)
	count := 0
	for v := 0; v < g.n; v++ {
		if seen[v] {
			continue
		}
		count++
		stack := []int32{int32(v)}
		seen[v] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.adj[u] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return count
}

// Validate checks structural invariants (sorted, symmetric, loop-free
// adjacency) and returns an error describing the first violation. Built
// graphs always pass; the check guards hand-constructed test fixtures and
// deserialized graphs.
func (g *Graph) Validate() error {
	for v := 0; v < g.n; v++ {
		prev := int32(-1)
		for _, u := range g.adj[v] {
			if u < 0 || int(u) >= g.n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if u == int32(v) {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if u <= prev {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted at %d", v, u)
			}
			prev = u
			if !g.HasEdge(int(u), v) {
				return fmt.Errorf("graph: edge (%d,%d) not symmetric", v, u)
			}
		}
	}
	return nil
}

// Induced returns the subgraph induced by the given vertices, along with
// the mapping from new indices to original vertex ids. Vertices may be
// given in any order; duplicates are an error.
func (g *Graph) Induced(vertices []int32) (*Graph, []int32) {
	idx := make(map[int32]int32, len(vertices))
	orig := make([]int32, len(vertices))
	for i, v := range vertices {
		if _, dup := idx[v]; dup {
			panic(fmt.Sprintf("graph: duplicate vertex %d in induced set", v))
		}
		idx[v] = int32(i)
		orig[i] = v
	}
	b := NewBuilder(len(vertices))
	for i, v := range vertices {
		for _, u := range g.adj[v] {
			if j, ok := idx[u]; ok && int32(i) < j {
				b.AddEdge(i, int(j))
			}
		}
	}
	return b.Build(), orig
}

// Eccentricity returns the greatest BFS distance from v to any vertex in
// its component.
func (g *Graph) Eccentricity(v int) int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[v] = 0
	queue := []int32{int32(v)}
	max := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[u] {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				if dist[w] > max {
					max = dist[w]
				}
				queue = append(queue, w)
			}
		}
	}
	return max
}

// Diameter returns the longest shortest path in the graph, or −1 if the
// graph is disconnected (the diameter is then infinite). The O(n·m)
// all-sources BFS is fine at experiment scale; the experiments use it to
// report how multi-hop each deployment is.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return 0
	}
	if !g.Connected() {
		return -1
	}
	max := 0
	for v := 0; v < g.n; v++ {
		if e := g.Eccentricity(v); e > max {
			max = e
		}
	}
	return max
}
