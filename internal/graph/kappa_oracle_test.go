package graph

import "math/bits"

// A reference κ solver, the test oracle for indep.go: the same greedy
// seed, domination rule, branching order and budget accounting, written
// plainly (an Induced subgraph per neighborhood, closure-walked bitsets,
// two fresh sets per search node, an O(k²) greedy) and without the
// clique-cover bound. The solver must match it wherever it completes and
// may only do better where its budget runs out.

// bitset is a fixed-capacity set of small integers backed by words.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

// andNot returns a fresh b &^ mask.
func (b bitset) andNot(mask bitset) bitset {
	c := make(bitset, len(b))
	for i := range b {
		c[i] = b[i] &^ mask[i]
	}
	return c
}

func (b bitset) count() int {
	total := 0
	for _, w := range b {
		total += bits.OnesCount64(w)
	}
	return total
}

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// forEach calls fn for every member, in increasing order.
func (b bitset) forEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			fn(i)
			w &= w - 1
		}
	}
}

// intersectCount returns |b ∩ mask|.
func (b bitset) intersectCount(mask bitset) int {
	total := 0
	for i := range b {
		total += bits.OnesCount64(b[i] & mask[i])
	}
	return total
}

// oracleGreedyMIS is the O(n²) minimum-degree greedy.
func oracleGreedyMIS(g *Graph) []int32 {
	alive := make([]bool, g.n)
	deg := make([]int, g.n)
	remaining := g.n
	for v := 0; v < g.n; v++ {
		alive[v] = true
		deg[v] = len(g.adj[v])
	}
	var out []int32
	for remaining > 0 {
		best, bestDeg := -1, g.n+1
		for v := 0; v < g.n; v++ {
			if alive[v] && deg[v] < bestDeg {
				best, bestDeg = v, deg[v]
			}
		}
		out = append(out, int32(best))
		kill := []int32{int32(best)}
		for _, u := range g.adj[best] {
			if alive[u] {
				kill = append(kill, u)
			}
		}
		for _, v := range kill {
			if !alive[v] {
				continue
			}
			alive[v] = false
			remaining--
			for _, u := range g.adj[v] {
				if alive[u] {
					deg[u]--
				}
			}
		}
	}
	return out
}

type oracleSolver struct {
	adj    []bitset
	best   int
	budget int
	exact  bool
}

func oracleMaxIndependentSetSize(g *Graph, budget int) (size int, exact bool) {
	if budget <= 0 {
		budget = 2_000_000
	}
	adj := make([]bitset, g.n)
	for v := 0; v < g.n; v++ {
		adj[v] = newBitset(g.n)
		for _, u := range g.adj[v] {
			adj[v].set(int(u))
		}
	}
	s := &oracleSolver{adj: adj, budget: budget, exact: true}
	avail := newBitset(g.n)
	for v := 0; v < g.n; v++ {
		avail.set(v)
	}
	s.best = len(oracleGreedyMIS(g))
	s.search(avail, 0)
	return s.best, s.exact
}

func (s *oracleSolver) search(avail bitset, current int) {
	if s.budget <= 0 {
		s.exact = false
		return
	}
	s.budget--
	for {
		progress := false
		done := false
		avail.forEach(func(v int) {
			if done {
				return
			}
			d := s.adj[v].intersectCount(avail)
			if d == 0 {
				current++
				avail.clear(v)
				progress = true
				return
			}
			if d == 1 {
				current++
				avail = avail.andNot(s.adj[v])
				avail.clear(v)
				progress = true
				done = true
			}
		})
		if !progress {
			break
		}
	}
	if current > s.best {
		s.best = current
	}
	rem := avail.count()
	if rem == 0 || current+rem <= s.best {
		return
	}
	pick, pickDeg := -1, -1
	avail.forEach(func(v int) {
		if d := s.adj[v].intersectCount(avail); d > pickDeg {
			pick, pickDeg = v, d
		}
	})
	in := avail.andNot(s.adj[pick])
	in.clear(pick)
	s.search(in, current+1)
	ex := avail.clone()
	ex.clear(pick)
	s.search(ex, current)
}

func oracleKappa(g *Graph, opts KappaOptions) KappaResult {
	res := KappaResult{Exact: true}
	mis := func(vertices []int32) (int, bool) {
		sub, _ := g.Induced(vertices)
		if opts.MaxNeighborhood > 0 && sub.N() > opts.MaxNeighborhood {
			return len(oracleGreedyMIS(sub)), false
		}
		return oracleMaxIndependentSetSize(sub, opts.Budget)
	}
	for v := 0; v < g.n; v++ {
		k1, e1 := mis(g.Neighborhood(v))
		res.K1 = max(res.K1, k1)
		k2, e2 := mis(g.TwoHop(v))
		res.K2 = max(res.K2, k2)
		res.Exact = res.Exact && e1 && e2
	}
	return res
}
