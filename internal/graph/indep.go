package graph

import (
	"context"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// This file implements the independence machinery behind the bounded
// independence graph (BIG) model of Sect. 2: exact and approximate
// maximum-independent-set computations restricted to 1-hop and 2-hop
// neighborhoods, yielding the parameters κ₁ and κ₂ that drive both the
// algorithm (sending probabilities, color spacing) and the analysis.
//
// Every computation runs on a misScratch, which gathers a vertex set,
// writes its induced rows into word bitsets and searches them without
// allocating once its buffers have grown (DESIGN.md § Measuring κ).

// IsIndependent reports whether the given vertex set is pairwise
// non-adjacent in g. Duplicate entries are tolerated (a set semantics
// check); a vertex is never considered adjacent to itself.
func (g *Graph) IsIndependent(set []int32) bool {
	member := make(map[int32]bool, len(set))
	for _, v := range set {
		member[v] = true
	}
	for v := range member {
		for _, u := range g.adj[v] {
			if member[u] {
				return false
			}
		}
	}
	return true
}

// GreedyMIS returns a maximal independent set of g computed by the
// minimum-degree greedy heuristic: repeatedly take a remaining vertex of
// minimum remaining degree (the lowest-numbered on ties) and discard its
// neighbors. The result is maximal (no vertex can be added) and
// therefore a lower bound on the maximum independent set and at least
// (n / Δ) in size.
func (g *Graph) GreedyMIS() []int32 {
	s := newMISScratch(g)
	s.gatherAll()
	s.sparseGreedy()
	out := make([]int32, len(s.picked))
	for i, x := range s.picked {
		out[i] = s.verts[x]
	}
	return out
}

// defaultMISBudget is the per-search node budget when the caller passes
// none.
const defaultMISBudget = 2_000_000

// MaxIndependentSetSize computes the size of a maximum independent set of
// g by branch-and-bound, exploring at most budget search nodes (≤ 0 means
// a generous default). It returns the best size found and whether the
// search completed (and the value is therefore exact).
func (g *Graph) MaxIndependentSetSize(budget int) (size int, exact bool) {
	s := newMISScratch(g)
	s.gatherAll()
	return s.solve(budget)
}

// KappaOptions configures κ measurement.
type KappaOptions struct {
	// Budget caps branch-and-bound nodes per neighborhood (≤ 0: default).
	Budget int
	// MaxNeighborhood skips exact search for neighborhoods larger than
	// this many vertices and uses the greedy lower bound instead
	// (≤ 0: no limit).
	MaxNeighborhood int
}

// KappaResult reports measured bounded-independence parameters.
type KappaResult struct {
	// K1 and K2 are the measured κ₁ and κ₂: the largest independent set
	// found in any 1-hop / 2-hop neighborhood.
	K1, K2 int
	// Exact reports whether every neighborhood was solved exactly; when
	// false, K1/K2 are lower bounds.
	Exact bool
}

// merge folds another worker's result into r.
func (r *KappaResult) merge(o KappaResult) {
	r.K1 = max(r.K1, o.K1)
	r.K2 = max(r.K2, o.K2)
	r.Exact = r.Exact && o.Exact
}

// Kappa measures κ₁ and κ₂ of g: the maximum, over all vertices v, of
// the maximum independent set size within N(v) and N²(v) respectively
// (Sect. 2). For typical wireless topologies the neighborhoods are small
// and dense and the exact search completes instantly; pathological cases
// degrade gracefully to greedy lower bounds via the options.
func (g *Graph) Kappa(opts KappaOptions) KappaResult {
	k, _ := g.KappaContext(context.Background(), opts)
	return k
}

// kappaChunk is the number of vertices a worker claims at a time; a
// worker polls the context every kappaPoll chunks (about 1k vertices).
const (
	kappaChunk = 64
	kappaPoll  = 16
)

// KappaContext is Kappa with cancellation: it returns ctx.Err() (and a
// zero result) if ctx is done before every neighborhood is measured.
//
// The vertices are split over min(GOMAXPROCS, n/64) workers, each with
// its own scratch. Every neighborhood is searched on its own budget and
// greedy seed, and the workers' results merge by max and AND, so the
// result does not depend on the worker count or on scheduling.
func (g *Graph) KappaContext(ctx context.Context, opts KappaOptions) (KappaResult, error) {
	workers := max(1, min(runtime.GOMAXPROCS(0), g.n/kappaChunk))
	chunks := (g.n + kappaChunk - 1) / kappaChunk
	var next atomic.Int64
	var stop atomic.Bool
	results := make([]KappaResult, workers)
	work := func(w int) {
		s := newMISScratch(g)
		res := KappaResult{Exact: true}
		for polled := 0; ; polled++ {
			if polled%kappaPoll == 0 && ctx.Err() != nil {
				stop.Store(true)
			}
			c := int(next.Add(1) - 1)
			if c >= chunks || stop.Load() {
				break
			}
			for v := c * kappaChunk; v < min(g.n, (c+1)*kappaChunk); v++ {
				s.gatherNeighborhood(v)
				k1, e1 := s.measure(opts)
				s.gatherTwoHop(v)
				k2, e2 := s.measure(opts)
				res.merge(KappaResult{K1: k1, K2: k2, Exact: e1 && e2})
			}
		}
		results[w] = res
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()
	if stop.Load() {
		return KappaResult{}, ctx.Err()
	}
	res := KappaResult{Exact: true}
	for _, r := range results {
		res.merge(r)
	}
	return res, nil
}

// measure sizes the largest independent set in the gathered
// neighborhood, exactly up to the size cap and by the greedy lower
// bound above it, and releases the neighborhood.
func (s *misScratch) measure(opts KappaOptions) (size int, exact bool) {
	if opts.MaxNeighborhood > 0 && len(s.verts) > opts.MaxNeighborhood {
		size = s.sparseGreedy()
	} else {
		size, exact = s.solve(opts.Budget)
	}
	s.release()
	return size, exact
}

// misScratch is one worker's reusable state for measuring independence
// on gathered vertex sets of g. Local index i stands for graph vertex
// verts[i]; pos maps back (−1 for vertices not gathered).
type misScratch struct {
	g     *Graph
	pos   []int32
	verts []int32

	// Dense search state: rows[i*words:(i+1)*words] is local vertex i's
	// induced neighbor set; stack holds one avail set per search depth;
	// cover and cand are the clique-cover bound's working sets.
	words       int
	rows        []uint64
	stack       []uint64
	cover, cand []uint64
	best        int
	budget      int
	exact       bool

	// Sparse greedy state: remaining degree per local vertex (−1 once
	// removed), a lazy min-heap of (degree, index) keys, and the picks.
	deg    []int32
	heap   []uint64
	picked []int32
}

func newMISScratch(g *Graph) *misScratch {
	pos := make([]int32, g.n)
	for i := range pos {
		pos[i] = -1
	}
	return &misScratch{g: g, pos: pos}
}

// index numbers the gathered vertices, which must be sorted ascending.
func (s *misScratch) index() {
	for i, x := range s.verts {
		s.pos[x] = int32(i)
	}
}

// release un-numbers the gathered vertices.
func (s *misScratch) release() {
	for _, x := range s.verts {
		s.pos[x] = -1
	}
	s.verts = s.verts[:0]
}

// gatherAll gathers every vertex of g.
func (s *misScratch) gatherAll() {
	s.verts = s.verts[:0]
	for v := 0; v < s.g.n; v++ {
		s.verts = append(s.verts, int32(v))
	}
	s.index()
}

// gatherNeighborhood gathers N(v), sorted.
func (s *misScratch) gatherNeighborhood(v int) {
	row := s.g.adj[v]
	at, _ := slices.BinarySearch(row, int32(v))
	s.verts = append(append(append(s.verts[:0], row[:at]...), int32(v)), row[at:]...)
	s.index()
}

// gatherTwoHop gathers N²(v), sorted; pos doubles as the seen-stamp
// while collecting.
func (s *misScratch) gatherTwoHop(v int) {
	s.verts = append(s.verts[:0], int32(v))
	s.pos[v] = 0
	for _, u := range s.g.adj[v] {
		if s.pos[u] < 0 {
			s.pos[u] = 0
			s.verts = append(s.verts, u)
		}
		for _, w := range s.g.adj[u] {
			if s.pos[w] < 0 {
				s.pos[w] = 0
				s.verts = append(s.verts, w)
			}
		}
	}
	slices.Sort(s.verts)
	s.index()
}

// solve runs the exact branch-and-bound on the gathered vertices,
// seeded by the greedy bound, within budget search nodes (≤ 0: the
// default). It returns the best size found and whether the search
// completed.
func (s *misScratch) solve(budget int) (int, bool) {
	k := len(s.verts)
	if budget <= 0 {
		budget = defaultMISBudget
	}
	w := (k + 63) / 64
	s.words = w
	s.rows = grow(s.rows, k*w)
	for i, x := range s.verts {
		row := s.row(i)
		for _, y := range s.g.adj[x] {
			if j := s.pos[y]; j >= 0 {
				row[j/64] |= 1 << (j % 64)
			}
		}
	}
	// The search never nests deeper than one include per vertex.
	s.stack = grow(s.stack, (k+1)*w)
	s.cover = grow(s.cover, w)
	s.cand = grow(s.cand, w)
	avail := s.stack[:w]
	for i := 0; i < k; i++ {
		avail[i/64] |= 1 << (i % 64)
	}
	s.best = s.denseGreedy()
	s.budget, s.exact = budget, true
	s.search(0, 0)
	return s.best, s.exact
}

// grow returns buf resized to n zeroed words, reusing its storage.
func grow(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// row returns local vertex i's induced neighbor set.
func (s *misScratch) row(i int) []uint64 { return s.rows[i*s.words : (i+1)*s.words] }

// degreeIn returns |N(i) ∩ set|.
func (s *misScratch) degreeIn(i int, set []uint64) int {
	d := 0
	for j, w := range s.row(i) {
		d += bits.OnesCount64(w & set[j])
	}
	return d
}

func count(set []uint64) int {
	c := 0
	for _, w := range set {
		c += bits.OnesCount64(w)
	}
	return c
}

// lowest returns the smallest member of set, or −1 if it is empty.
func lowest(set []uint64) int {
	for j, w := range set {
		if w != 0 {
			return j*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// denseGreedy is the minimum-degree greedy bound on the dense rows,
// using stack[w:2w] as its alive set.
func (s *misScratch) denseGreedy() int {
	w := s.words
	alive := s.stack[w : 2*w]
	copy(alive, s.stack[:w])
	size := 0
	for {
		pick, pickDeg := -1, 0
		for j, word := range alive {
			for ; word != 0; word &= word - 1 {
				i := j*64 + bits.TrailingZeros64(word)
				if d := s.degreeIn(i, alive); pick < 0 || d < pickDeg {
					pick, pickDeg = i, d
				}
			}
		}
		if pick < 0 {
			clear(alive)
			return size
		}
		size++
		for j, r := range s.row(pick) {
			alive[j] &^= r
		}
		alive[pick/64] &^= 1 << (pick % 64)
	}
}

// search explores the subtree whose candidate set is stack level depth,
// with current vertices already taken. Branching excludes in place: the
// include child gets level depth+1, and the exclude child reuses this
// level as the loop's next iteration.
func (s *misScratch) search(depth, current int) {
	w := s.words
	avail := s.stack[depth*w : (depth+1)*w]
	for {
		if s.budget <= 0 {
			s.exact = false
			return
		}
		s.budget--
		current += s.absorbDominated(avail)
		if current > s.best {
			s.best = current
		}
		rem := count(avail)
		if rem == 0 || current+rem <= s.best || current+s.cliqueCover(avail, s.best-current) <= s.best {
			return
		}
		// Branch on a vertex of maximum remaining degree.
		pick, pickDeg := -1, -1
		for j, word := range avail {
			for ; word != 0; word &= word - 1 {
				i := j*64 + bits.TrailingZeros64(word)
				if d := s.degreeIn(i, avail); d > pickDeg {
					pick, pickDeg = i, d
				}
			}
		}
		// Include pick: drop its closed neighborhood.
		in := s.stack[(depth+1)*w : (depth+2)*w]
		for j, r := range s.row(pick) {
			in[j] = avail[j] &^ r
		}
		in[pick/64] &^= 1 << (pick % 64)
		s.search(depth+1, current+1)
		// Exclude pick.
		avail[pick/64] &^= 1 << (pick % 64)
	}
}

// absorbDominated takes every vertex of remaining degree ≤ 1 — taking
// it is at least as good as any alternative — and returns how many it
// took. It scans in ascending order and starts over after each
// degree-1 take, whose removed neighbor can lower earlier degrees.
func (s *misScratch) absorbDominated(avail []uint64) int {
	taken := 0
	for restart := true; restart; {
		restart = false
	scan:
		for j := range avail {
			for word := avail[j]; word != 0; word &= word - 1 {
				i := j*64 + bits.TrailingZeros64(word)
				switch s.degreeIn(i, avail) {
				case 0:
					taken++
					avail[j] &^= 1 << (i % 64)
				case 1:
					taken++
					for k, r := range s.row(i) {
						avail[k] &^= r
					}
					avail[j] &^= 1 << (i % 64)
					restart = true
					break scan
				}
			}
		}
	}
	return taken
}

// cliqueCover partitions avail into cliques, each grown greedily from
// the lowest uncovered vertex, and returns their number: an upper bound
// on any independent set within avail. Counting stops once it exceeds
// limit, where the bound can no longer prune.
func (s *misScratch) cliqueCover(avail []uint64, limit int) int {
	left, cand := s.cover, s.cand
	copy(left, avail)
	cliques := 0
	for v := lowest(left); v >= 0; v = lowest(left) {
		if cliques++; cliques > limit {
			return cliques
		}
		left[v/64] &^= 1 << (v % 64)
		for j, r := range s.row(v) {
			cand[j] = left[j] & r
		}
		for u := lowest(cand); u >= 0; u = lowest(cand) {
			left[u/64] &^= 1 << (u % 64)
			for j, r := range s.row(u) {
				cand[j] &= r
			}
		}
	}
	return cliques
}

// sparseGreedy is the minimum-degree greedy bound (ties to the lowest
// index) computed from g's adjacency through pos, with no dense rows:
// the form for neighborhoods too large to search. The picks are left in
// s.picked as local indices.
func (s *misScratch) sparseGreedy() int {
	k := len(s.verts)
	s.deg = slices.Grow(s.deg[:0], k)[:k]
	s.heap = s.heap[:0]
	s.picked = s.picked[:0]
	for i, x := range s.verts {
		d := int32(0)
		for _, y := range s.g.adj[x] {
			if s.pos[y] >= 0 {
				d++
			}
		}
		s.deg[i] = d
		s.heap = append(s.heap, uint64(d)<<32|uint64(i))
	}
	heapify(s.heap)
	// remove marks local vertex i removed and lowers its live
	// neighbors' degrees, queueing their new keys.
	remove := func(i int32) {
		s.deg[i] = -1
		for _, y := range s.g.adj[s.verts[i]] {
			if j := s.pos[y]; j >= 0 && s.deg[j] >= 0 {
				s.deg[j]--
				s.heap = heapPush(s.heap, uint64(s.deg[j])<<32|uint64(j))
			}
		}
	}
	for len(s.heap) > 0 {
		var key uint64
		key, s.heap = heapPop(s.heap)
		i := int32(key)
		if s.deg[i] != int32(key>>32) {
			continue // removed, or a stale degree
		}
		s.picked = append(s.picked, i)
		remove(i)
		for _, y := range s.g.adj[s.verts[i]] {
			if j := s.pos[y]; j >= 0 && s.deg[j] >= 0 {
				remove(j)
			}
		}
	}
	return len(s.picked)
}

// heapify, heapPush and heapPop keep a binary min-heap of uint64 keys.
func heapify(h []uint64) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

func heapPush(h []uint64, key uint64) []uint64 {
	h = append(h, key)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []uint64) (uint64, []uint64) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	siftDown(h, 0)
	return top, h
}

func siftDown(h []uint64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
