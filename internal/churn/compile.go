package churn

import (
	"fmt"
	"sort"

	"radiocolor/internal/geom"
	"radiocolor/internal/graph"
)

// Env is the concrete network a schedule compiles against.
type Env struct {
	// G is the base communication graph (required). For non-geometric
	// runs it is also the adjacency oracle: a joining node connects to
	// the present subset of its static neighbors.
	G *graph.Graph
	// Points holds node positions and Radius the unit-disk connection
	// radius. Both are required when the schedule has waypoints (and
	// then joins/leaves also re-derive neighborhoods geometrically, so
	// a node that moved keeps a consistent edge set when it rejoins).
	Points []geom.Point
	// Radius is the unit-disk connection radius (> 0 with Points).
	Radius float64
}

// Leave is one compiled departure. Final marks a leave with no later
// join: the node is gone for the rest of the run, so — exactly like a
// final crash — an undecided final leaver stops blocking termination.
type Leave struct {
	Node  int32
	Final bool
}

// Batch is the compiled topology change at one slot: presence flips
// plus the CSR edge delta they (and any mobility re-evaluation) imply.
// The engine applies batches single-threaded at slot start, which
// keeps churned runs bit-identical at any worker or tile count.
type Batch struct {
	// Slot is when the batch takes effect (at the start of the slot,
	// before fault events and wake-ups).
	Slot int64
	// Joins and Leaves are the presence flips, each sorted by node id
	// as compiled (Plan.Permute keeps the order).
	Joins  []int32
	Leaves []Leave
	// Delta is the edge change: departures' incident edges removed,
	// arrivals' edges to present nodes added, and movers' unit-disk
	// neighborhoods re-derived. Edges are unique and normalized
	// (min endpoint first, as compiled).
	Delta graph.Delta
}

// Plan is a compiled, immutable schedule. Apart from the engine's
// cursor over Batches, everything is precomputed.
type Plan struct {
	n int
	// InitialAbsent lists nodes absent at slot 0 (their first event is
	// a join); their incident base-graph edges are in InitialDelta's
	// removals. The engine applies both before the first slot.
	InitialAbsent []int32
	InitialDelta  graph.Delta
	// Batches is the slot-ordered change list.
	Batches []Batch
	// Repair is the conflict-repair mode.
	Repair RepairMode
	// Joins and Leaves are the total event counts (for reporting).
	Joins, Leaves int
}

// N returns the network size the plan was compiled for.
func (p *Plan) N() int { return p.n }

// MaxSlot returns the last slot at which the plan changes anything, or
// -1 for an empty plan. The engine keeps running through this slot
// even if every node has decided, so scheduled perturbations are never
// skipped by early termination.
func (p *Plan) MaxSlot() int64 {
	if len(p.Batches) == 0 {
		return -1
	}
	return p.Batches[len(p.Batches)-1].Slot
}

// FinalGraph replays the plan's full delta history over the base graph
// and returns the topology the run ends with. Verification oracles
// judge a churned run's coloring against this graph, not the base one:
// mobility and permanent departures mean the two can differ in both
// directions.
func (p *Plan) FinalGraph(base *graph.Graph) *graph.Graph {
	dyn := graph.NewDyn(base)
	dyn.Apply(p.InitialDelta, nil)
	for i := range p.Batches {
		dyn.Apply(p.Batches[i].Delta, nil)
	}
	return dyn.Graph()
}

// Permute returns a copy of the plan with every node reference mapped
// through forward (a relabeling's old→new map). Lists keep their order
// and edges their orientation, so an engine running the copy applies
// the original's events in the original's order — including the
// retract repair's scan over added edges and its tie to the second
// endpoint — and the relabeling moves nodes without changing the run.
// The tiled kernel's relabeling pass compiles in the caller's labels
// and permutes the plan with this.
func (p *Plan) Permute(forward []int32) *Plan {
	if p == nil {
		return nil
	}
	ids := func(vs []int32) []int32 {
		out := make([]int32, len(vs))
		for i, v := range vs {
			out[i] = forward[v]
		}
		return out
	}
	edges := func(es [][2]int32) [][2]int32 {
		out := make([][2]int32, len(es))
		for i, e := range es {
			out[i] = [2]int32{forward[e[0]], forward[e[1]]}
		}
		return out
	}
	delta := func(d graph.Delta) graph.Delta {
		return graph.Delta{Adds: edges(d.Adds), Dels: edges(d.Dels)}
	}
	out := *p
	out.InitialAbsent = ids(p.InitialAbsent)
	out.InitialDelta = delta(p.InitialDelta)
	out.Batches = make([]Batch, len(p.Batches))
	for i, b := range p.Batches {
		b.Joins = ids(b.Joins)
		b.Leaves = append([]Leave(nil), b.Leaves...)
		for j := range b.Leaves {
			b.Leaves[j].Node = forward[b.Leaves[j].Node]
		}
		b.Delta = delta(b.Delta)
		out.Batches[i] = b
	}
	return &out
}

// defaultEvery is the mobility evaluation cadence when Schedule.Every
// is unset.
const defaultEvery = 16

// Compile flattens the schedule into a Plan against the given
// environment. The compiler simulates presence and positions over the
// event timeline, maintaining the live edge set in a graph.Dyn, so
// batch deltas are exact (a leave removes precisely the edges the
// node currently has, including mobility-derived ones).
func (s *Schedule) Compile(env Env) (*Plan, error) {
	if env.G == nil {
		return nil, fmt.Errorf("churn: Compile needs a graph")
	}
	n := env.G.N()
	if err := s.Validate(n); err != nil {
		return nil, err
	}
	if !s.Active() {
		return nil, nil
	}
	geometric := env.Points != nil
	if geometric {
		if len(env.Points) != n {
			return nil, fmt.Errorf("churn: %d points for %d nodes", len(env.Points), n)
		}
		if env.Radius <= 0 {
			return nil, fmt.Errorf("churn: non-positive radius %g", env.Radius)
		}
	}
	if len(s.Waypoints) > 0 && !geometric {
		return nil, fmt.Errorf("churn: waypoint mobility needs node positions and a radius (use a geometric entry point)")
	}
	every := s.Every
	if every <= 0 {
		every = defaultEvery
	}

	c := &compiler{
		env:       env,
		n:         n,
		present:   make([]bool, n),
		dyn:       graph.NewDyn(env.G),
		geometric: geometric,
	}
	for v := range c.present {
		c.present[v] = true
	}
	if geometric {
		c.pos = append([]geom.Point(nil), env.Points...)
	}
	c.buildTracks(s.Waypoints)

	plan := &Plan{n: n, Repair: s.Repair, Joins: len(s.Joins), Leaves: len(s.Leaves)}

	// Initial absence: nodes whose first event is a join never held
	// their edges; remove them before slot 0.
	lastLeave := map[int]int64{} // node -> slot of last leave (for Final flags)
	firstEvent := map[int]struct {
		at   int64
		join bool
	}{}
	note := func(node int, at int64, join bool) {
		f, ok := firstEvent[node]
		if !ok || at < f.at {
			firstEvent[node] = struct {
				at   int64
				join bool
			}{at, join}
		}
	}
	for _, e := range s.Joins {
		note(e.Node, e.At, true)
	}
	for _, e := range s.Leaves {
		note(e.Node, e.At, false)
		if e.At > lastLeave[e.Node] {
			lastLeave[e.Node] = e.At
		}
	}
	lastJoin := map[int]int64{}
	for _, e := range s.Joins {
		if e.At > lastJoin[e.Node] {
			lastJoin[e.Node] = e.At
		}
	}
	var initDelta graph.Delta
	for v, f := range firstEvent {
		if f.join {
			c.present[v] = false
			plan.InitialAbsent = append(plan.InitialAbsent, int32(v))
			for _, u := range append([]int32(nil), c.dyn.Row(int32(v))...) {
				initDelta.Dels = append(initDelta.Dels, normEdge(int32(v), u))
			}
		}
	}
	sortInt32(plan.InitialAbsent)
	sortEdges(initDelta.Dels)
	c.dyn.Apply(initDelta, nil)
	plan.InitialDelta = initDelta

	// Timeline: the union of event slots and mobility evaluation ticks.
	slots := map[int64]bool{}
	for _, e := range s.Joins {
		slots[e.At] = true
	}
	for _, e := range s.Leaves {
		slots[e.At] = true
	}
	if len(c.tracks) > 0 {
		var lastAt int64
		for _, w := range s.Waypoints {
			if w.At > lastAt {
				lastAt = w.At
			}
		}
		for t := every; t <= lastAt; t += every {
			slots[t] = true
		}
		// One final tick at the last arrival so end positions are exact.
		slots[lastAt] = true
	}
	timeline := make([]int64, 0, len(slots))
	for t := range slots {
		timeline = append(timeline, t)
	}
	sort.Slice(timeline, func(a, b int) bool { return timeline[a] < timeline[b] })

	joinsAt := map[int64][]int32{}
	leavesAt := map[int64][]int32{}
	for _, e := range s.Joins {
		joinsAt[e.At] = append(joinsAt[e.At], int32(e.Node))
	}
	for _, e := range s.Leaves {
		leavesAt[e.At] = append(leavesAt[e.At], int32(e.Node))
	}

	for _, t := range timeline {
		b := Batch{Slot: t}
		seen := map[[2]int32]bool{}
		addEdge := func(e [2]int32, add bool) {
			if seen[e] {
				return
			}
			seen[e] = true
			if add {
				b.Delta.Adds = append(b.Delta.Adds, e)
			} else {
				b.Delta.Dels = append(b.Delta.Dels, e)
			}
		}

		// Leaves first: a simultaneous leave+join at one slot is
		// rejected by Validate, but a leaver's edges must not survive
		// into a joiner's neighborhood computation.
		lv := leavesAt[t]
		sortInt32(lv)
		for _, v := range lv {
			c.present[v] = false
			final := lastLeave[int(v)] == t && lastJoin[int(v)] < t
			b.Leaves = append(b.Leaves, Leave{Node: v, Final: final})
			for _, u := range c.dyn.Row(v) {
				addEdge(normEdge(v, u), false)
			}
		}

		// Mobility: advance positions, then re-derive each active
		// mover's neighborhood among present nodes.
		movers := c.advance(t)

		// Joins: connect to the present subset (geometric rule at
		// current positions, or the static row otherwise).
		jn := joinsAt[t]
		sortInt32(jn)
		for _, v := range jn {
			c.present[v] = true
			if c.geometric {
				for _, u := range c.inRange(v) {
					addEdge(normEdge(v, u), true)
				}
			} else {
				for _, u := range env.G.Adj(int(v)) {
					if c.present[u] {
						addEdge(normEdge(v, u), true)
					}
				}
			}
		}

		for _, v := range movers {
			if !c.present[v] {
				continue // an absent mover reconnects when it rejoins
			}
			want := c.inRange(v)
			have := c.dyn.Row(v)
			// Merge-diff two sorted lists.
			i, j := 0, 0
			for i < len(want) || j < len(have) {
				switch {
				case j >= len(have) || (i < len(want) && want[i] < have[j]):
					addEdge(normEdge(v, want[i]), true)
					i++
				case i >= len(want) || want[i] > have[j]:
					addEdge(normEdge(v, have[j]), false)
					j++
				default:
					i++
					j++
				}
			}
		}

		if len(jn) == 0 && len(lv) == 0 && b.Delta.Empty() {
			continue // a mobility tick that moved nobody's edges
		}
		b.Joins = jn
		sortEdges(b.Delta.Adds)
		sortEdges(b.Delta.Dels)
		c.dyn.Apply(b.Delta, nil)
		plan.Batches = append(plan.Batches, b)
	}
	if len(plan.Batches) == 0 && len(plan.InitialAbsent) == 0 {
		return nil, nil
	}
	return plan, nil
}

// compiler is Compile's working state.
type compiler struct {
	env       Env
	n         int
	present   []bool
	dyn       *graph.Dyn
	geometric bool
	pos       []geom.Point
	tracks    map[int32][]Waypoint // per-node waypoints, slot-ordered
	trackIDs  []int32              // sorted track keys (deterministic iteration)
}

func (c *compiler) buildTracks(ws []Waypoint) {
	c.tracks = map[int32][]Waypoint{}
	for _, w := range ws {
		v := int32(w.Node)
		c.tracks[v] = append(c.tracks[v], w)
	}
	for v, track := range c.tracks {
		sort.Slice(track, func(a, b int) bool { return track[a].At < track[b].At })
		c.tracks[v] = track
		c.trackIDs = append(c.trackIDs, v)
	}
	sortInt32(c.trackIDs)
}

// advance moves every tracked node to its position at slot t and
// returns the sorted ids of nodes whose position changed since the
// previous evaluation.
func (c *compiler) advance(t int64) []int32 {
	var movers []int32
	for _, v := range c.trackIDs {
		p := c.positionAt(v, t)
		if p != c.pos[v] {
			c.pos[v] = p
			movers = append(movers, v)
		}
	}
	return movers
}

// positionAt interpolates node v's position at slot t along its track.
func (c *compiler) positionAt(v int32, t int64) geom.Point {
	track := c.tracks[v]
	prev := c.env.Points[v]
	prevAt := int64(0)
	for _, w := range track {
		target := geom.Point{X: w.X, Y: w.Y}
		if t >= w.At {
			prev, prevAt = target, w.At
			continue
		}
		if w.At == prevAt {
			return target
		}
		frac := float64(t-prevAt) / float64(w.At-prevAt)
		return geom.Point{
			X: prev.X + (target.X-prev.X)*frac,
			Y: prev.Y + (target.Y-prev.Y)*frac,
		}
	}
	return prev
}

// inRange returns the sorted present nodes within the unit-disk radius
// of v at current positions, excluding v itself. O(n) per call; the
// compiler runs offline, before the slot loop.
func (c *compiler) inRange(v int32) []int32 {
	var out []int32
	r2 := c.env.Radius * c.env.Radius
	pv := c.pos[v]
	for u := 0; u < c.n; u++ {
		if int32(u) == v || !c.present[u] {
			continue
		}
		if pv.Dist2(c.pos[u]) <= r2 {
			out = append(out, int32(u))
		}
	}
	return out
}

// normEdge normalizes an undirected edge to (min, max).
func normEdge(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

func sortInt32(ids []int32) {
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
}

func sortEdges(es [][2]int32) {
	sort.Slice(es, func(a, b int) bool {
		if es[a][0] != es[b][0] {
			return es[a][0] < es[b][0]
		}
		return es[a][1] < es[b][1]
	})
}
