// Package radiocolor is the public API of the reproduction of
// Moscibroda & Wattenhofer, "Coloring unstructured radio networks"
// (SPAA 2005 / Distributed Computing 2008).
//
// It colors the vertices of a wireless multi-hop network from scratch in
// the unstructured radio network model — single channel, no collision
// detection, asynchronous wake-up, only rough estimates of the network
// size and maximum degree — using O(Δ) colors in O(κ₂⁴ Δ log n) time
// slots with high probability.
//
// The simplest entry points are ColorGraph (arbitrary adjacency) and
// ColorUnitDisk (geometric placement):
//
//	adj := [][]int{{1}, {0, 2}, {1}} // path 0-1-2
//	out, err := radiocolor.ColorGraph(adj, radiocolor.Options{})
//	if err != nil { ... }
//	fmt.Println(out.Colors) // e.g. [1 0 4]
//
// The internal packages expose every layer for research use: the radio
// model simulator (internal/radio), the protocol state machine
// (internal/core), topology generators (internal/topology), baselines,
// verification oracles, and the experiment suite E1–E12.
package radiocolor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"radiocolor/internal/churn"
	"radiocolor/internal/core"
	"radiocolor/internal/fault"
	"radiocolor/internal/geom"
	"radiocolor/internal/graph"
	"radiocolor/internal/medium"
	"radiocolor/internal/obs"
	"radiocolor/internal/radio"
	"radiocolor/internal/sched"
	"radiocolor/internal/topology"
	"radiocolor/internal/verify"
)

// Outcome reports a completed coloring run.
type Outcome struct {
	// Colors holds the final color of every node (all ≥ 0 when
	// Complete).
	Colors []int
	// Leaders lists the nodes that elected themselves cluster leaders
	// (color 0); they form a maximal independent set.
	Leaders []int
	// Proper is true when no two adjacent nodes share a color
	// (Theorem 2) and Complete when every node decided (Theorem 5).
	Proper, Complete bool
	// NumColors and MaxColor describe the palette actually used; the
	// paper bounds MaxColor by O(κ₂·Δ).
	NumColors, MaxColor int
	// Slots is the total simulated time; MaxLatency is max_v T_v, the
	// slots between a node's wake-up and its irrevocable decision
	// (Theorem 3 bounds it by O(κ₂⁴ Δ log n)).
	Slots, MaxLatency int64
	// PerNodeLatency holds each node's T_v.
	PerNodeLatency []int64
	// Delta, Kappa1 and Kappa2 are the measured graph parameters used
	// to instantiate the protocol.
	Delta, Kappa1, Kappa2 int
	// MaxMessageBits is the largest message payload observed; the model
	// requires O(log n).
	MaxMessageBits int
	// Stats snapshots the run's channel behavior (collision rate,
	// per-phase timeline, throughput). Nil unless Options.Metrics was
	// set.
	Stats *Stats
	// Faults reports the injected fault events and the
	// graceful-degradation verdict. Nil unless Options.Faults was set.
	Faults *FaultOutcome
	// Churn reports the applied topology changes and the
	// proper-coloring verdict over the nodes still present. Nil unless
	// Options.Churn was set.
	Churn *ChurnOutcome

	g *graph.Graph
}

// OK reports a complete and proper coloring.
func (o *Outcome) OK() bool { return o.Proper && o.Complete }

// TDMA derives the periodic transmission schedule the paper's
// introduction motivates: node v owns slot Colors[v] of every frame.
func (o *Outcome) TDMA() (*TDMASchedule, error) {
	if !o.OK() {
		return nil, errors.New("radiocolor: cannot schedule an incomplete or improper coloring")
	}
	colors := make([]int32, len(o.Colors))
	for i, c := range o.Colors {
		colors[i] = int32(c)
	}
	s, err := sched.FromColoring(colors)
	if err != nil {
		return nil, err
	}
	frame := s.SimulateFrame(o.g)
	local := s.LocalFrameLen(o.g)
	t := &TDMASchedule{
		FrameLen:        int(s.FrameLen),
		Slots:           append([]int(nil), o.Colors...),
		MaxInterferers:  s.MaxInterferers(o.g),
		SuccessRate:     frame.SuccessRate(),
		LocalFrameLens:  make([]int, len(local)),
		DirectConflicts: len(s.DirectConflicts(o.g)),
	}
	for i, l := range local {
		t.LocalFrameLens[i] = int(l)
	}
	return t, nil
}

// TDMASchedule is the MAC schedule derived from a coloring.
type TDMASchedule struct {
	// FrameLen is the global frame length (max color + 1).
	FrameLen int
	// Slots assigns each node its transmission slot.
	Slots []int
	// DirectConflicts counts adjacent same-slot pairs (0 for proper
	// colorings — no direct interference).
	DirectConflicts int
	// MaxInterferers is the worst hidden-terminal exposure: at most κ₁
	// same-slot senders can disturb any receiver.
	MaxInterferers int
	// SuccessRate is the fraction of clean receptions in one simulated
	// frame in which every node transmits once.
	SuccessRate float64
	// LocalFrameLens gives each node the frame length its 2-hop
	// neighborhood actually needs — the locality dividend of Theorem 4.
	LocalFrameLens []int
}

// ColorGraph runs the full protocol on an arbitrary undirected graph
// given as adjacency lists (adj[v] lists the neighbors of v; symmetry is
// enforced, self-loops rejected).
func ColorGraph(adj [][]int, opt Options) (*Outcome, error) {
	return ColorGraphContext(context.Background(), adj, opt)
}

// ColorGraphContext is ColorGraph with cancellation: the κ measurement
// polls ctx about every thousand nodes and the simulation about every
// thousand slots, and either returns ctx.Err() once it fired. Long runs
// on large graphs can take minutes, so interactive callers should
// prefer this entry point.
func ColorGraphContext(ctx context.Context, adj [][]int, opt Options) (*Outcome, error) {
	b := graph.NewBuilder(len(adj))
	for v, ns := range adj {
		for _, u := range ns {
			if u == v {
				return nil, fmt.Errorf("radiocolor: self-loop at node %d", v)
			}
			if u < 0 || u >= len(adj) {
				return nil, fmt.Errorf("radiocolor: node %d lists out-of-range neighbor %d", v, u)
			}
			b.AddEdge(v, u)
		}
	}
	return colorGraph(ctx, b.Build(), nil, 0, opt)
}

// ColorUnitDisk places the given points in the plane, connects pairs
// within the transmission radius (the unit disk model of Corollary 2)
// and runs the full protocol.
func ColorUnitDisk(points [][2]float64, radius float64, opt Options) (*Outcome, error) {
	return ColorUnitDiskContext(context.Background(), points, radius, opt)
}

// ColorUnitDiskContext is ColorUnitDisk with cancellation, analogous to
// ColorGraphContext.
func ColorUnitDiskContext(ctx context.Context, points [][2]float64, radius float64, opt Options) (*Outcome, error) {
	if !(radius > 0) {
		return nil, errors.New("radiocolor: non-positive radius")
	}
	pts := make([]geom.Point, len(points))
	for i, p := range points {
		if math.IsNaN(p[0]) || math.IsNaN(p[1]) || math.IsInf(p[0], 0) || math.IsInf(p[1], 0) {
			return nil, &PointError{Index: i, Point: p}
		}
		pts[i] = geom.Point{X: p[0], Y: p[1]}
	}
	return colorGraph(ctx, topology.UnitDisk(pts, radius), pts, radius, opt)
}

// PointError reports a point ColorUnitDisk cannot place: a coordinate
// that is NaN or infinite.
type PointError struct {
	Index int
	Point [2]float64
}

// Error implements error.
func (e *PointError) Error() string {
	return fmt.Sprintf("radiocolor: point %d (%g, %g) has a non-finite coordinate", e.Index, e.Point[0], e.Point[1])
}

// colorGraph runs the protocol on the built graph. pts carries the
// nodes' positions when the caller came through a geometric entry point
// (nil otherwise, with radius 0); geometric media (SINR) and churn
// mobility require them.
func colorGraph(ctx context.Context, g *graph.Graph, pts []geom.Point, radius float64, opt Options) (*Outcome, error) {
	// Validation precedes the graph parameter measurement below: Kappa
	// alone can burn its full search budget before a typo'd option
	// would surface.
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.normalized()
	if g.N() == 0 {
		return nil, errors.New("radiocolor: empty graph")
	}
	if pts == nil {
		// The options that need positions fail before the κ pass too.
		if c := opt.Churn; c != nil && len(c.Waypoints) > 0 {
			return nil, errors.New("radiocolor: churn mobility needs node positions; use ColorUnitDisk (or the points job input)")
		}
		if m := opt.Medium; m != nil && m.spec().Kind == medium.KindSINR {
			return nil, errors.New("radiocolor: a sinr medium needs node positions; use ColorUnitDisk (or the points job input)")
		}
	}
	wk, _ := opt.wakeup() // validated above
	var delta, k1, k2 int
	if m := opt.Measured; m != nil {
		delta, k1, k2 = m.Delta, m.Kappa1, m.Kappa2
	} else {
		delta = g.MaxDegree()
		k, err := g.KappaContext(ctx, graph.KappaOptions{Budget: 150_000, MaxNeighborhood: 140})
		if err != nil {
			return nil, err
		}
		k1, k2 = k.K1, k.K2
	}
	par := core.Practical(g.N(), delta, k1, k2).Scale(opt.ParamScale)
	if err := par.Validate(); err != nil {
		// A ParamScale that passed Validate can still push a slot count
		// past 2^62 once this graph's n and Δ enter.
		return nil, fmt.Errorf("radiocolor: protocol parameters (ParamScale %g): %w", opt.ParamScale, err)
	}

	var wake []int64
	for _, p := range radio.WakePatterns {
		if p.Name == wk.String() {
			wake = p.Make(g.N(), par.WaitSlots(), opt.Seed)
		}
	}
	if wake == nil {
		return nil, fmt.Errorf("radiocolor: unknown wakeup pattern %q", wk)
	}
	budget := opt.MaxSlots
	if budget <= 0 {
		budget = max(par.SlotBudget(), 1_000_000)
	}

	// The tiled kernel (Options.Tiling) partitions engine slots into
	// contiguous blocks, so a tiled run first stores the nodes along the
	// shared locality pass (internal/graph): caller node v runs in
	// engine slot Forward[v]. Everything that makes a node itself — its
	// wire id, random stream, wake slot, fault coins and churn events —
	// stays keyed on the caller's label v, and everything the caller
	// sees is mapped back through the inverse permutation, so tiling
	// changes speed, never the result. Media and clock skew never
	// relabel: a medium or the half-slot rule resolves each slot in one
	// pass over all transmitters, so locality buys them nothing, and
	// those runs keep the caller's order.
	runG := g
	var tilePerm *graph.Permutation
	if opt.Tiling != 0 && opt.Tiling != 1 && opt.Medium == nil &&
		(opt.Faults == nil || opt.Faults.SkewProb == 0) {
		var xs, ys []float64
		if pts != nil {
			xs = make([]float64, len(pts))
			ys = make([]float64, len(pts))
			for i, pt := range pts {
				xs[i], ys[i] = pt.X, pt.Y
			}
		}
		p := tilingPermutation(g, xs, ys)
		runG = p.Apply(g)
		tilePerm = &p
		wakeT := make([]int64, g.N())
		for v, s := range wake {
			wakeT[p.Forward[v]] = s
		}
		wake = wakeT
	}

	// Observability: assemble the collectors the options ask for. All
	// of this is nil (and the run allocation-free on the seam) when
	// Observer, Trace and Metrics are unset.
	var (
		timeline *obs.Timeline
		tracer   *obs.Tracer
		sink     *os.File
	)
	if opt.Metrics {
		timeline = obs.NewTimeline(g.N(), 0)
	}
	if t := opt.Trace; t != nil {
		w := t.W
		if t.Path != "" {
			f, err := os.Create(t.Path)
			if err != nil {
				return nil, fmt.Errorf("radiocolor: %w", err)
			}
			sink = f
			w = f
		}
		kinds := make([]obs.Kind, len(t.Kinds))
		for i, name := range t.Kinds {
			kinds[i], _ = obs.ParseKind(name) // validated above
		}
		tracer = obs.NewTracer(t.Cap, w, kinds...)
	}
	collector := &obs.Collector{Tracer: tracer, Timeline: timeline}

	// Compile the fault profile against the concrete graph. The fault
	// seed defaults to the run seed so "same options, same outcome"
	// covers the injected chaos too.
	var inj *fault.Injector
	if f := opt.Faults; f != nil {
		prof := f.profile()
		if prof.Seed == 0 {
			prof.Seed = opt.Seed
		}
		if tilePerm != nil {
			// Crash and jammer victims follow their nodes into engine
			// slots; the coins keep hashing caller labels.
			prof = prof.Permute(tilePerm.Forward)
		}
		var ferr error
		inj, ferr = prof.Compile(g.N())
		if ferr != nil {
			return nil, fmt.Errorf("radiocolor: %w", ferr)
		}
	}

	// Compile the churn schedule against the caller's graph. Mobility
	// needs the geometry, so the points and radius of a geometric entry
	// point thread through here. A tiled run hands the engine the plan
	// moved into engine slots, in the caller's event order, and keeps
	// the caller's plan for the verdict graph.
	var plan, runPlan *churn.Plan
	if c := opt.Churn; c.active() {
		sch, cerr := c.schedule() // validated above
		if cerr != nil {
			return nil, cerr
		}
		env := churn.Env{G: g}
		if len(sch.Waypoints) > 0 {
			env.Points = pts
			env.Radius = radius
		}
		plan, cerr = sch.Compile(env)
		if cerr != nil {
			return nil, fmt.Errorf("radiocolor: %w", cerr)
		}
		runPlan = plan
		if tilePerm != nil {
			runPlan = plan.Permute(tilePerm.Forward)
		}
	}

	// Bind the reception medium (if any) against the concrete graph and
	// placement. Validate() already rejected the medium+skew combination
	// and malformed parameters, and SINR without positions failed above.
	var med medium.Instance
	if mc := opt.Medium; mc != nil {
		model, merr := mc.spec().Build()
		if merr != nil {
			return nil, fmt.Errorf("radiocolor: %w", merr)
		}
		csr := g.CSR()
		med, merr = model.Bind(medium.Env{
			N:       g.N(),
			Offsets: csr.Offsets,
			Edges:   csr.Edges,
			Points:  pts,
			Seed:    opt.Seed,
		})
		if merr != nil {
			return nil, fmt.Errorf("radiocolor: %w", merr)
		}
	}

	// Caller node v keeps its wire id and random stream and only moves
	// to engine slot Forward[v]. Building in engine order keeps the
	// nodes of one tile close in memory.
	ids := make([]radio.NodeID, g.N())
	for j := range ids {
		ids[j] = radio.NodeID(j)
		if tilePerm != nil {
			ids[j] = radio.NodeID(tilePerm.Inverse[j])
		}
	}
	slotNodes, protos := core.NodesFor(ids, opt.Seed, par, core.Ablation{})
	nodes := make([]*core.Node, g.N())
	for j, v := range ids {
		nodes[v] = slotNodes[j]
	}
	if opt.wrapProtocols != nil {
		protos = opt.wrapProtocols(protos)
	}
	if po, ok := opt.Observer.(PhaseObserver); ok {
		// Fan phase transitions out to both the collector and the
		// caller's PhaseObserver (a node holds a single hook, so the
		// collector path is inlined here instead of ObservePhases).
		hook := func(slot int64, node int32, from, to core.Phase, class int32) {
			collector.OnPhase(slot, node, obs.Phase(from), obs.Phase(to), class)
			po.OnPhase(slot, int(node), obs.Phase(from).String(), obs.Phase(to).String())
		}
		for _, v := range nodes {
			v.SetPhaseHook(hook)
		}
	} else {
		core.ObservePhases(nodes, collector)
	}
	engineOb := radio.Observers(radio.CollectorObserver(collector), adaptObserver(opt.Observer))
	if tilePerm != nil && engineOb != nil {
		engineOb = invObserver{inner: engineOb, inv: tilePerm.Inverse}
	}
	cfg := radio.Config{
		G:         runG,
		Protocols: protos,
		Wake:      wake,
		MaxSlots:  budget,
		NEstimate: par.N,
		Workers:   opt.Workers,
		Tiles:     opt.Tiling,
		Observer:  engineOb,
		Faults:    inj,
		Medium:    med,
		Churn:     runPlan,
	}
	// A clock-skew profile switches the engine to the half-slot rule;
	// the injector supplies the per-node offsets.
	began := time.Now()
	res, err := radio.RunContext(ctx, cfg)
	wall := time.Since(began)
	if tracer != nil {
		if ferr := tracer.Flush(); ferr != nil && err == nil {
			err = fmt.Errorf("radiocolor: %w", ferr)
		}
	}
	if sink != nil {
		if cerr := sink.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("radiocolor: %w", cerr)
		}
	}
	if err != nil {
		return nil, err
	}
	if tilePerm != nil {
		res = mapTiledResult(res, *tilePerm)
	}

	out := &Outcome{
		Colors:         make([]int, g.N()),
		PerNodeLatency: make([]int64, g.N()),
		Slots:          res.Slots,
		MaxLatency:     res.MaxLatency(),
		Delta:          delta,
		Kappa1:         k1,
		Kappa2:         k2,
		MaxMessageBits: res.MaxMessageBits,
		g:              g,
	}
	colors := make([]int32, g.N())
	for i, v := range nodes {
		out.Colors[i] = int(v.Color())
		colors[i] = v.Color()
		out.PerNodeLatency[i] = res.Latency(i)
		if v.IsLeader() {
			out.Leaders = append(out.Leaders, i)
		}
	}
	// The verdict graph: churned runs are judged against the topology
	// they ended with (replayed from the caller's plan); static runs
	// against the input graph.
	vg := g
	if plan != nil {
		vg = plan.FinalGraph(g)
	}
	rep := verify.Check(vg, colors)
	out.Proper = rep.Proper
	out.Complete = rep.Complete && res.AllDone
	out.NumColors = rep.NumColors
	out.MaxColor = int(rep.MaxColor)
	if timeline != nil {
		out.Stats = buildStats(res, timeline, wall)
	}
	if inj != nil || plan != nil {
		// One scoped verdict serves both reports: crashed nodes and
		// departed nodes are each out of scope, for their own reason.
		srep := verify.CheckSurvivorsScoped(vg, colors,
			verify.DownSet(g.N(), res.Down), verify.DownSet(g.N(), res.Left))
		if inj != nil {
			fo := &FaultOutcome{
				Lost: res.Lost, Jammed: res.Jammed,
				Crashes: res.Crashes, Restarts: res.Restarts,
				Survivors:        srep.Survivors,
				SurvivorsColored: srep.SurvivorsColored,
				Degraded:         len(srep.Degraded),
				HardViolations:   len(srep.HardViolations),
				Graceful:         srep.Graceful(),
			}
			for _, v := range res.Down {
				fo.Down = append(fo.Down, int(v))
			}
			out.Faults = fo
		}
		if plan != nil {
			co := &ChurnOutcome{
				Joins: res.Joins, Leaves: res.Leaves,
				ConflictsRepaired: res.ConflictsRepaired,
				Present:           srep.Survivors,
				PresentColored:    srep.SurvivorsColored,
				Degraded:          len(srep.Degraded),
				HardViolations:    len(srep.HardViolations),
				Graceful:          srep.Graceful(),
			}
			for _, v := range res.Left {
				co.Left = append(co.Left, int(v))
			}
			out.Churn = co
		}
	}
	return out, nil
}
