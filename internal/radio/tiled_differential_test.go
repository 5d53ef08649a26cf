package radio_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"radiocolor/internal/core"
	"radiocolor/internal/fault"
	"radiocolor/internal/graph"
	"radiocolor/internal/medium"
	"radiocolor/internal/radio"
	"radiocolor/internal/topology"
)

// The tiled-kernel differential suite. The tiled slot loop (tiled.go)
// reorders every per-slot accumulation — tile-major sweeps, a boundary
// exchange for cross-tile edges, per-tile counter tallies — and all of
// it is claimed order-free, so the contract is strict: for any tile and
// worker count the engine's Result and protocol outcomes are
// bit-identical to the one-tile run, with every seam (faults, clock
// skew, loss and capture coins, observers, media) composed. The second axis
// pins the relabeling pass: a run on a permuted graph, mapped back
// through the inverse permutation, is byte-identical to the original.

// runTiledVariant is runVariant with a tile count: tiles == 0 is one
// tile (or one per worker), tiles > 1 fixes the count, -1 lets the
// engine choose.
func runTiledVariant(t *testing.T, c diffCase, workers, tiles int) (*radio.Result, []int32, []int32) {
	t.Helper()
	par := diffParams(c.g)
	nodes, protos := core.Nodes(c.g.N(), c.seed, par, core.Ablation{})
	cfg := radio.Config{
		G: c.g, Protocols: protos, Wake: c.wake,
		MaxSlots: diffBudget, NEstimate: par.N,
		Workers: workers, Tiles: tiles,
	}
	c.addCoins(t, &cfg)
	res, err := radio.Run(cfg)
	if err != nil {
		t.Fatalf("%s workers=%d tiles=%d: %v", c.name, workers, tiles, err)
	}
	colors := make([]int32, len(nodes))
	tcs := make([]int32, len(nodes))
	for i, v := range nodes {
		colors[i] = v.Color()
		tcs[i] = v.TC()
	}
	return res, colors, tcs
}

// tiledVariants is the (workers, tiles) matrix every differential case
// is checked at: sequential and parallel sweeps, tile counts that do
// and do not divide the node counts, and the auto selector.
var tiledVariants = []struct {
	label          string
	workers, tiles int
}{
	{"w1/t2", 1, 2},
	{"w4/t2", 4, 2},
	{"w1/t4", 1, 4},
	{"w4/t4", 4, 4},
	{"w1/t7", 1, 7},
	{"w4/t7", 4, 7},
	{"w16/t7", 16, 7},
	{"w4/t13", 4, 13},
	{"w4/auto", 4, -1},
}

// TestTiledDifferentialMatchesUntiled is the headline pin: over the
// full graph × wakeup-schedule × seed matrix (plus loss and capture
// coin cases; a capture medium resolves each slot in one pass at any
// Tiles), the engine is bit-identical to its one-tile run at
// every tile and worker count — Result, colors, and intra-cluster
// colors all DeepEqual.
func TestTiledDifferentialMatchesUntiled(t *testing.T) {
	cases := diffCases(t)
	if testing.Short() && len(cases) > 12 {
		cases = cases[:12]
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			baseRes, baseColors, baseTCs := runTiledVariant(t, c, 1, 0)
			for _, v := range tiledVariants {
				res, colors, tcs := runTiledVariant(t, c, v.workers, v.tiles)
				if !reflect.DeepEqual(res, baseRes) {
					t.Fatalf("%s: Result diverged from the one-tile run\n base: %+v\n got:  %+v", v.label, baseRes, res)
				}
				if !reflect.DeepEqual(colors, baseColors) {
					t.Fatalf("%s: colors diverged from the one-tile run", v.label)
				}
				if !reflect.DeepEqual(tcs, baseTCs) {
					t.Fatalf("%s: intra-cluster colors diverged from the one-tile run", v.label)
				}
			}
			if baseRes.Deliveries == 0 {
				t.Fatal("no deliveries; differential is vacuous")
			}
			checkCoinsFired(t, c, baseRes)
		})
	}
}

// TestTiledScriptedCollisions forces dense simultaneous transmissions
// — the regime where the split resolve (intra-tile accumulate, then
// boundary-exchange fold) is most likely to drift from the single-pass
// accumulation: count sums crossing txMarker/asleep sentinels, lowest-
// sender selection across tiles. The capture arm composes the graph
// medium's two-way capture coin, which resolves each slot in one pass
// at any tile count.
func TestTiledScriptedCollisions(t *testing.T) {
	for _, seed := range []int64{3, 9, 27} {
		g := erdosRenyi(40, 0.15, seed)
		r := rand.New(rand.NewSource(seed * 1000))
		scripts := make([][]bool, g.N())
		for i := range scripts {
			scripts[i] = make([]bool, 60)
			for s := range scripts[i] {
				scripts[i][s] = r.Float64() < 0.35
			}
		}
		wake := radio.WakeUniform(g.N(), 20, seed)
		run := func(workers, tiles int, capture float64) *radio.Result {
			protos := make([]radio.Protocol, g.N())
			for i := range protos {
				protos[i] = &scriptedDiffProto{id: radio.NodeID(i), script: scripts[i]}
			}
			cfg := radio.Config{
				G: g, Protocols: protos, Wake: wake,
				MaxSlots: 120, Workers: workers, Tiles: tiles,
			}
			if capture > 0 {
				cfg.Medium = bindCapture(t, g, capture, seed)
			}
			res, err := radio.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		ref, capRef := run(1, 0, 0), run(1, 0, 0.4)
		for _, v := range tiledVariants {
			if got := run(v.workers, v.tiles, 0); !reflect.DeepEqual(got, ref) {
				t.Fatalf("seed %d: tiled %s diverged\n ref: %+v\n got: %+v", seed, v.label, ref, got)
			}
			if got := run(v.workers, v.tiles, 0.4); !reflect.DeepEqual(got, capRef) {
				t.Fatalf("seed %d: tiled %s with capture diverged\n ref: %+v\n got: %+v", seed, v.label, capRef, got)
			}
		}
		if ref.Collisions == 0 || capRef.Captures == 0 {
			t.Fatalf("seed %d: no collisions/captures; scripted differential is vacuous", seed)
		}
	}
}

// runFaultedTiled is runFaulted with a tile count.
func runFaultedTiled(t *testing.T, c diffCase, prof *fault.Profile, workers, tiles int) (*radio.Result, []int32) {
	t.Helper()
	return runFaultedWith(t, c, prof, workers, tiles, radio.Run)
}

// runFaultedWith is runFaultedTiled through the given entry point.
func runFaultedWith(t *testing.T, c diffCase, prof *fault.Profile, workers, tiles int,
	run func(radio.Config) (*radio.Result, error)) (*radio.Result, []int32) {
	t.Helper()
	par := diffParams(c.g)
	nodes, protos := core.Nodes(c.g.N(), c.seed, par, core.Ablation{})
	cfg := radio.Config{
		G: c.g, Protocols: protos, Wake: c.wake,
		MaxSlots: diffBudget, NEstimate: par.N,
		Workers: workers, Tiles: tiles,
	}
	if prof != nil {
		inj, err := prof.Compile(c.g.N())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = inj
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s workers=%d tiles=%d: %v", c.name, workers, tiles, err)
	}
	colors := make([]int32, len(nodes))
	for i, v := range nodes {
		colors[i] = v.Color()
	}
	return res, colors
}

// runUnaligned is RunUnaligned with the offsets of cfg's skew profile.
func runUnaligned(cfg radio.Config) (*radio.Result, error) { return radio.RunUnaligned(cfg, nil) }

// TestTiledDifferentialWithFaults composes every fault class at once —
// i.i.d. loss, burst fading, final crashes, a crash+restart, and a
// probabilistic jammer — and pins the tiled engine to the untiled one.
// The fault coins hash (seed, slot, link), so they must land in exactly
// the same receptions however the deliver work is partitioned; crash
// and restart events apply in the shared wake phase before the sweeps.
// The same profile with clock skew added runs the half-slot rule after
// the tiles' Send sweep: it must be bit-identical at Tiles {0, 4} ×
// Workers {1, 4} and equal RunUnaligned with the profile's offsets.
func TestTiledDifferentialWithFaults(t *testing.T) {
	cases := diffCases(t)[:10]
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			prof := chaosProfile(c.seed)
			baseRes, baseCol := runFaultedTiled(t, c, prof, 1, 0)
			for _, v := range tiledVariants {
				res, col := runFaultedTiled(t, c, prof, v.workers, v.tiles)
				if !reflect.DeepEqual(res, baseRes) {
					t.Fatalf("%s: faulted Result diverged\n base: %+v\n got:  %+v", v.label, baseRes, res)
				}
				if !reflect.DeepEqual(col, baseCol) {
					t.Fatalf("%s: faulted colors diverged", v.label)
				}
			}
			if baseRes.Lost == 0 && baseRes.Jammed == 0 && baseRes.Crashes == 0 {
				t.Fatal("chaos profile injected nothing; test is vacuous")
			}

			skew := chaosProfile(c.seed)
			skew.SkewProb = 0.5
			skewRes, skewCol := runFaultedWith(t, c, skew, 1, 0, runUnaligned)
			for _, v := range []struct{ workers, tiles int }{{1, 0}, {1, 4}, {4, 0}, {4, 4}} {
				res, col := runFaultedTiled(t, c, skew, v.workers, v.tiles)
				if !reflect.DeepEqual(res, skewRes) {
					t.Fatalf("skew w%d/t%d: Result diverged from RunUnaligned\n base: %+v\n got:  %+v", v.workers, v.tiles, skewRes, res)
				}
				if !reflect.DeepEqual(col, skewCol) {
					t.Fatalf("skew w%d/t%d: colors diverged from RunUnaligned", v.workers, v.tiles)
				}
			}
			if reflect.DeepEqual(skewRes, baseRes) || skewRes.Deliveries == 0 {
				t.Fatal("skew changed nothing; skew differential is vacuous")
			}
		})
	}
}

// TestTiledQuiescenceDifferential pins the quiet tail on the synthetic
// bench protocol (the workload the kernel speedup is measured on): nodes
// decide mid-run and then never transmit again, yet stay awake and keep
// being ticked and delivered to until the budget ends. Across all five
// wakeup schedules, every Result field and every node's protocol state
// at one tile and several, sequential and parallel, must match the
// reference loop, which drives each node through per-node calls.
func TestTiledQuiescenceDifferential(t *testing.T) {
	const n = 2000
	const slots = 3000
	d := topology.UDGWithTargetDegree(n, 12, 1)
	w := kernelWorkload{n: n, g: d, slots: slots}
	for _, pat := range radio.WakePatterns {
		pat := pat
		t.Run(pat.Name, func(t *testing.T) {
			t.Parallel()
			// A small phase length keeps every schedule's wake span inside
			// the budget (sequential's span is n·p/8), so nodes decide
			// mid-run and the quiet tail is long.
			wake := pat.Make(n, 6, 5)
			run := func(workers, tiles int, reference bool) (*radio.Result, []kernelProto) {
				protos := w.protocols()
				cfg := radio.Config{
					G: d.G, Protocols: protos, Wake: wake,
					MaxSlots: slots, NEstimate: n,
					Workers: workers, Tiles: tiles,
				}
				run := radio.Run
				if reference {
					run = radio.RunReference
				}
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				state := make([]kernelProto, n)
				for i, p := range protos {
					state[i] = *p.(*kernelProto)
				}
				return res, state
			}
			base, baseState := run(1, 0, true)
			for _, v := range []struct {
				label          string
				workers, tiles int
			}{{"w1/t0", 1, 0}, {"w1/t4", 1, 4}, {"w4/t4", 4, 4}, {"w4/t13", 4, 13}} {
				got, state := run(v.workers, v.tiles, false)
				if !reflect.DeepEqual(got, base) {
					t.Fatalf("%s: run diverged from the reference loop\n base: %+v\n got:  %+v", v.label, base, got)
				}
				if !reflect.DeepEqual(state, baseState) {
					t.Fatalf("%s: protocol state diverged from the reference loop", v.label)
				}
			}
			// The quiet tail must be real: most nodes decide well before
			// the budget, so most of the run's awake set is silent.
			decided := 0
			for _, s := range base.DecideSlot {
				if s >= 0 && s < slots-100 {
					decided++
				}
			}
			if decided < n/2 {
				t.Fatalf("only %d/%d nodes decided early; quiescence differential is vacuous", decided, n)
			}
		})
	}
}

// slotEvent is one observer callback for the event-stream differential.
type slotEvent struct {
	kind string
	slot int64
	node radio.NodeID
	n    int
}

// recObserver records every callback. A multi-tile run emits wake,
// transmit, decide and slot events in exactly the one-tile order;
// deliver and collision events are emitted per tile, so they are
// compared as within-slot multisets (the documented divergence).
type recObserver struct {
	ordered []slotEvent // wake, transmit, decide, slot
	perSlot []slotEvent // deliver, collision
}

func (o *recObserver) OnSlot(slot int64) {
	o.ordered = append(o.ordered, slotEvent{kind: "slot", slot: slot})
}
func (o *recObserver) OnWake(slot int64, node radio.NodeID) {
	o.ordered = append(o.ordered, slotEvent{kind: "wake", slot: slot, node: node})
}
func (o *recObserver) OnTransmit(slot int64, from radio.NodeID, msg radio.Message) {
	o.ordered = append(o.ordered, slotEvent{kind: "tx", slot: slot, node: from})
}
func (o *recObserver) OnDeliver(slot int64, to radio.NodeID, msg radio.Message) {
	o.perSlot = append(o.perSlot, slotEvent{kind: "rx", slot: slot, node: to})
}
func (o *recObserver) OnCollision(slot int64, at radio.NodeID, transmitters int) {
	o.perSlot = append(o.perSlot, slotEvent{kind: "col", slot: slot, node: at, n: transmitters})
}
func (o *recObserver) OnDecide(slot int64, node radio.NodeID) {
	o.ordered = append(o.ordered, slotEvent{kind: "decide", slot: slot, node: node})
}

func sortEvents(evs []slotEvent) {
	sort.Slice(evs, func(a, b int) bool {
		x, y := evs[a], evs[b]
		if x.slot != y.slot {
			return x.slot < y.slot
		}
		if x.kind != y.kind {
			return x.kind < y.kind
		}
		if x.node != y.node {
			return x.node < y.node
		}
		return x.n < y.n
	})
}

// TestTiledObserverEvents pins the traced path: a non-nil Observer
// forces both sweeps sequential (and Tiles 0 to one tile, even at
// Workers 4), wake/transmit/decide/slot streams are byte-identical to
// the one-tile run, and deliver/collision streams agree as within-slot
// multisets.
func TestTiledObserverEvents(t *testing.T) {
	c := diffCases(t)[0]
	run := func(tiles int) (*radio.Result, *recObserver) {
		par := diffParams(c.g)
		_, protos := core.Nodes(c.g.N(), c.seed, par, core.Ablation{})
		ob := &recObserver{}
		cfg := radio.Config{
			G: c.g, Protocols: protos, Wake: c.wake,
			MaxSlots: diffBudget, NEstimate: par.N,
			Observer: ob, Workers: 4, Tiles: tiles,
		}
		res, err := radio.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, ob
	}
	baseRes, baseOb := run(0)
	for _, tiles := range []int{2, 7} {
		res, ob := run(tiles)
		if !reflect.DeepEqual(res, baseRes) {
			t.Fatalf("tiles=%d: traced Result diverged", tiles)
		}
		if !reflect.DeepEqual(ob.ordered, baseOb.ordered) {
			t.Fatalf("tiles=%d: wake/transmit/decide/slot event stream diverged", tiles)
		}
		sortEvents(ob.perSlot)
		basePer := append([]slotEvent(nil), baseOb.perSlot...)
		sortEvents(basePer)
		if !reflect.DeepEqual(ob.perSlot, basePer) {
			t.Fatalf("tiles=%d: deliver/collision multiset diverged", tiles)
		}
	}
	if len(baseOb.perSlot) == 0 {
		t.Fatal("no deliver/collision events; observer differential is vacuous")
	}
}

// TestTiledMediumFallsBack pins the documented composition with the
// reception-model seam: a pluggable medium owns slot resolution, so a
// tiled Config with Medium set splits only the Send sweep, resolves the
// slot in one pass, and must be bit-identical to the same Config
// without tiles.
func TestTiledMediumFallsBack(t *testing.T) {
	d := topology.UDGWithTargetDegree(60, 8, 13)
	n := d.G.N()
	r := rand.New(rand.NewSource(77))
	scripts := make([][]bool, n)
	for i := range scripts {
		scripts[i] = make([]bool, 200)
		for s := range scripts[i] {
			scripts[i][s] = r.Float64() < 0.15
		}
	}
	csr := d.G.CSR()
	media := []struct {
		name  string
		model medium.Medium
	}{
		{"graph-threshold", medium.GraphThreshold{}},
		{"sinr", medium.SINR{Alpha: 4, Beta: 1.5,
			NoiseDBM: medium.MatchedNoiseDBM(0, 1.5, 4, d.Radius)}},
		{"multichannel", medium.MultiChannel{K: 3, HopSeed: 9}},
	}
	for _, m := range media {
		m := m
		t.Run(m.name, func(t *testing.T) {
			run := func(tiles int) *radio.Result {
				inst, err := m.model.Bind(medium.Env{
					N: n, Offsets: csr.Offsets, Edges: csr.Edges,
					Points: d.Points, Seed: 7,
				})
				if err != nil {
					t.Fatal(err)
				}
				protos := make([]radio.Protocol, n)
				for i := range protos {
					protos[i] = &scriptedDiffProto{id: radio.NodeID(i), script: scripts[i]}
				}
				cfg := radio.Config{
					G: d.G, Protocols: protos,
					Wake:     radio.WakeUniform(n, 40, 3),
					MaxSlots: 260, Medium: inst, Workers: 4, Tiles: 8,
				}
				if tiles == 0 {
					cfg.Tiles = 0
				}
				res, err := radio.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			base := run(0)
			if got := run(8); !reflect.DeepEqual(got, base) {
				t.Fatalf("tiled medium run diverged from untiled\n base: %+v\n got:  %+v", base, got)
			}
			if base.Deliveries == 0 {
				t.Fatal("no deliveries under medium; fallback differential is vacuous")
			}
		})
	}
}

// Reset implements radio.Restartable for the scripted differential
// protocol: a restarted node replays its script from the top, exactly
// like a freshly woken one — which keeps restarts covariant under node
// relabeling for the permutation differential below.
func (p *scriptedDiffProto) Reset() { p.local = 0; p.recvs = 0 }

// mapResultBack rewrites a permuted-run Result into original labels:
// per-node arrays are gathered through Forward, the down set mapped
// through Inverse and re-sorted, scalars copied verbatim.
func mapResultBack(res *radio.Result, p graph.Permutation) *radio.Result {
	n := len(p.Forward)
	mapped := *res
	mapped.WakeSlot = make([]int64, n)
	mapped.DecideSlot = make([]int64, n)
	mapped.PerNodeTx = make([]int64, n)
	for v := 0; v < n; v++ {
		mapped.WakeSlot[v] = res.WakeSlot[p.Forward[v]]
		mapped.DecideSlot[v] = res.DecideSlot[p.Forward[v]]
		mapped.PerNodeTx[v] = res.PerNodeTx[p.Forward[v]]
	}
	if len(res.Down) > 0 {
		mapped.Down = make([]int32, len(res.Down))
		for i, v := range res.Down {
			mapped.Down[i] = p.Inverse[v]
		}
		sortInt32Slice(mapped.Down)
	}
	return &mapped
}

func sortInt32Slice(xs []int32) {
	sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
}

// TestTiledPermutationDifferential is the second axis: run the untiled
// kernel on the original graph, run the TILED kernel on a relabeled
// copy — scripts, wake slots and faults placed covariantly, the fault
// profile through fault.Profile.Permute, whose loss, burst and Prob
// jammer coins keep hashing the original labels — and require the
// permuted output, mapped back through the inverse permutation, to be
// byte-identical: every scalar counter, every per-node array, every
// protocol's reception count. This is what licenses the public Tiling
// option to relabel behind the caller's back.
func TestTiledPermutationDifferential(t *testing.T) {
	d := topology.UDGWithTargetDegree(60, 8, 13)
	er := erdosRenyi(50, 0.12, 21)
	hx := make([]float64, d.G.N())
	hy := make([]float64, d.G.N())
	for i, pt := range d.Points {
		hx[i], hy[i] = pt.X, pt.Y
	}
	randPerm := func(n int, seed int64) graph.Permutation {
		r := rand.New(rand.NewSource(seed))
		fwd := make([]int32, n)
		for i, v := range r.Perm(n) {
			fwd[i] = int32(v)
		}
		p, err := graph.NewPermutation(fwd)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		g    *graph.Graph
		perm graph.Permutation
	}{
		{"udg60/hilbert", d.G, graph.HilbertOrder(hx, hy)},
		{"udg60/random", d.G, randPerm(d.G.N(), 31)},
		{"er50/bfs", er, graph.BFSOrder(er)},
		{"er50/random", er, randPerm(er.N(), 32)},
	}
	prof := &fault.Profile{
		Seed:  9,
		Loss:  0.1,
		Burst: &fault.Burst{PBad: 0.2, Window: 8, LossBad: 0.6},
		Crashes: []fault.Crash{
			{Node: 5, At: 40},
			{Node: 11, At: 60, Restart: 160},
			{Node: 2, At: 30},
		},
		Jammers: []fault.Jammer{
			{Nodes: []int{1, 7, 19}, From: 20, Until: 220, Period: 8, Duty: 3},
			{From: 50, Until: 250, Prob: 0.2},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			n := tc.g.N()
			r := rand.New(rand.NewSource(63))
			scripts := make([][]bool, n)
			for i := range scripts {
				scripts[i] = make([]bool, 80)
				for s := range scripts[i] {
					scripts[i][s] = r.Float64() < 0.3
				}
			}
			for _, pat := range radio.WakePatterns {
				wake := pat.Make(n, 60, 17)
				run := func(g *graph.Graph, scr [][]bool, wk []int64, pr *fault.Profile, workers, tiles int) (*radio.Result, []int) {
					protos := make([]radio.Protocol, n)
					sps := make([]*scriptedDiffProto, n)
					for i := range protos {
						sps[i] = &scriptedDiffProto{id: radio.NodeID(i), script: scr[i]}
						protos[i] = sps[i]
					}
					cfg := radio.Config{
						G: g, Protocols: protos, Wake: wk,
						MaxSlots: 300, Workers: workers, Tiles: tiles,
					}
					if pr != nil {
						inj, err := pr.Compile(n)
						if err != nil {
							t.Fatal(err)
						}
						cfg.Faults = inj
					}
					res, err := radio.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					recvs := make([]int, n)
					for i, sp := range sps {
						recvs[i] = sp.recvs
					}
					return res, recvs
				}
				for _, withFaults := range []bool{false, true} {
					var basePr, permPr *fault.Profile
					if withFaults {
						basePr = prof
						permPr = prof.Permute(tc.perm.Forward)
					}
					baseRes, baseRecvs := run(tc.g, scripts, wake, basePr, 1, 0)

					pg := tc.perm.Apply(tc.g)
					scriptsP := make([][]bool, n)
					wakeP := make([]int64, n)
					for v := 0; v < n; v++ {
						scriptsP[tc.perm.Forward[v]] = scripts[v]
						wakeP[tc.perm.Forward[v]] = wake[v]
					}
					for _, v := range []struct {
						workers, tiles int
					}{{1, 3}, {4, 3}, {4, 7}} {
						permRes, permRecvs := run(pg, scriptsP, wakeP, permPr, v.workers, v.tiles)
						mapped := mapResultBack(permRes, tc.perm)
						if !reflect.DeepEqual(mapped, baseRes) {
							t.Fatalf("%s faults=%v w%d/t%d: mapped tiled Result diverged from untiled original\n base:   %+v\n mapped: %+v",
								pat.Name, withFaults, v.workers, v.tiles, baseRes, mapped)
						}
						for u := 0; u < n; u++ {
							if permRecvs[tc.perm.Forward[u]] != baseRecvs[u] {
								t.Fatalf("%s faults=%v w%d/t%d: node %d reception count diverged: %d vs %d",
									pat.Name, withFaults, v.workers, v.tiles, u,
									baseRecvs[u], permRecvs[tc.perm.Forward[u]])
							}
						}
					}
					if withFaults && (baseRes.Crashes == 0 || baseRes.Jammed == 0 || baseRes.Lost == 0) {
						t.Fatalf("%s: faults injected nothing (crashes=%d jammed=%d lost=%d); vacuous",
							pat.Name, baseRes.Crashes, baseRes.Jammed, baseRes.Lost)
					}
					if baseRes.Deliveries == 0 || baseRes.Collisions == 0 {
						t.Fatalf("%s: no channel contention; permutation differential is vacuous", pat.Name)
					}
				}
			}
		})
	}
}
