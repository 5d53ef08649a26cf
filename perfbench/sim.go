package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"radiocolor"
	"radiocolor/internal/core"
	"radiocolor/internal/graph"
	"radiocolor/internal/radio"
	"radiocolor/internal/topology"
)

// targetDegree is the expected node degree of every generated UDG.
const targetDegree = 12

// reliableScale is the ParamScale of every workload whose nodes decide.
// At the practical constants (1) the protocol's with-high-probability
// guarantee misses on about 1–2% of n=1000 solves and 3% of n=100
// solves (an improper coloring); a fixed-seed benchmark must not fail,
// and at 1.5 none of the scanned solves did (see README.md).
const reliableScale = 1.5

// kappaOptions are the κ-measurement limits ColorGraph uses internally.
var kappaOptions = graph.KappaOptions{Budget: 150_000, MaxNeighborhood: 140}

// simSpec describes a simulation workload: which inputs set-up generates
// and which options every solve passes to the public API.
type simSpec struct {
	name string
	// n is the node count of every generated UDG, and delta its
	// maximum degree (see drawUDG; 0 accepts any).
	n, delta int
	// panel is the number of distinct inputs one run generates; the
	// timed loop solves them round-robin in whole rounds, so each run
	// averages over the same mix of graphs.
	panel int
	// setupReps is how often set-up is repeated back to back (the
	// median of all set-ups is setup_s); with resetup it is repeated
	// again before every round.
	setupReps int
	resetup   bool
	// procs fixes GOMAXPROCS.
	procs   int
	wakeup  radiocolor.Wakeup
	tiling  int
	workers int
	// window caps every solve at this many slots (0 runs to completion).
	window int64
	// paramScale is Options.ParamScale (0 keeps the practical constants).
	paramScale float64
	// prefill fills Options.Measured with a κ pass during set-up, the
	// path colord takes on a deployment-cache hit.
	prefill bool
	// points hands the input to ColorUnitDisk (positions) instead of
	// ColorGraph (adjacency).
	points bool
	// faults returns the fault profile of one input ("" for none), in
	// radiocolor.ParseFaults syntax.
	faults func(n int, seed int64) string
	// check judges one outcome.
	check func(*simSpec, *radiocolor.Outcome) error
	// differential adds, once per run and outside the timed path, the
	// kernel check of kernelCheck on the first input.
	differential bool
}

func full1k() simSpec {
	return simSpec{
		name: "full-1k", n: 1000, delta: 22, panel: 2, setupReps: 3, resetup: true, procs: 1,
		wakeup: radiocolor.WakeupSynchronous, paramScale: reliableScale,
		check: checkOK,
	}
}

func tiled20k() simSpec {
	return simSpec{
		name: "tiled-20k", n: 20000, delta: 28, panel: 1, setupReps: 1, procs: 2,
		wakeup: radiocolor.WakeupUniform, tiling: 4, workers: 2,
		window: 2000, prefill: true, points: true,
		check: checkWindow, differential: true,
	}
}

func skewLoss1k() simSpec {
	return simSpec{
		name: "skew-loss-1k", n: 1000, delta: 22, panel: 2, setupReps: 3, resetup: true, procs: 1,
		wakeup: radiocolor.WakeupUniform, paramScale: reliableScale,
		faults: skewLossProfile,
		check:  checkGraceful,
	}
}

// skewLossProfile is i.i.d. 5% loss, half-slot clock skew on a quarter
// of the nodes, and five crash/restart victims drawn from the seed.
func skewLossProfile(n int, seed int64) string {
	r := rand.New(rand.NewSource(seed))
	terms := []string{"loss=0.05", "skew=0.25"}
	for i, v := range r.Perm(n)[:min(5, n)] {
		at := int64(1000 + 700*i)
		terms = append(terms, fmt.Sprintf("crash=%d@%d:%d", v, at, at+2500))
	}
	return strings.Join(terms, ",")
}

func checkOK(_ *simSpec, out *radiocolor.Outcome) error {
	if !out.OK() {
		return fmt.Errorf("coloring not OK (proper=%v complete=%v)", out.Proper, out.Complete)
	}
	return nil
}

func checkGraceful(_ *simSpec, out *radiocolor.Outcome) error {
	if out.Faults == nil || !out.Faults.Graceful {
		return fmt.Errorf("fault verdict not graceful: %+v", out.Faults)
	}
	return nil
}

func checkWindow(s *simSpec, out *radiocolor.Outcome) error {
	if !out.Proper {
		return fmt.Errorf("decided nodes not properly colored")
	}
	if out.Slots != s.window {
		return fmt.Errorf("ran %d slots, want the %d-slot window", out.Slots, s.window)
	}
	return nil
}

// simInput is one generated input with the options its solves use.
type simInput struct {
	seed   int64
	dep    *topology.Deployment
	adj    [][]int
	points [][2]float64
	faults string
	opt    radiocolor.Options
}

// solveRef is what the first solve of a panel input left behind: its
// outcome, its fingerprint, which every repeat must reproduce, and its
// awake node-slots.
type solveRef struct {
	out       *radiocolor.Outcome
	want      uint64
	nodeSlots int64
}

// inputSeed derives the i-th seed of the stream that seed starts.
func inputSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z ^= z >> 31
	z *= 0x94D049BB133111EB
	z ^= z >> 29
	return int64(z>>2) + 1
}

// batch is how many candidates drawUDG always generates, and
// maxCandidates bounds its search.
const (
	batch         = 16
	maxCandidates = 1000
)

// drawUDG returns the first deployment of seed's candidate stream whose
// maximum degree is delta (any, when delta is 0), with the candidate's
// seed. Fixing Δ fixes most of the protocol's work across seeds: the
// decision threshold is ⌈σΔ log n⌉. The most likely Δ of a generated
// UDG is accepted within a few candidates, but the search always
// generates a whole batch, so that set-up does the same work for every
// seed.
func drawUDG(gen func(seed int64) *topology.Deployment, delta int, seed int64) (*topology.Deployment, int64, error) {
	var found *topology.Deployment
	var foundSeed int64
	for k := 0; k < maxCandidates && (found == nil || k < batch); k++ {
		s := inputSeed(seed, k)
		if d := gen(s); found == nil && (delta == 0 || d.G.MaxDegree() == delta) {
			found, foundSeed = d, s
		}
	}
	if found == nil {
		return nil, 0, fmt.Errorf("no UDG with maximum degree %d among %d candidates", delta, maxCandidates)
	}
	return found, foundSeed, nil
}

// draw generates panel input i of the run seed.
func (s *simSpec) draw(seed int64, i int) (*topology.Deployment, int64, error) {
	gen := func(seed int64) *topology.Deployment { return topology.UDGWithTargetDegree(s.n, targetDegree, seed) }
	return drawUDG(gen, s.delta, inputSeed(seed, i))
}

// setup generates the panel: UDG placement and graph (topology, see
// drawUDG), the
// adjacency or point list handed to the public API, the fault profile
// and, with prefill, the κ pass (whose duration per input it returns).
func (s *simSpec) setup(seed int64) ([]*simInput, []time.Duration, error) {
	ins := make([]*simInput, s.panel)
	kappa := make([]time.Duration, s.panel)
	for i := range ins {
		in := &simInput{}
		var err error
		if in.dep, in.seed, err = s.draw(seed, i); err != nil {
			return nil, nil, err
		}
		if s.points {
			in.points = make([][2]float64, s.n)
			for v, p := range in.dep.Points {
				in.points[v] = [2]float64{p.X, p.Y}
			}
		} else {
			in.adj = adjacency(in.dep.G)
		}
		in.opt = radiocolor.Options{
			Seed:       in.seed,
			Wakeup:     s.wakeup,
			ParamScale: s.paramScale,
			Tiling:     s.tiling,
			Workers:    s.workers,
			MaxSlots:   s.window,
		}
		if s.faults != nil {
			in.faults = s.faults(s.n, in.seed)
			f, err := radiocolor.ParseFaults(in.faults)
			if err != nil {
				return nil, nil, err
			}
			in.opt.Faults = f
		}
		if s.prefill {
			t0 := time.Now()
			k := in.dep.G.Kappa(kappaOptions)
			in.opt.Measured = &radiocolor.Measured{Delta: in.dep.G.MaxDegree(), Kappa1: k.K1, Kappa2: k.K2}
			kappa[i] = time.Since(t0)
		}
		ins[i] = in
	}
	return ins, kappa, nil
}

func adjacency(g *graph.Graph) [][]int {
	adj := make([][]int, g.N())
	for v := range adj {
		row := g.Adj(v)
		adj[v] = make([]int, len(row))
		for i, u := range row {
			adj[v][i] = int(u)
		}
	}
	return adj
}

// solve is one call into the public API.
func (s *simSpec) solve(in *simInput) (*radiocolor.Outcome, error) {
	if s.points {
		return radiocolor.ColorUnitDisk(in.points, in.dep.Radius, in.opt)
	}
	return radiocolor.ColorGraph(in.adj, in.opt)
}

// verifyOutcome applies the workload's check and the determinism gate:
// every repeat of an input's fixed-seed solve must reproduce the first
// one exactly (slots, colors, latencies, leaders, fault counters).
func (s *simSpec) verifyOutcome(in *simInput, ref *solveRef, out *radiocolor.Outcome) error {
	if err := s.check(s, out); err != nil {
		return err
	}
	fp := outcomePrint(out)
	if ref.out == nil {
		*ref = solveRef{out: out, want: fp, nodeSlots: awakeNodeSlots(in, out)}
		return nil
	}
	if fp != ref.want {
		return fmt.Errorf("input %d: repeat differs from the first solve (fingerprint %x, want %x)", in.seed, fp, ref.want)
	}
	return nil
}

func outcomePrint(out *radiocolor.Outcome) uint64 {
	f := newFingerprint()
	f.add(out.Slots, out.MaxLatency, int64(out.NumColors), int64(out.MaxColor),
		int64(out.Delta), int64(out.Kappa1), int64(out.Kappa2))
	f.addInts(out.Colors)
	f.addInts(out.Leaders)
	f.add(out.PerNodeLatency...)
	if fo := out.Faults; fo != nil {
		f.add(fo.Lost, fo.Jammed, fo.Crashes, fo.Restarts, int64(fo.Survivors), int64(fo.SurvivorsColored))
		f.addInts(fo.Down)
	}
	return f.sum()
}

// kernelCheck is the tiled workload's check on the slot loop itself.
// Within the window no node decides, so the outcome alone has little to
// compare. It runs the first input's slot loop at the public call's
// Hilbert labels twice: as the solve runs it (the options' tiles and
// workers, no observer, so the same fused path), and on the reference
// engine (untiled, one worker), which the repository pins as
// bit-identical at fixed labels. Both must report the same exact counts
// (slots, transmissions, deliveries, collisions, and every node's
// transmissions and decision slot), and the first must leave the colors
// of the public outcome.
func (s *simSpec) kernelCheck(in *simInput, out *radiocolor.Outcome) error {
	n := s.n
	m := in.opt.Measured
	par := core.Practical(n, m.Delta, m.Kappa1, m.Kappa2).Scale(scaleOf(in.opt))
	xs, ys := make([]float64, n), make([]float64, n)
	for v, p := range in.points {
		xs[v], ys[v] = p[0], p[1]
	}
	perm := graph.HilbertOrder(xs, ys)
	g := perm.Apply(in.dep.G)
	wake := make([]int64, n)
	for v, w := range wakeSchedule(in.opt.Wakeup, n, par.WaitSlots(), in.seed) {
		wake[perm.Forward[v]] = w
	}
	run := func(tiles, workers int) (*radio.Result, []*core.Node, error) {
		nodes, protos := core.Nodes(n, in.seed, par, core.Ablation{})
		res, err := radio.Run(radio.Config{
			G: g, Protocols: protos, Wake: wake, MaxSlots: in.opt.MaxSlots, NEstimate: par.N,
			Tiles: tiles, Workers: workers,
		})
		return res, nodes, err
	}
	res, nodes, err := run(in.opt.Tiling, in.opt.Workers)
	if err != nil {
		return err
	}
	for v, c := range out.Colors {
		if got := int(nodes[perm.Forward[v]].Color()); got != c {
			return fmt.Errorf("input %d: node %d has color %d in the slot loop, %d in the public outcome", in.seed, v, got, c)
		}
	}
	nodes = nil // let the first run's nodes go before the second run
	ref, _, err := run(0, 1)
	if err != nil {
		return err
	}
	if enginePrint(res) != enginePrint(ref) {
		return fmt.Errorf("input %d: tiled loop (%d tiles, %d workers) and reference engine disagree: "+
			"slots %d/%d, tx %d/%d, deliveries %d/%d, collisions %d/%d", in.seed, in.opt.Tiling, in.opt.Workers,
			res.Slots, ref.Slots, res.Transmissions, ref.Transmissions,
			res.Deliveries, ref.Deliveries, res.Collisions, ref.Collisions)
	}
	return nil
}

// enginePrint fingerprints a slot loop's exact counts.
func enginePrint(r *radio.Result) uint64 {
	f := newFingerprint()
	f.add(r.Slots, r.Transmissions, r.Deliveries, r.Collisions, r.Lost, r.Jammed, r.Crashes, r.Restarts)
	f.add(r.PerNodeTx...)
	f.add(r.DecideSlot...)
	return f.sum()
}

// awakeNodeSlots counts the node-slots from each node's wake-up to the
// end of the run, the simulated work of one solve. The wake schedule is
// recomputed exactly as ColorGraph derives it.
func awakeNodeSlots(in *simInput, out *radiocolor.Outcome) int64 {
	par := core.Practical(len(out.Colors), out.Delta, out.Kappa1, out.Kappa2).Scale(scaleOf(in.opt))
	var total int64
	for _, w := range wakeSchedule(in.opt.Wakeup, len(out.Colors), par.WaitSlots(), in.seed) {
		if w < out.Slots {
			total += out.Slots - w
		}
	}
	return total
}

// scaleOf is the protocol-constant scale ColorGraph applies.
func scaleOf(opt radiocolor.Options) float64 {
	if opt.ParamScale <= 0 {
		return 1
	}
	return opt.ParamScale
}

// wakeSchedule builds the named wake-up pattern ColorGraph uses.
func wakeSchedule(w radiocolor.Wakeup, n int, wait, seed int64) []int64 {
	for _, p := range radio.WakePatterns {
		if p.Name == w.String() {
			return p.Make(n, wait, seed)
		}
	}
	panic("perfbench: unknown wake-up pattern " + w.String())
}

func simWorkload(s simSpec) workload {
	return workload{
		name:    s.name,
		procs:   s.procs,
		measure: func(cfg runConfig) (*report, error) { return s.measure(cfg) },
		trace:   func(cfg runConfig) (*report, error) { return s.traceRun(cfg) },
	}
}

// measure is the untraced run: the panel is solved round-robin, in
// whole rounds, until the measuring time is used up. Set-up runs before
// the first round and, for cheap set-ups, again before every later
// round, so that setup_s (the median) samples the whole run rather than
// its first moment. A host probe follows every set-up group and every
// solve, and the reported times are host-corrected (see hostClock).
func (s *simSpec) measure(cfg runConfig) (*report, error) {
	rep := &report{Metrics: metrics{}}
	refs := make([]solveRef, s.panel)
	var setups, solves []timing
	var nodeSlots int64
	var ins []*simInput
	var deadline time.Time
	hc := newHostClock()
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		if round == 0 || s.resetup {
			for r := 0; r < s.setupReps; r++ {
				ins = nil // let the previous repetition's inputs go first
				t0 := time.Now()
				var err error
				if ins, _, err = s.setup(cfg.seed); err != nil {
					return nil, err
				}
				setups = append(setups, hc.stamp(time.Since(t0)))
			}
			hc.probe()
		}
		if round == 0 {
			deadline = time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
		}
		for i, in := range ins {
			t0 := time.Now()
			out, err := s.solve(in)
			d := hc.stamp(time.Since(t0))
			rep.Attempted++
			if err == nil {
				err = s.verifyOutcome(in, &refs[i], out)
			}
			// Collect this solve's garbage before the probe and the next
			// solve, so neither pays for it and peak_rss_mb holds one
			// solve's footprint whatever the collector's timing.
			runtime.GC()
			hc.probe()
			if err != nil {
				rep.Failed++
				fmt.Fprintf(cfg.log, "perfbench: %s: solve %d: %v\n", s.name, rep.Attempted, err)
				continue
			}
			solves = append(solves, d)
			nodeSlots += refs[i].nodeSlots
		}
	}
	// Read before the kernel check, which holds a second set of nodes.
	peak := peakRSSMB()
	if s.differential && refs[0].out != nil {
		rep.Attempted++
		if err := s.kernelCheck(ins[0], refs[0].out); err != nil {
			rep.Failed++
			fmt.Fprintf(cfg.log, "perfbench: %s: kernel check: %v\n", s.name, err)
		}
	}
	hc.logSlowdown(cfg.log, s.name)
	fmt.Fprintf(cfg.log, "perfbench: %s: uncorrected setup_s %.4g, solve_s_mean %.4g\n",
		s.name, median(wall(setups)), mean(wall(solves)))
	solveS := hc.corrected(solves)
	busy := 0.0
	for _, d := range solveS {
		busy += d
	}
	rep.Correct = rep.Failed == 0
	m := metrics(rep.Metrics)
	m.set("setup_s", median(hc.corrected(setups)), "s")
	m.set("solve_s_mean", mean(solveS), "s")
	m.set("node_slots_per_s", perSecond(float64(nodeSlots), busy), "1/s")
	m.set("peak_rss_mb", peak, "MB")
	m.set("ok_frac", float64(rep.Attempted-rep.Failed)/float64(rep.Attempted), "ratio")
	return rep, nil
}
