// Command colorsim runs the paper's coloring algorithm once on a chosen
// topology and prints the outcome: verification verdict, colors used,
// per-node timing, and channel statistics.
//
// Examples:
//
//	colorsim -topology udg -n 200 -side 8 -radius 1.2 -wakeup uniform
//	colorsim -topology big -walls 30 -n 150
//	colorsim -topology clique -n 24 -v
//	colorsim -faults loss=0.05,crash=3@500:900 -n 100
//	colorsim -churn leave=3@500,join=3@900,move=7@1000:2:2 -n 100
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"radiocolor/internal/churn"
	"radiocolor/internal/core"
	"radiocolor/internal/experiment"
	"radiocolor/internal/fault"
	"radiocolor/internal/geom"
	"radiocolor/internal/graph"
	"radiocolor/internal/medium"
	"radiocolor/internal/obs"
	"radiocolor/internal/radio"
	"radiocolor/internal/render"
	"radiocolor/internal/stats"
	"radiocolor/internal/topology"
	"radiocolor/internal/verify"
)

func main() {
	var (
		topo     = flag.String("topology", "udg", "udg | big | corridor | clustered | grid | ring | clique | star | tree")
		n        = flag.Int("n", 150, "number of nodes")
		side     = flag.Float64("side", 7, "deployment square side")
		radius   = flag.Float64("radius", 1.2, "transmission radius")
		walls    = flag.Int("walls", 20, "wall count for -topology big")
		wakeup   = flag.String("wakeup", "synchronous", "synchronous | uniform | sequential | bursty | adversarial")
		seed     = flag.Int64("seed", 1, "master seed")
		scale    = flag.Float64("scale", 1.0, "scale factor on the practical constants")
		maxSlots = flag.Int64("max-slots", 0, "slot budget (0 = automatic)")
		verbose  = flag.Bool("v", false, "print per-node colors")
		traceOut = flag.String("trace", "", "stream all simulation events to this JSONL file (summarize with tracestat)")
		traceN   = flag.Int("trace-tail", 0, "dump the last N radio events after the run")
		metrics  = flag.Bool("metrics", false, "print the metrics registry and per-phase timeline")
		energy   = flag.Bool("energy", false, "print the energy summary (tx=1, listen=0.5 per slot)")
		tile     = flag.Int("tile", 0, "tiled slot kernel: -1 picks a tile count (~32k-node tiles), >1 fixes it, 0 untiled; first renumbers the deployment along the spatial locality pass, so printed node ids follow the relabeled order")
		faults   = flag.String("faults", "", "inject faults, e.g. loss=0.05,burst=0.1/64,crash=3@500:900,jam=100:400,skew=0.25 (seed= defaults to -seed)")
		churnF   = flag.String("churn", "", "dynamic topology, e.g. join=3@500,leave=7@900,move=0@1000:2:2,every=16,repair=retract|none (node ids follow -tile relabeling when tiled)")
		mediumF  = flag.String("medium", "", "reception model: graph | sinr,alpha=4,beta=1.5,noise=-90 | multichannel,k=4 (empty = built-in graph rule)")
		saveFile = flag.String("save", "", "write the generated deployment to this file and exit")
		loadFile = flag.String("load", "", "load the deployment from this file instead of generating")
		svgFile  = flag.String("svg", "", "render the colored deployment to this SVG file")
	)
	flag.Parse()

	// ^C / SIGTERM cancels the simulation at the next poll point (the
	// engine checks every 1024 slots); a second signal kills hard.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var d *topology.Deployment
	var err error
	if *loadFile != "" {
		f, ferr := os.Open(*loadFile)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "colorsim:", ferr)
			os.Exit(2)
		}
		d, err = topology.ReadDeployment(f)
		f.Close()
	} else {
		d, err = makeDeployment(*topo, *n, *side, *radius, *walls, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "colorsim:", err)
		os.Exit(2)
	}
	if *tile < -1 {
		fmt.Fprintf(os.Stderr, "colorsim: invalid -tile %d (want -1 for auto, 0 for off, or a tile count)\n", *tile)
		os.Exit(2)
	}
	if *tile != 0 && *tile != 1 {
		// The tiled kernel partitions contiguous id ranges, so renumber
		// the deployment along the shared locality pass first (Hilbert
		// curve on geometric topologies, BFS order otherwise). The whole
		// pipeline below — faults, media, SVG, per-node output — runs in
		// the relabeled space, so everything stays self-consistent.
		relabelForTiles(d)
	}
	if *saveFile != "" {
		f, ferr := os.Create(*saveFile)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "colorsim:", ferr)
			os.Exit(1)
		}
		if err := topology.WriteDeployment(f, d); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "colorsim:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "colorsim:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d nodes, %d edges)\n", *saveFile, d.N(), d.G.M())
		return
	}
	par := experiment.MeasureParams(d).Scale(*scale)
	var wake []int64
	for _, p := range radio.WakePatterns {
		if p.Name == *wakeup {
			wake = p.Make(d.N(), par.WaitSlots(), *seed)
		}
	}
	if wake == nil {
		fmt.Fprintf(os.Stderr, "colorsim: unknown wakeup pattern %q\n", *wakeup)
		os.Exit(2)
	}
	budget := *maxSlots
	if budget <= 0 {
		budget = int64(par.Kappa2+2) * par.Threshold() * 40
	}
	// Observability: -trace streams JSONL, -trace-tail keeps a ring for
	// the post-run dump, -metrics adds counters and the phase timeline.
	var (
		tracer   *obs.Tracer
		met      *obs.Metrics
		timeline *obs.Timeline
		sink     *os.File
	)
	if *traceOut != "" {
		f, ferr := os.Create(*traceOut)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "colorsim:", ferr)
			os.Exit(1)
		}
		sink = f
		tracer = obs.NewTracer(*traceN, sink)
	} else if *traceN > 0 {
		tracer = obs.NewTracer(*traceN, nil)
	}
	if *metrics {
		met = obs.NewMetrics()
		met.SetPhaseGauge(obs.PhaseAsleep, int64(d.N()))
		timeline = obs.NewTimeline(d.N(), 0)
	}
	// Fault injection: parse the profile, default its seed to the run
	// seed, and compile it against the deployment. Clock-skew profiles
	// route through the half-slot (non-aligned) engine.
	var prof *fault.Profile
	var inj *fault.Injector
	if *faults != "" {
		prof, err = fault.ParseProfile(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "colorsim:", err)
			os.Exit(2)
		}
		if prof.Seed == 0 {
			prof.Seed = *seed
		}
		inj, err = prof.Compile(d.N())
		if err != nil {
			fmt.Fprintln(os.Stderr, "colorsim:", err)
			os.Exit(2)
		}
	}
	// Dynamic topology: parse the schedule and compile it against the
	// deployment (node positions feed waypoint mobility when present).
	// Churn owns the graph's edge set mid-run, so it cannot combine
	// with a medium (bound to a static graph) or clock skew (the
	// half-slot engine has no churn seam).
	var chSch *churn.Schedule
	var chPlan *churn.Plan
	if *churnF != "" {
		chSch, err = churn.ParseSchedule(*churnF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "colorsim:", err)
			os.Exit(2)
		}
		if inj.HasSkew() {
			fmt.Fprintln(os.Stderr, "colorsim: -churn cannot combine with clock-skew faults (the half-slot engine has no churn seam)")
			os.Exit(2)
		}
		env := churn.Env{G: d.G}
		if len(chSch.Waypoints) > 0 {
			if d.Points == nil {
				fmt.Fprintln(os.Stderr, "colorsim: waypoint mobility needs a geometric topology (node positions)")
				os.Exit(2)
			}
			env.Points, env.Radius = d.Points, d.Radius
		}
		chPlan, err = chSch.Compile(env)
		if err != nil {
			fmt.Fprintln(os.Stderr, "colorsim:", err)
			os.Exit(2)
		}
	}
	// Reception medium: parse the spec, check it against the deployment
	// (SINR needs positions, no medium composes with clock skew), and
	// bind it for the run.
	var med medium.Instance
	if spec, serr := medium.ParseSpec(*mediumF); serr != nil {
		fmt.Fprintln(os.Stderr, "colorsim:", serr)
		os.Exit(2)
	} else if spec != nil {
		if inj.HasSkew() {
			fmt.Fprintln(os.Stderr, "colorsim: -medium cannot combine with clock-skew faults (the half-slot engine has no medium seam)")
			os.Exit(2)
		}
		if chPlan != nil {
			fmt.Fprintln(os.Stderr, "colorsim: -medium cannot combine with -churn (media bind to a static graph)")
			os.Exit(2)
		}
		if spec.Kind == medium.KindSINR && d.Points == nil {
			fmt.Fprintln(os.Stderr, "colorsim: a sinr medium needs a geometric topology (node positions)")
			os.Exit(2)
		}
		model, merr := spec.Build()
		if merr == nil {
			csr := d.G.CSR()
			med, merr = model.Bind(medium.Env{
				N: d.N(), Offsets: csr.Offsets, Edges: csr.Edges,
				Points: d.Points, Seed: *seed,
			})
		}
		if merr != nil {
			fmt.Fprintln(os.Stderr, "colorsim:", merr)
			os.Exit(2)
		}
	}
	collector := &obs.Collector{Metrics: met, Tracer: tracer, Timeline: timeline}
	nodes, protos := core.Nodes(d.N(), *seed, par, core.Ablation{})
	core.ObservePhases(nodes, collector)
	cfg := radio.Config{
		G: d.G, Protocols: protos, Wake: wake,
		MaxSlots: budget, NEstimate: par.N,
		Observer: radio.CollectorObserver(collector),
		Metrics:  met,
		Faults:   inj,
		Churn:    chPlan,
		Medium:   med,
		Tiles:    *tile,
	}
	var res *radio.Result
	if inj.HasSkew() {
		res, err = radio.RunUnalignedContext(ctx, cfg, nil)
	} else {
		res, err = radio.RunContext(ctx, cfg)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "colorsim: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "colorsim:", err)
		os.Exit(1)
	}
	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "colorsim:", err)
			os.Exit(1)
		}
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "colorsim:", err)
			os.Exit(1)
		}
	}
	colors := make([]int32, d.N())
	tcs := make([]int32, d.N())
	leaders := 0
	for i, v := range nodes {
		colors[i] = v.Color()
		tcs[i] = v.TC()
		if v.IsLeader() {
			leaders++
		}
	}
	// A churned run is judged against the topology it ended with, not
	// the one it started from: mobility and departures change both.
	vg := d.G
	if chPlan != nil {
		vg = chPlan.FinalGraph(d.G)
	}
	report := verify.Check(vg, colors)

	fmt.Printf("topology   : %s (n=%d, m=%d, Δ=%d, κ₁=%d, κ₂=%d)\n",
		d.Name, d.N(), d.G.M(), par.Delta, par.Kappa1, par.Kappa2)
	fmt.Printf("parameters : α=%.3g β=%.3g γ=%.3g σ=%.3g  (wait=%d, threshold=%d slots)\n",
		par.Alpha, par.Beta, par.Gamma, par.Sigma, par.WaitSlots(), par.Threshold())
	fmt.Printf("wakeup     : %s\n", *wakeup)
	if med != nil {
		fmt.Printf("medium     : %s\n", *mediumF)
	}
	fmt.Printf("radio      : %v\n", res)
	if res.Drowned > 0 || res.BelowNoise > 0 || res.Captures > 0 && med != nil {
		fmt.Printf("sinr       : captured=%d drowned=%d below-noise=%d\n",
			res.Captures, res.Drowned, res.BelowNoise)
	}
	fmt.Printf("coloring   : %v\n", report)
	fmt.Printf("leaders    : %d (color 0)\n", leaders)
	var srep *verify.SurvivorReport
	if inj != nil || chPlan != nil {
		srep = verify.CheckSurvivorsScoped(vg, colors,
			verify.DownSet(d.N(), res.Down), verify.DownSet(d.N(), res.Left))
		if inj != nil {
			fmt.Printf("faults     : %s\n", prof)
			fmt.Printf("             lost=%d jammed=%d crashes=%d restarts=%d down=%d\n",
				res.Lost, res.Jammed, res.Crashes, res.Restarts, len(res.Down))
		}
		if chPlan != nil {
			fmt.Printf("churn      : %s\n", chSch)
			fmt.Printf("             joins=%d leaves=%d repaired=%d left=%d\n",
				res.Joins, res.Leaves, res.ConflictsRepaired, len(res.Left))
		}
		verdict := "graceful degradation"
		if srep.Hard() {
			verdict = "HARD FAILURE"
		}
		fmt.Printf("survivors  : %v — %s\n", srep, verdict)
	}
	if res.AllDone {
		var lat []float64
		for v := 0; v < d.N(); v++ {
			lat = append(lat, float64(res.Latency(v)))
		}
		s := stats.Summarize(lat)
		fmt.Printf("latency T_v: mean=%.0f median=%.0f p90=%.0f max=%.0f slots\n",
			s.Mean, s.Median, s.P90, s.Max)
	}
	if viol := verify.CheckLocality(vg, colors, par.Kappa2); len(viol) == 0 {
		fmt.Println("locality   : φ_v ≤ (κ₂+1)·θ_v holds at every node (Theorem 4)")
	} else {
		fmt.Printf("locality   : %d violations (first: %+v)\n", len(viol), viol[0])
	}
	if *energy {
		per := res.PerNodeEnergy(radio.DefaultEnergyModel())
		fmt.Printf("energy     : total=%.0f units, %s\n",
			res.TotalEnergy(radio.DefaultEnergyModel()), summarizeFloats(per))
	}
	if *verbose {
		fmt.Println("colors     :")
		for v := 0; v < d.N(); v++ {
			fmt.Printf("  node %4d: color %4d (tc=%d)\n", v, colors[v], tcs[v])
		}
	}
	if *metrics {
		s := met.Snapshot()
		fmt.Printf("metrics    : %v\n", s)
		fmt.Printf("timeline   :\n")
		ph := timeline.Phases()
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			tot := ph[p]
			if tot.NodeSlots == 0 && tot.Entries == 0 {
				continue
			}
			fmt.Printf("  %-8s: %8d node-slots  tx=%-8d rx=%-8d coll=%-8d entries=%d\n",
				p, tot.NodeSlots, tot.Transmissions, tot.Deliveries, tot.Collisions, tot.Entries)
		}
	}
	if *traceOut != "" {
		fmt.Printf("trace      : wrote %d events to %s\n", tracer.Total(), *traceOut)
	} else if tracer != nil {
		fmt.Printf("trace      : last %d radio events\n", len(tracer.Events()))
		if err := tracer.Dump(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "colorsim:", err)
		}
	}
	if *svgFile != "" {
		if d.Points == nil {
			fmt.Fprintln(os.Stderr, "colorsim: -svg needs a geometric topology")
		} else {
			f, err := os.Create(*svgFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "colorsim:", err)
				os.Exit(1)
			}
			if err := render.SVG(f, d, colors, render.NewOptions()); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, "colorsim:", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "colorsim:", err)
				os.Exit(1)
			}
			fmt.Printf("svg        : wrote %s\n", *svgFile)
		}
	}
	// Verdict: a faulted or churned run may legitimately end incomplete
	// (crashed nodes hold no color, departed nodes left scope); only a
	// hard violation — two live adjacent nodes sharing a color — fails
	// it. Fault- and churn-free runs keep the strict completeness bar.
	if inj != nil || chPlan != nil {
		if srep.Hard() {
			os.Exit(1)
		}
	} else if !res.AllDone || !report.OK() {
		os.Exit(1)
	}
}

func summarizeFloats(xs []float64) string {
	s := stats.Summarize(xs)
	return fmt.Sprintf("per node mean=%.0f p90=%.0f max=%.0f", s.Mean, s.P90, s.Max)
}

// relabelForTiles renumbers the deployment along the tiled kernel's
// locality pass: Hilbert curve when positions are known, BFS order
// otherwise. Points move with their nodes, so -svg output and the
// medium's geometry stay correct.
func relabelForTiles(d *topology.Deployment) {
	n := d.G.N()
	var p graph.Permutation
	if d.Points != nil {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i, pt := range d.Points {
			xs[i], ys[i] = pt.X, pt.Y
		}
		p = graph.HilbertOrder(xs, ys)
	} else {
		p = graph.BFSOrder(d.G)
	}
	d.G = p.Apply(d.G)
	if d.Points != nil {
		pts := make([]geom.Point, n)
		for old, nid := range p.Forward {
			pts[nid] = d.Points[old]
		}
		d.Points = pts
	}
}

func makeDeployment(topo string, n int, side, radius float64, walls int, seed int64) (*topology.Deployment, error) {
	cfg := topology.UDGConfig{N: n, Side: side, Radius: radius, Seed: seed}
	switch topo {
	case "udg":
		return topology.RandomUDG(cfg), nil
	case "big":
		return topology.BIGWithWalls(cfg, walls), nil
	case "corridor":
		return topology.CorridorUDG(n, side*4, 2, radius, seed), nil
	case "clustered":
		return topology.ClusteredUDG(n/2, n-n/2, side, radius, seed), nil
	case "grid":
		k := 1
		for (k+1)*(k+1) <= n {
			k++
		}
		return topology.GridGraph(k, k, 1, 1.5), nil
	case "ring":
		return topology.Ring(n), nil
	case "clique":
		return topology.Clique(n), nil
	case "star":
		return topology.Star(n), nil
	case "tree":
		return topology.RandomTree(n, seed), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", topo)
	}
}
