package experiment

import (
	"fmt"
	"math/rand"

	"radiocolor/internal/adversary"
	"radiocolor/internal/collect"
	"radiocolor/internal/core"
	"radiocolor/internal/estimate"
	"radiocolor/internal/fault"
	"radiocolor/internal/medium"
	"radiocolor/internal/radio"
	"radiocolor/internal/reduce"
	"radiocolor/internal/sched"
	"radiocolor/internal/stats"
	"radiocolor/internal/topology"
	"radiocolor/internal/verify"
)

// The extension experiments E13–E16 go beyond the paper's evaluation and
// implement the directions its text points to: distance-2 coloring for
// fully collision-free TDMA (introduction), local degree estimation
// instead of a global Δ (Sect. 6 future work), random identifiers
// (Sect. 2), and robustness to message loss beyond the model.

// E13Distance2 quantifies the 1-hop vs 2-hop coloring trade-off the
// introduction discusses: a correct 1-hop coloring eliminates direct
// interference but leaves ≤ κ₁ hidden-terminal interferers per receiver,
// while a distance-2 coloring (the algorithm run over G², i.e. with
// doubled transmission power during initialization) eliminates all
// collisions at the price of more colors and a longer run.
func E13Distance2(o Options) *stats.Table {
	o = o.normalized()
	t := stats.NewTable("E13: 1-hop vs distance-2 coloring (introduction's TDMA discussion)",
		"variant", "correct", "mean #colors", "mean maxT", "TDMA direct conflicts", "TDMA hidden collisions", "frame success")
	n := o.scale(110, 40)
	variants := []string{"1-hop", "distance-2"}
	type varRes struct {
		ok             bool
		colors, ts     float64
		direct, hidden int
		success        float64
	}
	rows := parMap(o, "E13", o.Trials, func(tr int) [2]varRes {
		seed := trialSeed(o.Seed, 1000, tr)
		d := topology.RandomUDG(topology.UDGConfig{N: n, Side: 6, Radius: 1.1, Seed: seed})
		var out [2]varRes
		for vi, variant := range variants {
			commGraph := d.G
			if variant == "distance-2" {
				commGraph = d.G.Square()
			}
			dd := &topology.Deployment{Name: d.Name + "/" + variant, G: commGraph}
			par := MeasureParams(dd)
			run, err := RunCore(dd, par, radio.WakeSynchronous(dd.N()), seed, defaultBudget(par), core0)
			if err != nil {
				panic(err)
			}
			// Validity is judged on the graph the protocol ran over; the
			// TDMA schedule is evaluated on the PHYSICAL graph d.G.
			if run.Correct() {
				s, err := sched.FromColoring(run.Colors)
				if err != nil {
					panic(err)
				}
				frame := s.SimulateFrame(d.G)
				out[vi] = varRes{
					ok:      true,
					colors:  float64(run.Report.NumColors),
					ts:      float64(run.Radio.MaxLatency()),
					direct:  len(s.DirectConflicts(d.G)),
					hidden:  frame.Collisions,
					success: frame.SuccessRate(),
				}
			}
		}
		return out
	})
	type acc struct {
		correct        int
		colors, ts     []float64
		direct, hidden int
		success        []float64
	}
	accs := map[string]*acc{"1-hop": {}, "distance-2": {}}
	for _, r := range rows {
		for vi, variant := range variants {
			v := r[vi]
			if !v.ok {
				continue
			}
			a := accs[variant]
			a.correct++
			a.colors = append(a.colors, v.colors)
			a.ts = append(a.ts, v.ts)
			a.direct += v.direct
			a.hidden += v.hidden
			a.success = append(a.success, v.success)
		}
	}
	for _, variant := range variants {
		a := accs[variant]
		t.AddRow(variant, fmt.Sprintf("%d/%d", a.correct, o.Trials),
			stats.Mean(a.colors), stats.Mean(a.ts), a.direct, a.hidden, stats.Mean(a.success))
	}
	return t
}

// E14AdaptiveDelta implements and evaluates the conclusion's future-work
// direction (Sect. 6): estimate the local maximum degree from channel
// observations instead of assuming a global Δ. Reported against the
// known-Δ baseline on the same deployments.
func E14AdaptiveDelta(o Options) *stats.Table {
	o = o.normalized()
	t := stats.NewTable("E14: local degree estimation instead of global Δ (Sect. 6 future work)",
		"variant", "correct", "mean maxT", "mean Δ used", "true Δ", "mean est/deg ratio")
	n := o.scale(110, 40)
	type trialRes struct {
		trueDelta             int
		baseOK                bool
		baseT                 float64
		adOK                  bool
		adT, adDelta, adRatio float64
	}
	rows := parMap(o, "E14", o.Trials, func(tr int) trialRes {
		seed := trialSeed(o.Seed, 1100, tr)
		d := topology.ClusteredUDG(n/2, n-n/2, 14, 1.1, seed)
		par := MeasureParams(d)
		r := trialRes{trueDelta: par.Delta}

		run, err := RunCore(d, par, radio.WakeSynchronous(d.N()), seed, defaultBudget(par), core0)
		if err != nil {
			panic(err)
		}
		if run.Correct() {
			r.baseOK = true
			r.baseT = float64(run.Radio.MaxLatency())
		}

		cfg := estimate.DefaultConfig(d.N(), par.Kappa1, par.Kappa2)
		nodes, protos := estimate.AdaptiveNodes(d.N(), seed+1, cfg, core0)
		res, err := radio.Run(radio.Config{
			G: d.G, Protocols: protos, Wake: radio.WakeSynchronous(d.N()),
			MaxSlots: 4 * defaultBudget(par),
		})
		if err != nil {
			panic(err)
		}
		colors := make([]int32, d.N())
		var deltaSum, ratioSum float64
		for i, v := range nodes {
			colors[i] = v.Color()
			deltaSum += float64(v.DeltaUsed())
			ratioSum += float64(v.DeltaEstimate()) / float64(d.G.Degree(i))
		}
		if res.AllDone && verify.Check(d.G, colors).OK() {
			r.adOK = true
			r.adT = float64(res.MaxLatency())
			r.adDelta = deltaSum / float64(d.N())
			r.adRatio = ratioSum / float64(d.N())
		}
		return r
	})
	type acc struct {
		correct    int
		ts, deltas []float64
		ratio      []float64
		trueDelta  int
	}
	accs := map[string]*acc{"known Δ": {}, "estimated Δ": {}}
	for _, r := range rows {
		base := accs["known Δ"]
		base.trueDelta = r.trueDelta
		if r.baseOK {
			base.correct++
			base.ts = append(base.ts, r.baseT)
			base.deltas = append(base.deltas, float64(r.trueDelta))
			base.ratio = append(base.ratio, 1)
		}
		ad := accs["estimated Δ"]
		ad.trueDelta = r.trueDelta
		if r.adOK {
			ad.correct++
			ad.ts = append(ad.ts, r.adT)
			ad.deltas = append(ad.deltas, r.adDelta)
			ad.ratio = append(ad.ratio, r.adRatio)
		}
	}
	for _, variant := range []string{"known Δ", "estimated Δ"} {
		a := accs[variant]
		t.AddRow(variant, fmt.Sprintf("%d/%d", a.correct, o.Trials),
			stats.Mean(a.ts), stats.Mean(a.deltas), a.trueDelta, stats.Mean(a.ratio))
	}
	return t
}

// E15RandomIDs evaluates the Sect. 2 identifier scheme: nodes draw their
// IDs uniformly from [1..n³] upon waking up. The analytical collision
// bound is P_ambIDs ≤ C(n,2)/n³ ∈ O(1/n); the experiment reports the
// observed collision and correctness rates.
func E15RandomIDs(o Options) *stats.Table {
	o = o.normalized()
	t := stats.NewTable("E15: random identifiers from [1..n³] (Sect. 2)",
		"n", "trials", "runs with id collisions", "analytical bound", "correct", "mean #colors")
	trials := o.Trials * 2
	bases := []int{48, 96, 192}
	ns := make([]int, len(bases))
	for i, base := range bases {
		ns[i] = o.scale(base, 24)
	}
	type trialRes struct {
		collided, ok bool
		colors       float64
	}
	grid := parTrials(o, "E15", len(bases), trials, func(ci, tr int) trialRes {
		n := ns[ci]
		seed := trialSeed(o.Seed, 1200+ci, tr)
		d := topology.RandomUDG(topology.UDGConfig{N: n, Side: 6, Radius: 1.4, Seed: seed})
		par := MeasureParams(d)
		nodes, protos, ids := core.NodesWithRandomIDs(d.N(), seed, par, core0, 0)
		r := trialRes{collided: core.CountIDCollisions(ids) > 0}
		res, err := radio.Run(radio.Config{
			G: d.G, Protocols: protos, Wake: radio.WakeSynchronous(d.N()),
			MaxSlots: defaultBudget(par), NEstimate: par.N,
		})
		if err != nil {
			panic(err)
		}
		cs := make([]int32, d.N())
		for i, v := range nodes {
			cs[i] = v.Color()
		}
		if res.AllDone && verify.Check(d.G, cs).OK() {
			r.ok = true
			r.colors = float64(verify.Check(d.G, cs).NumColors)
		}
		return r
	})
	for ci := range bases {
		n := ns[ci]
		collided, correct := 0, 0
		var colors []float64
		for _, r := range grid[ci] {
			if r.collided {
				collided++
			}
			if r.ok {
				correct++
				colors = append(colors, r.colors)
			}
		}
		bound := float64(n-1) / (2 * float64(n) * float64(n))
		t.AddRow(n, trials, collided, fmt.Sprintf("P ≤ %.2e", bound),
			fmt.Sprintf("%d/%d", correct, trials), stats.Mean(colors))
	}
	return t
}

// E16MessageLoss injects delivery failures beyond the model (each
// successful reception is suppressed independently with probability p,
// through the fault layer's i.i.d. link loss) and measures how the
// protocol degrades. Losses are indistinguishable from collisions to
// the nodes, so the counters-and-critical-ranges machinery absorbs
// moderate loss at the price of longer runs.
func E16MessageLoss(o Options) *stats.Table {
	o = o.normalized()
	t := stats.NewTable("E16: robustness to message loss beyond the model",
		"loss prob", "correct", "complete", "mean maxT", "slowdown vs lossless")
	n := o.scale(110, 40)
	probs := []float64{0, 0.1, 0.2, 0.3, 0.5}
	type trialRes struct {
		complete, ok bool
		t            float64
	}
	grid := parTrials(o, "E16", len(probs), o.Trials, func(ci, tr int) trialRes {
		seed := trialSeed(o.Seed, 1300+ci, tr)
		d := topology.RandomUDG(topology.UDGConfig{N: n, Side: 6, Radius: 1.2, Seed: seed})
		par := MeasureParams(d)
		inj, err := (&fault.Profile{Seed: seed, Loss: probs[ci]}).Compile(d.N())
		if err != nil {
			panic(err)
		}
		nodes, protos := core.Nodes(d.N(), seed, par, core0)
		res, err := radio.Run(radio.Config{
			G: d.G, Protocols: protos, Wake: radio.WakeSynchronous(d.N()),
			MaxSlots: 4 * defaultBudget(par), NEstimate: par.N,
			Faults: inj,
		})
		if err != nil {
			panic(err)
		}
		cs := make([]int32, d.N())
		for i, v := range nodes {
			cs[i] = v.Color()
		}
		r := trialRes{complete: res.AllDone}
		if res.AllDone && verify.Check(d.G, cs).OK() {
			r.ok = true
			r.t = float64(res.MaxLatency())
		}
		return r
	})
	var baseline float64
	for ci, p := range probs {
		correct, complete := 0, 0
		var ts []float64
		for _, r := range grid[ci] {
			if r.complete {
				complete++
			}
			if r.ok {
				correct++
				ts = append(ts, r.t)
			}
		}
		mean := stats.Mean(ts)
		if p == 0 {
			baseline = mean
		}
		slowdown := "–"
		if baseline > 0 && mean > 0 {
			slowdown = fmt.Sprintf("%.2f×", mean/baseline)
		}
		t.AddRow(p, fmt.Sprintf("%d/%d", correct, o.Trials),
			fmt.Sprintf("%d/%d", complete, o.Trials), mean, slowdown)
	}
	return t
}

// E17Unaligned tests the Sect. 2 remark that all results carry over to
// non-aligned slot boundaries with a small constant factor: nodes run
// with half-slot clock offsets (transmissions can overlap two slots of a
// neighbor), and the experiment compares correctness and latency with
// the aligned engine on identical deployments.
func E17Unaligned(o Options) *stats.Table {
	o = o.normalized()
	t := stats.NewTable("E17: non-aligned slot boundaries (Sect. 2 remark; expect small constant slowdown)",
		"engine", "correct", "mean maxT", "slowdown", "mean deliveries/tx")
	n := o.scale(110, 40)
	engines := []string{"aligned", "unaligned"}
	type engRes struct {
		ok     bool
		t      float64
		eff    float64
		hasEff bool
	}
	rows := parMap(o, "E17", o.Trials, func(tr int) [2]engRes {
		seed := trialSeed(o.Seed, 1400, tr)
		d := topology.RandomUDG(topology.UDGConfig{N: n, Side: 6, Radius: 1.2, Seed: seed})
		par := MeasureParams(d)
		var out [2]engRes
		for ei, engine := range engines {
			nodes, protos := core.Nodes(d.N(), seed, par, core0)
			cfg := radio.Config{
				G: d.G, Protocols: protos, Wake: radio.WakeSynchronous(d.N()),
				MaxSlots: 4 * defaultBudget(par), NEstimate: par.N,
			}
			var res *radio.Result
			var err error
			if engine == "aligned" {
				res, err = radio.Run(cfg)
			} else {
				res, err = radio.RunUnaligned(cfg, nil)
			}
			if err != nil {
				panic(err)
			}
			cs := make([]int32, d.N())
			for i, v := range nodes {
				cs[i] = v.Color()
			}
			if res.AllDone && verify.Check(d.G, cs).OK() {
				out[ei].ok = true
				out[ei].t = float64(res.MaxLatency())
				if res.Transmissions > 0 {
					out[ei].hasEff = true
					out[ei].eff = float64(res.Deliveries) / float64(res.Transmissions)
				}
			}
		}
		return out
	})
	type acc struct {
		correct  int
		ts, effs []float64
	}
	accs := map[string]*acc{"aligned": {}, "unaligned": {}}
	for _, r := range rows {
		for ei, engine := range engines {
			v := r[ei]
			if !v.ok {
				continue
			}
			a := accs[engine]
			a.correct++
			a.ts = append(a.ts, v.t)
			if v.hasEff {
				a.effs = append(a.effs, v.eff)
			}
		}
	}
	base := stats.Mean(accs["aligned"].ts)
	for _, engine := range engines {
		a := accs[engine]
		slow := "–"
		if base > 0 && stats.Mean(a.ts) > 0 {
			slow = fmt.Sprintf("%.2f×", stats.Mean(a.ts)/base)
		}
		t.AddRow(engine, fmt.Sprintf("%d/%d", a.correct, o.Trials),
			stats.Mean(a.ts), slow, stats.Mean(a.effs))
	}
	return t
}

// E18MISFromScratch measures when the protocol's first stage completes:
// the moment every node has left A₀ (become a leader or associated with
// one), the leaders form a maximal independent set and every non-leader
// has a leader neighbor — the "MIS / clustering from scratch"
// substructure of the companion works [13, 21] the paper builds on. The
// experiment reports how early in the run that structure is available
// and verifies its MIS properties directly.
func E18MISFromScratch(o Options) *stats.Table {
	o = o.normalized()
	t := stats.NewTable("E18: the MIS substructure (leaders + coverage) emerges early ([13, 21])",
		"n", "correct MIS", "mean MIS-done slot", "mean total slots", "MIS at % of run", "mean leaders")
	bases := []int{80, 160, 320}
	ns := make([]int, len(bases))
	for i, base := range bases {
		ns[i] = o.scale(base, 32)
	}
	type trialRes struct {
		ok, misOK               bool
		misDone, total, leaders float64
	}
	grid := parTrials(o, "E18", len(bases), o.Trials, func(ci, tr int) trialRes {
		seed := trialSeed(o.Seed, 1500+ci, tr)
		d := topology.RandomUDG(topology.UDGConfig{N: ns[ci], Side: 6, Radius: 1.15, Seed: seed})
		par := MeasureParams(d)
		run, err := RunCore(d, par, radio.WakeSynchronous(d.N()), seed, defaultBudget(par), core0)
		if err != nil {
			panic(err)
		}
		var r trialRes
		if !run.Correct() {
			return r
		}
		r.ok = true
		// When did the last node leave A₀?
		last := int64(0)
		var leaderSet []int32
		for i, v := range run.Nodes {
			if at := v.LeftClassZeroAt(); at > last {
				last = at
			}
			if v.IsLeader() {
				leaderSet = append(leaderSet, int32(i))
			}
		}
		// MIS properties: independence + domination.
		indep := d.G.IsIndependent(leaderSet)
		isLeader := make(map[int32]bool, len(leaderSet))
		for _, l := range leaderSet {
			isLeader[l] = true
		}
		dominated := true
		for v := 0; v < d.N(); v++ {
			if isLeader[int32(v)] {
				continue
			}
			ok := false
			for _, u := range d.G.Adj(v) {
				if isLeader[u] {
					ok = true
					break
				}
			}
			if !ok {
				dominated = false
			}
		}
		r.misOK = indep && dominated
		r.misDone = float64(last)
		r.total = float64(run.Radio.Slots)
		r.leaders = float64(len(leaderSet))
		return r
	})
	for ci := range bases {
		okMIS := 0
		var misDone, total, leaders []float64
		for _, r := range grid[ci] {
			if !r.ok {
				continue
			}
			if r.misOK {
				okMIS++
			}
			misDone = append(misDone, r.misDone)
			total = append(total, r.total)
			leaders = append(leaders, r.leaders)
		}
		frac := "–"
		if stats.Mean(total) > 0 {
			frac = fmt.Sprintf("%.0f%%", 100*stats.Mean(misDone)/stats.Mean(total))
		}
		t.AddRow(ns[ci], fmt.Sprintf("%d/%d", okMIS, o.Trials), stats.Mean(misDone),
			stats.Mean(total), frac, stats.Mean(leaders))
	}
	return t
}

// E19ColorReduction evaluates the post-initialization color-compaction
// extension (internal/reduce): how far the protocol's O(κ₂Δ) palette can
// be squeezed toward the centralized greedy scale once the network is up,
// while staying proper.
func E19ColorReduction(o Options) *stats.Table {
	o = o.normalized()
	t := stats.NewTable("E19: post-initialization color compaction (extension)",
		"stage", "proper", "mean #colors", "mean max color", "max color vs Δ", "mean moves/node")
	n := o.scale(110, 40)
	type trialRes struct {
		ok                    bool
		delta                 int
		protoColors, protoMax float64
		redOK                 bool
		redColors, redMax     float64
		redMoves              float64
		gColors, gMax         float64
	}
	rows := parMap(o, "E19", o.Trials, func(tr int) trialRes {
		seed := trialSeed(o.Seed, 1600, tr)
		d := topology.RandomUDG(topology.UDGConfig{N: n, Side: 6, Radius: 1.2, Seed: seed})
		par := MeasureParams(d)
		run, err := RunCore(d, par, radio.WakeSynchronous(d.N()), seed, defaultBudget(par), core0)
		if err != nil {
			panic(err)
		}
		var r trialRes
		if !run.Correct() {
			return r
		}
		r.ok = true
		r.delta = par.Delta
		r.protoColors = float64(run.Report.NumColors)
		r.protoMax = float64(run.Report.MaxColor)

		rp := reduce.Params{N: par.N, Delta: par.Delta, Kappa2: par.Kappa2}
		rNodes, rProtos := reduce.Nodes(run.Colors, seed+1, rp)
		rRes, err := radio.Run(radio.Config{
			G: d.G, Protocols: rProtos, Wake: radio.WakeSynchronous(d.N()),
			MaxSlots: 100_000_000,
		})
		if err != nil {
			panic(err)
		}
		after := make([]int32, d.N())
		var totalMoves int64
		for i, v := range rNodes {
			after[i] = v.Color()
			totalMoves += v.Moves()
		}
		rRep := verify.Check(d.G, after)
		if rRes.AllDone && rRep.OK() {
			r.redOK = true
			r.redColors = float64(rRep.NumColors)
			r.redMax = float64(rRep.MaxColor)
			r.redMoves = float64(totalMoves) / float64(d.N())
		}

		gc := d.G.GreedyColoring()
		gRep := verify.Check(d.G, gc)
		r.gColors = float64(gRep.NumColors)
		r.gMax = float64(gRep.MaxColor)
		return r
	})
	type acc struct {
		proper        int
		colors, maxes []float64
		moves         []float64
		delta         int
	}
	accs := map[string]*acc{"after protocol": {}, "after reduction": {}, "centralized greedy": {}}
	for _, r := range rows {
		if !r.ok {
			continue
		}
		base := accs["after protocol"]
		base.delta = r.delta
		base.proper++
		base.colors = append(base.colors, r.protoColors)
		base.maxes = append(base.maxes, r.protoMax)
		base.moves = append(base.moves, 0)

		red := accs["after reduction"]
		red.delta = r.delta
		if r.redOK {
			red.proper++
			red.colors = append(red.colors, r.redColors)
			red.maxes = append(red.maxes, r.redMax)
			red.moves = append(red.moves, r.redMoves)
		}

		g := accs["centralized greedy"]
		g.delta = r.delta
		g.proper++
		g.colors = append(g.colors, r.gColors)
		g.maxes = append(g.maxes, r.gMax)
		g.moves = append(g.moves, 0)
	}
	for _, stage := range []string{"after protocol", "after reduction", "centralized greedy"} {
		a := accs[stage]
		ratio := "–"
		if a.delta > 0 && stats.Mean(a.maxes) > 0 {
			ratio = fmt.Sprintf("%.2f×Δ", stats.Mean(a.maxes)/float64(a.delta))
		}
		t.AddRow(stage, fmt.Sprintf("%d/%d", a.proper, o.Trials),
			stats.Mean(a.colors), stats.Mean(a.maxes), ratio, stats.Mean(a.moves))
	}
	return t
}

// E20CaptureEffect injects the capture effect, a deviation ABOVE the
// model: real radios often decode the stronger of two colliding signals,
// while the model assumes every collision destroys both. The protocol's
// guarantees are proved without capture, so capture can only help — the
// experiment quantifies the speedup and confirms correctness is
// unaffected. Capture is the graph medium's two-way capture coin
// (medium.GraphThreshold.Capture), seeded with the trial seed.
func E20CaptureEffect(o Options) *stats.Table {
	o = o.normalized()
	t := stats.NewTable("E20: capture effect (model deviation above spec)",
		"capture prob", "correct", "mean maxT", "speedup", "captures/collisions")
	n := o.scale(110, 40)
	probs := []float64{0, 0.25, 0.5, 1.0}
	type trialRes struct {
		ok          bool
		t           float64
		caps, colls int64
	}
	grid := parTrials(o, "E20", len(probs), o.Trials, func(ci, tr int) trialRes {
		seed := trialSeed(o.Seed, 1700+ci, tr)
		d := topology.RandomUDG(topology.UDGConfig{N: n, Side: 6, Radius: 1.2, Seed: seed})
		par := MeasureParams(d)
		csr := d.G.CSR()
		med, err := medium.GraphThreshold{Capture: probs[ci]}.Bind(medium.Env{
			N: d.N(), Offsets: csr.Offsets, Edges: csr.Edges, Seed: seed,
		})
		if err != nil {
			panic(err)
		}
		nodes, protos := core.Nodes(d.N(), seed, par, core0)
		res, err := radio.Run(radio.Config{
			G: d.G, Protocols: protos, Wake: radio.WakeSynchronous(d.N()),
			MaxSlots: defaultBudget(par), NEstimate: par.N,
			Medium: med,
		})
		if err != nil {
			panic(err)
		}
		cs := make([]int32, d.N())
		for i, v := range nodes {
			cs[i] = v.Color()
		}
		r := trialRes{caps: res.Captures, colls: res.Collisions}
		if res.AllDone && verify.Check(d.G, cs).OK() {
			r.ok = true
			r.t = float64(res.MaxLatency())
		}
		return r
	})
	var baseline float64
	for ci, p := range probs {
		correct := 0
		var ts []float64
		var caps, colls int64
		for _, r := range grid[ci] {
			if r.ok {
				correct++
				ts = append(ts, r.t)
			}
			caps += r.caps
			colls += r.colls
		}
		mean := stats.Mean(ts)
		if p == 0 {
			baseline = mean
		}
		speed := "–"
		if baseline > 0 && mean > 0 {
			speed = fmt.Sprintf("%.2f×", baseline/mean)
		}
		t.AddRow(p, fmt.Sprintf("%d/%d", correct, o.Trials), mean, speed,
			fmt.Sprintf("%d/%d", caps, caps+colls))
	}
	return t
}

// E21MultiChannel restores the multi-channel assumption of the earlier
// unstructured-radio works [13, 14] that the paper explicitly drops
// (Sect. 2: "In our model, there is only one communication channel").
// Nodes hop uniformly at random over k channels each slot; the protocol
// runs unchanged. More channels thin contention quadratically but thin
// useful receptions linearly (sender and receiver must coincide), so the
// counter-paced algorithm gains nothing — evidence that the paper's
// single-channel model is not only weaker but also this algorithm's best
// operating point.
func E21MultiChannel(o Options) *stats.Table {
	o = o.normalized()
	t := stats.NewTable("E21: multiple channels ([13, 14] assumption restored)",
		"channels", "correct", "mean maxT", "vs 1 channel", "deliveries/tx", "collisions/tx")
	n := o.scale(110, 40)
	channels := []int{1, 2, 4, 8}
	type trialRes struct {
		ok       bool
		t        float64
		hasRatio bool
		rx, coll float64
	}
	grid := parTrials(o, "E21", len(channels), o.Trials, func(ci, tr int) trialRes {
		seed := trialSeed(o.Seed, 1800+ci, tr)
		d := topology.RandomUDG(topology.UDGConfig{N: n, Side: 6, Radius: 1.2, Seed: seed})
		par := MeasureParams(d)
		nodes, protos := core.Nodes(d.N(), seed, par, core0)
		res, err := radio.RunMultiChannel(radio.Config{
			G: d.G, Protocols: protos, Wake: radio.WakeSynchronous(d.N()),
			MaxSlots: 8 * defaultBudget(par), NEstimate: par.N,
		}, channels[ci], seed)
		if err != nil {
			panic(err)
		}
		cs := make([]int32, d.N())
		for i, v := range nodes {
			cs[i] = v.Color()
		}
		var r trialRes
		if res.AllDone && verify.Check(d.G, cs).OK() {
			r.ok = true
			r.t = float64(res.MaxLatency())
		}
		if res.Transmissions > 0 {
			r.hasRatio = true
			r.rx = float64(res.Deliveries) / float64(res.Transmissions)
			r.coll = float64(res.Collisions) / float64(res.Transmissions)
		}
		return r
	})
	var baseline float64
	for ci, k := range channels {
		correct := 0
		var ts, rxRatio, collRatio []float64
		for _, r := range grid[ci] {
			if r.ok {
				correct++
				ts = append(ts, r.t)
			}
			if r.hasRatio {
				rxRatio = append(rxRatio, r.rx)
				collRatio = append(collRatio, r.coll)
			}
		}
		mean := stats.Mean(ts)
		if k == 1 {
			baseline = mean
		}
		rel := "–"
		if baseline > 0 && mean > 0 {
			rel = fmt.Sprintf("%.2f×", mean/baseline)
		}
		t.AddRow(k, fmt.Sprintf("%d/%d", correct, o.Trials), mean, rel,
			stats.Mean(rxRatio), stats.Mean(collRatio))
	}
	return t
}

// E22DataCollection closes the loop the paper's introduction opens:
// initialization from scratch → coloring → TDMA MAC → a working sensor
// workload. Convergecast data collection runs over three schedules —
// the protocol's own 1-hop coloring, the same coloring after compaction
// (E19), and a distance-2 coloring (E13) — measuring delivery, latency
// and the hidden-terminal retransmission tax at the application level.
func E22DataCollection(o Options) *stats.Table {
	o = o.normalized()
	t := stats.NewTable("E22: convergecast data collection over coloring-derived TDMA schedules",
		"schedule", "frame len", "delivery", "mean latency (slots)", "retx/packet")
	n := o.scale(110, 40)
	schedules := []string{"1-hop (protocol)", "compacted (E19)", "distance-2"}
	type schedRes struct {
		present                  bool
		frame, delivery, latency float64
		hasRetx                  bool
		retx                     float64
	}
	rows := parMap(o, "E22", o.Trials, func(tr int) [3]schedRes {
		var out [3]schedRes
		seed := trialSeed(o.Seed, 1900, tr)
		d := topology.RandomUDG(topology.UDGConfig{N: n, Side: 5.5, Radius: 1.3, Seed: seed})
		if !d.G.Connected() {
			return out
		}
		par := MeasureParams(d)
		run, err := RunCore(d, par, radio.WakeSynchronous(d.N()), seed, defaultBudget(par), core0)
		if err != nil {
			panic(err)
		}
		if !run.Correct() {
			return out
		}
		colorings := map[string][]int32{"1-hop (protocol)": run.Colors}

		rNodes, rProtos := reduce.Nodes(run.Colors, seed+1, reduce.Params{
			N: par.N, Delta: par.Delta, Kappa2: par.Kappa2})
		rRes, err := radio.Run(radio.Config{G: d.G, Protocols: rProtos,
			Wake: radio.WakeSynchronous(d.N()), MaxSlots: 200_000_000})
		if err != nil {
			panic(err)
		}
		compacted := make([]int32, d.N())
		for i, v := range rNodes {
			compacted[i] = v.Color()
		}
		if rRes.AllDone && verify.Check(d.G, compacted).OK() {
			colorings["compacted (E19)"] = compacted
		}
		colorings["distance-2"] = d.G.Square().GreedyColoring()

		for si, name := range schedules {
			colors, ok := colorings[name]
			if !ok {
				continue
			}
			s, err := sched.FromColoring(colors)
			if err != nil {
				panic(err)
			}
			stats_, err := collect.Run(d.G, s, collect.Config{
				Sink: 0, PacketsPerNode: 3, CoinSeed: seed,
			})
			if err != nil {
				panic(err)
			}
			out[si].present = true
			out[si].frame = float64(s.FrameLen)
			out[si].delivery = stats_.DeliveryRate()
			out[si].latency = stats_.MeanLatency
			if stats_.Generated > 0 {
				out[si].hasRetx = true
				out[si].retx = float64(stats_.Retransmissions) / float64(stats_.Generated)
			}
		}
		return out
	})
	type acc struct {
		frames, delivery, latency, retx []float64
	}
	accs := map[string]*acc{"1-hop (protocol)": {}, "compacted (E19)": {}, "distance-2": {}}
	for _, r := range rows {
		for si, name := range schedules {
			v := r[si]
			if !v.present {
				continue
			}
			a := accs[name]
			a.frames = append(a.frames, v.frame)
			a.delivery = append(a.delivery, v.delivery)
			a.latency = append(a.latency, v.latency)
			if v.hasRetx {
				a.retx = append(a.retx, v.retx)
			}
		}
	}
	for _, name := range schedules {
		a := accs[name]
		t.AddRow(name, stats.Mean(a.frames),
			fmt.Sprintf("%.1f%%", 100*stats.Mean(a.delivery)),
			stats.Mean(a.latency), stats.Mean(a.retx))
	}
	return t
}

// E23AdversarySearch stress-tests the "any wake-up distribution" claim
// (Sect. 2) with an active adversary: hill-climbing over wake-up
// schedules to maximize the worst per-node latency or break correctness
// outright. Run at the practical constants and at the 0.5× scale that
// E7 identified as the edge of the safe plateau.
func E23AdversarySearch(o Options) *stats.Table {
	o = o.normalized()
	t := stats.NewTable("E23: adversarial wake-up schedule search (Sect. 2 stress test)",
		"constants", "search evals", "schedules broken", "worst maxT found", "sync baseline maxT", "blow-up")
	n := o.scale(90, 40)
	evals := 6 * o.Trials
	scales := []float64{2.0, 1.0, 0.5}
	type cell struct {
		evals, broken  int
		best, baseline int64
	}
	rows := parMap(o, "E23", len(scales), func(ci int) cell {
		seed := trialSeed(o.Seed, 2000+ci, 0)
		d := topology.RandomUDG(topology.UDGConfig{N: n, Side: 5.5, Radius: 1.2, Seed: seed})
		par := MeasureParams(d).Scale(scales[ci])
		run, err := RunCore(d, par, radio.WakeSynchronous(d.N()), seed, defaultBudget(par), core0)
		if err != nil {
			panic(err)
		}
		res := adversary.Search(d, par, adversary.Config{Evals: evals, Seed: seed})
		return cell{res.Evals, res.Broken, res.BestScore, run.Radio.MaxLatency()}
	})
	for ci, scale := range scales {
		r := rows[ci]
		blowup := "–"
		if r.baseline > 0 && r.best > 0 && r.broken == 0 {
			blowup = fmt.Sprintf("%.2f×", float64(r.best)/float64(r.baseline))
		}
		t.AddRow(fmt.Sprintf("%.1f×practical", scale), r.evals, r.broken,
			r.best, r.baseline, blowup)
	}
	return t
}

// E24FaultInjection sweeps the fault layer's link-loss rate under a
// fixed random crash schedule (with some restarts) and measures
// graceful degradation: a faulted run may leave crashed or stuck nodes
// uncolored, but survivors must still form a proper partial coloring —
// the "hard" column counts live-live color conflicts and must stay 0.
func E24FaultInjection(o Options) *stats.Table {
	o = o.normalized()
	t := stats.NewTable("E24: fault injection — loss sweep with node crashes (graceful degradation)",
		"loss prob", "hard viol", "survivors colored", "all-surv runs", "mean colors", "mean lost", "mean down")
	n := o.scale(110, 40)
	probs := []float64{0, 0.02, 0.05, 0.1, 0.2}
	type trialRes struct {
		hard, colored, surv int
		colors              float64
		lost, down          float64
	}
	grid := parTrials(o, "E24", len(probs), o.Trials, func(ci, tr int) trialRes {
		seed := trialSeed(o.Seed, 1600+ci, tr)
		d := topology.RandomUDG(topology.UDGConfig{N: n, Side: 6, Radius: 1.2, Seed: seed})
		par := MeasureParams(d)
		budget := 4 * defaultBudget(par)
		// Crash inside [0, Threshold()): no node can decide before the
		// threshold, so every crash lands while the run is still live
		// (a window scaled to the budget would mostly miss the run).
		prof := &fault.Profile{Seed: seed, Loss: probs[ci], Crashes: crashSchedule(d.N(), par.Threshold(), seed)}
		inj, err := prof.Compile(d.N())
		if err != nil {
			panic(err)
		}
		nodes, protos := core.Nodes(d.N(), seed, par, core0)
		res, err := radio.Run(radio.Config{
			G: d.G, Protocols: protos, Wake: radio.WakeSynchronous(d.N()),
			MaxSlots: budget, NEstimate: par.N,
			Faults: inj,
		})
		if err != nil {
			panic(err)
		}
		cs := make([]int32, d.N())
		for i, v := range nodes {
			cs[i] = v.Color()
		}
		rep := verify.CheckSurvivors(d.G, cs, verify.DownSet(d.N(), res.Down))
		return trialRes{
			hard:    len(rep.HardViolations),
			colored: rep.SurvivorsColored,
			surv:    rep.Survivors,
			colors:  float64(rep.NumColors),
			lost:    float64(res.Lost),
			down:    float64(len(res.Down)),
		}
	})
	for ci, p := range probs {
		hard, colored, surv, allSurv := 0, 0, 0, 0
		var colors, lost, down []float64
		for _, r := range grid[ci] {
			hard += r.hard
			colored += r.colored
			surv += r.surv
			if r.colored == r.surv {
				allSurv++
			}
			colors = append(colors, r.colors)
			lost = append(lost, r.lost)
			down = append(down, r.down)
		}
		t.AddRow(p, hard, fmt.Sprintf("%d/%d", colored, surv),
			fmt.Sprintf("%d/%d", allSurv, o.Trials),
			stats.Mean(colors), stats.Mean(lost), stats.Mean(down))
	}
	return t
}

// crashSchedule fail-stops ~8% of the nodes at random slots in
// [0, window); every other victim restarts within another window.
// Deterministic in seed.
func crashSchedule(n int, window, seed int64) []fault.Crash {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	victims := rng.Perm(n)[:n/12+1]
	crashes := make([]fault.Crash, 0, len(victims))
	for i, v := range victims {
		at := rng.Int63n(window)
		c := fault.Crash{Node: v, At: at}
		if i%2 == 1 {
			c.Restart = at + 1 + rng.Int63n(window)
		}
		crashes = append(crashes, c)
	}
	return crashes
}
