package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"radiocolor/internal/core"
	"radiocolor/internal/fault"
	"radiocolor/internal/geom"
	"radiocolor/internal/graph"
	"radiocolor/internal/radio"
	"radiocolor/internal/verify"
)

// The traced run decomposes one public solve into the calls ColorGraph
// (or ColorUnitDisk) makes into each layer — graph build, κ pass,
// relabeling, node construction, the slot loop, verification — made
// here from the benchmark's own code so that each can be timed. The
// decomposition must reproduce the public call's colors bit for bit.

// sampleMask selects the slots whose Send/Recv calls are timed: one in
// every eight. Calls in other slots are only counted.
const sampleMask = 7

var clockEpoch = time.Now()

func nanotime() int64 { return int64(time.Since(clockEpoch)) }

// timedNode wraps a protocol node, counting every Send/Recv call and
// timing those in sampled slots. It forwards Reset (restarts) through
// the embedded node. One node's methods are never called concurrently,
// so the counters need no synchronization.
type timedNode struct {
	*core.Node
	sends, recvs   int64
	sSends, sRecvs int64
	sendNs, recvNs int64
}

func (t *timedNode) Send(slot int64) radio.Message {
	t.sends++
	if slot&sampleMask != 0 {
		return t.Node.Send(slot)
	}
	t0 := nanotime()
	m := t.Node.Send(slot)
	t.sendNs += nanotime() - t0
	t.sSends++
	return m
}

func (t *timedNode) Recv(slot int64, msg radio.Message) {
	t.recvs++
	if slot&sampleMask != 0 {
		t.Node.Recv(slot, msg)
		return
	}
	t0 := nanotime()
	t.Node.Recv(slot, msg)
	t.recvNs += nanotime() - t0
	t.sRecvs++
}

// clockCost estimates the cost of one clock read in ns (the fastest of
// a few batches), so that timing overhead can be taken out of the
// sampled Send/Recv times.
func clockCost() float64 {
	best := math.Inf(1)
	for k := 0; k < 5; k++ {
		const reads = 20000
		t0 := nanotime()
		for i := 0; i < reads; i++ {
			_ = nanotime()
		}
		best = math.Min(best, float64(nanotime()-t0)/reads)
	}
	return best
}

// tracedOut is one traced decomposition's result.
type tracedOut struct {
	colors  []int32 // caller's labels
	res     *radio.Result
	g       *graph.Graph
	proper  bool
	done    bool
	grace   bool
	nodes   []timedNode
	workers int
	skew    bool
	// sampledStepNs is the wall time of the sampled slots (stepped
	// engines only; the half-slot engine owns its loop).
	sampledStepNs int64
	// bytesPerNode is the heap the node constructors allocated per node;
	// mallocs counts heap allocations during the slot loop.
	bytesPerNode float64
	mallocs      uint64
	// engine rebuilds the slot loop's configuration with fresh, untimed
	// nodes, for the plain runs that time the loop without the wrapper.
	engine func(workers int) radio.Config
}

// tracedSolve decomposes one solve of in into layer calls under tr.
func (s *simSpec) tracedSolve(tr *tracer, in *simInput) (*tracedOut, error) {
	root := tr.begin("solve")
	n := s.n
	o := &tracedOut{}
	var pts []geom.Point
	tr.do("graph.build", func() {
		b := graph.NewBuilder(n)
		if s.points {
			// ColorUnitDisk connects every pair within the radius.
			pts = make([]geom.Point, n)
			for i, p := range in.points {
				pts[i] = geom.Point{X: p[0], Y: p[1]}
			}
			for i := range pts {
				for j := i + 1; j < n; j++ {
					if pts[i].Dist(pts[j]) <= in.dep.Radius {
						b.AddEdge(i, j)
					}
				}
			}
		} else {
			for v, row := range in.adj {
				for _, u := range row {
					b.AddEdge(v, u)
				}
			}
		}
		o.g = b.Build()
	})
	g := o.g

	var delta, k1, k2 int
	if m := in.opt.Measured; m != nil {
		delta, k1, k2 = m.Delta, m.Kappa1, m.Kappa2
	} else {
		tr.do("graph.kappa", func() {
			delta = g.MaxDegree()
			k := g.Kappa(kappaOptions)
			k1, k2 = k.K1, k.K2
		})
	}
	par := core.Practical(n, delta, k1, k2).Scale(scaleOf(in.opt))
	wake := wakeSchedule(in.opt.Wakeup, n, par.WaitSlots(), in.seed)
	budget := in.opt.MaxSlots
	if budget <= 0 {
		budget = max(int64(par.Kappa2+2)*par.Threshold()*40, 1_000_000)
	}

	var prof *fault.Profile
	if in.faults != "" {
		var err error
		if prof, err = fault.ParseProfile(in.faults); err != nil {
			return nil, err
		}
		if prof.Seed == 0 {
			prof.Seed = in.seed
		}
	}
	skew := prof != nil && prof.SkewProb > 0

	runG := g
	var perm *graph.Permutation
	if in.opt.Tiling != 0 && in.opt.Tiling != 1 && !skew {
		tr.do("graph.relabel", func() {
			var p graph.Permutation
			if pts != nil {
				xs, ys := make([]float64, n), make([]float64, n)
				for i, pt := range pts {
					xs[i], ys[i] = pt.X, pt.Y
				}
				p = graph.HilbertOrder(xs, ys)
			} else {
				p = graph.BFSOrder(g)
			}
			runG = p.Apply(g)
			wakeT := make([]int64, n)
			for v, w := range wake {
				wakeT[p.Forward[v]] = w
			}
			wake = wakeT
			perm = &p
		})
	}

	var inj *fault.Injector
	if prof != nil {
		if perm != nil {
			prof = prof.Permute(perm.Forward)
		}
		var err error
		tr.do("fault.compile", func() { inj, err = prof.Compile(n) })
		if err != nil {
			return nil, err
		}
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var nodes []*core.Node
	tr.do("core.nodes", func() { nodes, _ = core.Nodes(n, in.seed, par, core.Ablation{}) })
	runtime.ReadMemStats(&m1)
	o.bytesPerNode = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(n)

	o.nodes = make([]timedNode, n)
	protos := make([]radio.Protocol, n)
	for i, v := range nodes {
		o.nodes[i].Node = v
		protos[i] = &o.nodes[i]
	}
	o.workers = 1
	if !skew && in.opt.Workers > 1 {
		o.workers = in.opt.Workers
	}
	cfg := radio.Config{
		G: runG, Protocols: protos, Wake: wake, MaxSlots: budget, NEstimate: par.N,
		Workers: in.opt.Workers, Tiles: in.opt.Tiling, Faults: inj,
	}
	o.skew = skew
	o.engine = func(workers int) radio.Config {
		c := cfg
		_, c.Protocols = core.Nodes(n, in.seed, par, core.Ablation{})
		c.Workers = workers
		return c
	}

	runtime.ReadMemStats(&m0)
	var err error
	tr.do("radio.run", func() {
		if skew {
			// Clock skew runs through the half-slot engine, which owns
			// its loop.
			o.res, err = radio.RunUnaligned(cfg, nil)
			return
		}
		var e *radio.Engine
		if e, err = radio.NewEngine(cfg); err != nil {
			return
		}
		// Step the loop here so the sampled slots' wall time is known:
		// the core share is the sampled calls' time over it.
		for more := true; more; {
			if e.Slot()&sampleMask != 0 {
				more = e.Step()
				continue
			}
			t0 := nanotime()
			more = e.Step()
			o.sampledStepNs += nanotime() - t0
		}
		o.res = e.Result()
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	o.mallocs = m1.Mallocs - m0.Mallocs

	o.colors = make([]int32, n)
	for i := range o.colors {
		v := nodes[i]
		if perm != nil {
			v = nodes[perm.Forward[i]]
		}
		o.colors[i] = v.Color()
	}
	var down []int32
	for _, v := range o.res.Down {
		if perm != nil {
			v = perm.Inverse[v]
		}
		down = append(down, v)
	}
	tr.do("verify.check", func() {
		rep := verify.Check(g, o.colors)
		o.proper, o.done = rep.Proper, rep.Complete && o.res.AllDone
		if inj != nil {
			o.grace = verify.CheckSurvivorsScoped(g, o.colors, verify.DownSet(n, down), verify.DownSet(n, nil)).Graceful()
		}
	})
	tr.end(root)
	return o, nil
}

// countsPrint fingerprints a traced solve's exact engine counts.
func (o *tracedOut) countsPrint() uint64 {
	f := newFingerprint()
	f.add(int64(enginePrint(o.res)))
	for _, c := range o.colors {
		f.add(int64(c))
	}
	return f.sum()
}

// traceRun is the traced run of a simulation workload: one untraced
// public solve of the first input as the reference, then two traced
// decompositions of the same solve, which must reproduce the reference
// colors and each other's exact counts.
func (s *simSpec) traceRun(cfg runConfig) (*report, error) {
	ins, kappa, err := s.setup(cfg.seed)
	if err != nil {
		return nil, err
	}
	in := ins[0]
	rep := &report{}
	m := layerMetrics()
	rep.Metrics = m
	fail := func(format string, args ...any) {
		rep.Failed++
		fmt.Fprintf(cfg.log, "perfbench: %s: "+format+"\n", append([]any{s.name}, args...)...)
	}

	var g0, g1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&g0)
	t0 := time.Now()
	out, err := s.solve(in)
	public := time.Since(t0)
	runtime.ReadMemStats(&g1)
	rep.Attempted++
	if err == nil {
		err = s.verifyOutcome(in, &solveRef{}, out)
	}
	if err != nil {
		fail("reference solve: %v", err)
		return rep, nil
	}

	tr := newTracer()
	tr.do("topology.gen", func() { _, _, err = s.draw(cfg.seed, 0) })
	if err != nil {
		return nil, err
	}
	var o *tracedOut
	var first uint64
	var solveDur time.Duration
	for r := 0; r < 2; r++ {
		rep.Attempted++
		start := tr.now()
		if o, err = s.tracedSolve(tr, in); err != nil {
			fail("traced solve: %v", err)
			return rep, nil
		}
		solveDur = time.Duration(tr.now() - start)
		switch {
		case !equalColors(o.colors, out.Colors):
			fail("traced colors differ from the public solve")
		case o.res.Slots != out.Slots:
			fail("traced run took %d slots, public %d", o.res.Slots, out.Slots)
		case o.proper != out.Proper || o.done != out.Complete:
			fail("traced verdict differs from the public solve")
		case out.Faults != nil && o.grace != out.Faults.Graceful:
			fail("traced fault verdict differs from the public solve")
		case r == 0:
			first = o.countsPrint()
		case o.countsPrint() != first:
			fail("traced repeat changed the engine counts")
		}
	}

	// The slot loop again with plain nodes, untimed inside: its wall
	// time is radio.run_s. With several workers it runs once more at one
	// worker, for the parallel efficiency.
	plain, err := o.plainRun(tr, o.workers)
	if err != nil {
		fail("plain run: %v", err)
		return rep, nil
	}
	eff := 0.0
	if o.workers > 1 {
		one, err := o.plainRun(tr, 1)
		if err != nil {
			fail("plain run: %v", err)
			return rep, nil
		}
		eff = one.Seconds() / (float64(o.workers) * plain.Seconds())
	}
	if err := tr.write(filepath.Join(cfg.outDir, "traces"), s.name, cfg.seed); err != nil {
		return nil, err
	}

	var sends, recvs, sSends, sRecvs, sendNs, recvNs int64
	for i := range o.nodes {
		t := &o.nodes[i]
		sends += t.sends
		recvs += t.recvs
		sSends += t.sSends
		sRecvs += t.sRecvs
		sendNs += t.sendNs
		recvNs += t.recvNs
	}
	c := clockCost()
	perCall := func(ns, calls int64) float64 {
		if calls == 0 {
			return 0
		}
		return math.Max(0, float64(ns)/float64(calls)-c)
	}
	sendPer, recvPer := perCall(sendNs, sSends), perCall(recvNs, sRecvs)
	// The core share is the sampled calls' time over the sampled slots'
	// wall time (times workers). The half-slot engine owns its loop, so
	// its slots cannot be timed from outside and the share (and the
	// radio self time derived from it) is left at 0 there.
	var share float64
	if o.sampledStepNs > 0 {
		share = math.Min(1, float64(sendNs+recvNs)/(float64(o.sampledStepNs)*float64(o.workers)))
	}
	runNs := float64(plain)
	nodeSlots := float64(sends)

	m.setLayer("topology.gen_s", tr.total("topology.gen").Seconds())
	m.setLayer("graph.build_s", lastSpan(tr, "graph.build").Seconds())
	if s.prefill {
		m.setLayer("graph.kappa_s", kappa[0].Seconds())
	} else {
		m.setLayer("graph.kappa_s", lastSpan(tr, "graph.kappa").Seconds())
	}
	m.setLayer("graph.relabel_s", lastSpan(tr, "graph.relabel").Seconds())
	m.setLayer("graph.edges", float64(o.g.M()))
	m.setLayer("core.nodes_s", lastSpan(tr, "core.nodes").Seconds())
	m.setLayer("core.send_ns", sendPer)
	m.setLayer("core.recv_ns", recvPer)
	m.setLayer("core.send_calls", float64(sends))
	m.setLayer("core.recv_calls", float64(recvs))
	m.setLayer("core.share", share)
	m.setLayer("core.allocs_per_node_slot", float64(o.mallocs)/nodeSlots)
	m.setLayer("core.bytes_per_node", o.bytesPerNode)
	m.setLayer("radio.run_s", runNs/1e9)
	m.setLayer("radio.step_ns_per_node_slot", runNs/nodeSlots)
	if share > 0 {
		m.setLayer("radio.self_ns_per_node_slot", (1-share)*runNs*float64(o.workers)/nodeSlots)
	}
	m.setLayer("radio.parallel_eff", eff)
	m.setLayer("radio.slots", float64(o.res.Slots))
	m.setLayer("radio.node_slots", nodeSlots)
	m.setLayer("radio.tx", float64(o.res.Transmissions))
	m.setLayer("radio.deliveries", float64(o.res.Deliveries))
	m.setLayer("radio.collisions", float64(o.res.Collisions))
	m.setLayer("fault.lost", float64(o.res.Lost))
	m.setLayer("fault.crashes", float64(o.res.Crashes))
	m.setLayer("fault.restarts", float64(o.res.Restarts))
	m.setLayer("verify.check_s", lastSpan(tr, "verify.check").Seconds())
	m.setLayer("runtime.gc_cycles", float64(g1.NumGC-g0.NumGC))
	m.setLayer("runtime.gc_pause_ms", float64(g1.PauseTotalNs-g0.PauseTotalNs)/1e6)
	m.setLayer("trace.overhead_s", (solveDur - public).Seconds())
	m.setLayer("trace.overhead_frac", (solveDur-public).Seconds()/public.Seconds())
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// plainRun times the slot loop with fresh, unwrapped nodes.
func (o *tracedOut) plainRun(tr *tracer, workers int) (time.Duration, error) {
	cfg := o.engine(workers)
	var err error
	d := tr.do(fmt.Sprintf("radio.run.plain.w%d", workers), func() {
		if o.skew {
			_, err = radio.RunUnaligned(cfg, nil)
		} else {
			_, err = radio.Run(cfg)
		}
	})
	return d, err
}

// lastSpan is the duration of the most recent span with the given name
// (0 when there is none).
func lastSpan(tr *tracer, name string) time.Duration {
	for i := len(tr.spans) - 1; i >= 0; i-- {
		if sp := tr.spans[i]; sp.Name == name {
			return time.Duration(sp.End - sp.Start)
		}
	}
	return 0
}

func equalColors(traced []int32, public []int) bool {
	if len(traced) != len(public) {
		return false
	}
	for i, c := range traced {
		if int(c) != public[i] {
			return false
		}
	}
	return true
}
