package radio_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"radiocolor/internal/core"
	"radiocolor/internal/fault"
	"radiocolor/internal/graph"
	"radiocolor/internal/medium"
	"radiocolor/internal/radio"
	"radiocolor/internal/topology"
)

// These tests pin the CSR kernel bit-for-bit to the retained seed slot
// loop (reference.go): over randomized graphs × wakeup schedules ×
// seeds, every engine variant — reference and CSR, Workers ∈ {1, 4} —
// must produce an identical Result (colors, slots, message counts). Any
// divergence means the rewritten kernel silently changed the model.

// diffCase is one (graph, schedule, seed) cell of the matrix. loss and
// capture are the probabilistic reception coins beyond the model: i.i.d.
// fault loss (the fault layer) and two-way capture (the graph medium).
type diffCase struct {
	name    string
	g       *graph.Graph
	wake    []int64
	seed    int64
	loss    float64
	capture float64
}

// coins reports whether the case draws reception coins. The reference
// engine is the executable spec of the coin-free model and runs neither
// seam, so coin cases are pinned across the CSR kernel's worker and tile
// counts instead.
func (c diffCase) coins() bool { return c.loss > 0 || c.capture > 0 }

// addCoins attaches the case's coins to cfg, both seeded from the case
// seed: loss through a fault profile, capture through the graph medium.
func (c diffCase) addCoins(t *testing.T, cfg *radio.Config) {
	t.Helper()
	if c.loss > 0 {
		inj, err := (&fault.Profile{Seed: c.seed, Loss: c.loss}).Compile(c.g.N())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = inj
	}
	if c.capture > 0 {
		cfg.Medium = bindCapture(t, c.g, c.capture, c.seed)
	}
}

// bindCapture binds the graph medium with the two-way capture coin.
func bindCapture(t *testing.T, g *graph.Graph, capture float64, seed int64) medium.Instance {
	t.Helper()
	csr := g.CSR()
	inst, err := medium.GraphThreshold{Capture: capture}.Bind(medium.Env{
		N: g.N(), Offsets: csr.Offsets, Edges: csr.Edges, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// diffBudget bounds each run: bit-identity must hold whether or not the
// protocol terminated, so a fixed budget keeps the matrix fast while
// still crossing wake-up ramps, contention peaks, and decisions.
const diffBudget = 2200

func erdosRenyi(n int, p float64, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Build()
}

// diffParams measures protocol parameters for g the same way the
// experiment runner does, at test-sized budgets.
func diffParams(g *graph.Graph) core.Params {
	k := g.Kappa(graph.KappaOptions{Budget: 20_000, MaxNeighborhood: 60})
	return core.Practical(g.N(), g.MaxDegree(), k.K1, k.K2)
}

func diffCases(t *testing.T) []diffCase {
	t.Helper()
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er50", erdosRenyi(50, 0.08, 11)},
		{"er50dense", erdosRenyi(50, 0.2, 12)},
		{"udg60", topology.UDGWithTargetDegree(60, 8, 13).G},
		{"clique12", topology.Clique(12).G},
		{"star30", topology.Star(30).G},
	}
	var cases []diffCase
	for _, gr := range graphs {
		par := diffParams(gr.g)
		for _, pat := range radio.WakePatterns {
			for _, seed := range []int64{1, 42} {
				c := diffCase{
					name: fmt.Sprintf("%s/%s/seed%d", gr.name, pat.Name, seed),
					g:    gr.g,
					wake: pat.Make(gr.g.N(), par.WaitSlots(), seed),
					seed: seed,
				}
				cases = append(cases, c)
			}
		}
	}
	// Drop (fault loss) and capture exercise the stateless coins, which
	// must agree across worker and tile counts too.
	base := graphs[0].g
	par := diffParams(base)
	wake := radio.WakeUniform(base.N(), 4*par.WaitSlots(), 7)
	cases = append(cases,
		diffCase{name: "er50/drop", g: base, wake: wake, seed: 7, loss: 0.2},
		diffCase{name: "er50/capture", g: base, wake: wake, seed: 7, capture: 0.5},
		diffCase{name: "er50/drop+capture", g: base, wake: wake, seed: 7, loss: 0.1, capture: 0.3},
	)
	return cases
}

// runVariant executes one engine variant on fresh protocol instances and
// returns the Result together with the per-node colors and intra-cluster
// colors the protocols decided on.
func runVariant(t *testing.T, c diffCase, workers int, reference bool) (*radio.Result, []int32, []int32) {
	t.Helper()
	par := diffParams(c.g)
	nodes, protos := core.Nodes(c.g.N(), c.seed, par, core.Ablation{})
	cfg := radio.Config{
		G: c.g, Protocols: protos, Wake: c.wake,
		MaxSlots: diffBudget, NEstimate: par.N,
		Workers: workers,
	}
	c.addCoins(t, &cfg)
	var res *radio.Result
	var err error
	if reference {
		res, err = radio.RunReference(cfg)
	} else {
		res, err = radio.Run(cfg)
	}
	if err != nil {
		t.Fatalf("%s workers=%d reference=%v: %v", c.name, workers, reference, err)
	}
	colors := make([]int32, len(nodes))
	tcs := make([]int32, len(nodes))
	for i, v := range nodes {
		colors[i] = v.Color()
		tcs[i] = v.TC()
	}
	return res, colors, tcs
}

func TestDifferentialCSRMatchesReference(t *testing.T) {
	cases := diffCases(t)
	if testing.Short() && len(cases) > 12 {
		cases = cases[:12]
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			refRes, refColors, refTCs := runVariant(t, c, 1, !c.coins())
			for _, variant := range []struct {
				label     string
				workers   int
				reference bool
			}{
				{"reference/workers=4", 4, true},
				{"csr/workers=1", 1, false},
				{"csr/workers=4", 4, false},
			} {
				if c.coins() && variant.reference {
					continue
				}
				res, colors, tcs := runVariant(t, c, variant.workers, variant.reference)
				if !reflect.DeepEqual(res, refRes) {
					t.Fatalf("%s: Result diverged from sequential reference\n ref: %+v\n got: %+v", variant.label, refRes, res)
				}
				if !reflect.DeepEqual(colors, refColors) {
					t.Fatalf("%s: colors diverged from sequential reference", variant.label)
				}
				if !reflect.DeepEqual(tcs, refTCs) {
					t.Fatalf("%s: intra-cluster colors diverged from sequential reference", variant.label)
				}
			}
			checkCoinsFired(t, c, refRes)
		})
	}
}

// checkCoinsFired fails a coin case whose coins never fired, which
// would make its differential vacuous.
func checkCoinsFired(t *testing.T, c diffCase, res *radio.Result) {
	t.Helper()
	if c.loss > 0 && res.Lost == 0 {
		t.Fatal("loss coin never fired; differential is vacuous")
	}
	if c.capture > 0 && res.Captures == 0 {
		t.Fatal("capture coin never fired; differential is vacuous")
	}
}

// TestDifferentialScriptedCollisions drives both kernels with scripted
// protocols that force dense simultaneous transmissions — the regime
// where the resolve/deliver rewrite (count accumulation, lowest-sender
// selection) is most likely to drift. The capture arm runs the same
// scripts through the graph medium's capture coin, which the reference
// engine does not model, and pins it across worker counts.
func TestDifferentialScriptedCollisions(t *testing.T) {
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
		build := func() []radio.Protocol {
			protos := make([]radio.Protocol, g.N())
			for i := range protos {
				protos[i] = &scriptedDiffProto{id: radio.NodeID(i), script: scripts[i]}
			}
			return protos
		}
		run := func(workers int, reference bool, capture float64) *radio.Result {
			cfg := radio.Config{
				G: g, Protocols: build(), Wake: wake,
				MaxSlots: 120, Workers: workers,
			}
			if capture > 0 {
				cfg.Medium = bindCapture(t, g, capture, seed)
			}
			var res *radio.Result
			var err error
			if reference {
				res, err = radio.RunReference(cfg)
			} else {
				res, err = radio.Run(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		ref := run(1, true, 0)
		for _, w := range []int{1, 4} {
			if got := run(w, false, 0); !reflect.DeepEqual(got, ref) {
				t.Fatalf("seed %d: CSR workers=%d diverged\n ref: %+v\n got: %+v", seed, w, ref, got)
			}
			if got := run(w, true, 0); !reflect.DeepEqual(got, ref) {
				t.Fatalf("seed %d: reference workers=%d diverged\n ref: %+v\n got: %+v", seed, w, ref, got)
			}
		}
		capRef := run(1, false, 0.4)
		if got := run(4, false, 0.4); !reflect.DeepEqual(got, capRef) {
			t.Fatalf("seed %d: capture workers=4 diverged\n ref: %+v\n got: %+v", seed, capRef, got)
		}
		if ref.Collisions == 0 || capRef.Captures == 0 {
			t.Fatalf("seed %d: no collisions/captures; scripted differential is vacuous", seed)
		}
	}
}

type scriptedDiffProto struct {
	id     radio.NodeID
	script []bool
	local  int64
	recvs  int
}

type diffMsg struct {
	from radio.NodeID
}

func (m *diffMsg) Sender() radio.NodeID { return m.from }
func (m *diffMsg) Bits(n int) int       { return 16 }

func (p *scriptedDiffProto) Start(slot int64) {}
func (p *scriptedDiffProto) Send(slot int64) radio.Message {
	i := p.local
	p.local++
	if i < int64(len(p.script)) && p.script[i] {
		return &diffMsg{from: p.id}
	}
	return nil
}
func (p *scriptedDiffProto) Recv(slot int64, msg radio.Message) { p.recvs++ }
func (p *scriptedDiffProto) Done() bool                         { return p.local >= int64(len(p.script)) }
