package radio

import (
	"math"
	"reflect"
	"testing"

	"radiocolor/internal/fault"
	"radiocolor/internal/geom"
	"radiocolor/internal/graph"
	"radiocolor/internal/medium"
)

// bindGraphMedium binds the explicit graph-rule medium over cfg's graph.
func bindGraphMedium(t *testing.T, cfg *Config) {
	t.Helper()
	bindCapture(t, cfg, 0, 0)
}

// bindCapture binds the graph-rule medium with the two-way capture coin
// over cfg's graph.
func bindCapture(t *testing.T, cfg *Config, capture float64, seed int64) {
	t.Helper()
	csr := cfg.G.CSR()
	inst, err := (medium.GraphThreshold{Capture: capture}).Bind(medium.Env{
		N: cfg.G.N(), Offsets: csr.Offsets, Edges: csr.Edges, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Medium = inst
}

// randCfg builds the standard random-traffic network of the
// determinism tests, returning the per-node protocols for state
// comparison.
func randCfg(workers int) ([]*randProto, Config) {
	g := line(40)
	protos := make([]Protocol, g.N())
	rps := make([]*randProto, g.N())
	for i := range protos {
		rps[i] = &randProto{id: NodeID(i), rng: NodeRand(1234, NodeID(i)), p: 0.2, limit: 400}
		protos[i] = rps[i]
	}
	return rps, Config{
		G: g, Protocols: protos, Wake: WakeUniform(g.N(), 30, 6),
		MaxSlots: 600, Workers: workers,
	}
}

// TestGraphMediumMatchesBuiltin is the seam's differential contract:
// routing the paper's reception rule through the pluggable medium must
// reproduce the built-in fast path bit for bit, at any worker count.
func TestGraphMediumMatchesBuiltin(t *testing.T) {
	type run struct {
		res *Result
		rx  []int64
	}
	exec := func(workers int, plug bool) run {
		rps, cfg := randCfg(workers)
		if plug {
			bindGraphMedium(t, &cfg)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rx := make([]int64, len(rps))
		for i, p := range rps {
			rx[i] = p.rxSum
		}
		return run{res, rx}
	}
	base := exec(1, false)
	for _, workers := range []int{1, 4} {
		got := exec(workers, true)
		if !reflect.DeepEqual(got.res, base.res) {
			t.Errorf("workers=%d: graph medium diverges from builtin:\n medium : %+v\n builtin: %+v",
				workers, got.res, base.res)
		}
		if !reflect.DeepEqual(got.rx, base.rx) {
			t.Errorf("workers=%d: per-node reception state diverges", workers)
		}
	}
}

// TestGraphMediumMatchesBuiltinWithFaults extends the differential to
// fault composition: loss, jam and crash must hit the medium path and
// the builtin path identically.
func TestGraphMediumMatchesBuiltinWithFaults(t *testing.T) {
	prof := &fault.Profile{
		Loss:    0.1,
		Crashes: []fault.Crash{{Node: 3, At: 100}, {Node: 20, At: 50}},
		Jammers: []fault.Jammer{{From: 80, Until: 160, Nodes: []int{10, 11, 12}}},
		Seed:    7,
	}
	exec := func(workers int, plug bool) *Result {
		_, cfg := randCfg(workers)
		inj, err := prof.Compile(cfg.G.N())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = inj
		if plug {
			bindGraphMedium(t, &cfg)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := exec(1, false)
	if base.Lost == 0 {
		t.Fatal("fault profile inert; the differential proves nothing")
	}
	for _, workers := range []int{1, 4} {
		if got := exec(workers, true); !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: faulted graph medium diverges from builtin:\n medium : %+v\n builtin: %+v",
				workers, got, base)
		}
	}
}

// beaconProto transmits a preallocated message every slot — traffic
// through the full resolve/deliver path with zero protocol-side
// allocation, so AllocsPerRun isolates the engine's own cost.
type beaconProto struct {
	msg  *testMsg
	beat int
	mod  int
}

func (b *beaconProto) Start(int64) {}
func (b *beaconProto) Send(int64) Message {
	b.beat++
	if b.beat%b.mod == 0 {
		return b.msg
	}
	return nil
}
func (b *beaconProto) Recv(int64, Message) {}
func (b *beaconProto) Done() bool          { return false }

// TestMediumUnsetZeroAllocWithTraffic pins the tentpole's no-regression
// contract from the transmitting side: with Config.Medium nil the
// engine's resolve and deliver phases allocate nothing per slot even
// under live traffic (TestDisabledSeamZeroAlloc covers the idle case).
func TestMediumUnsetZeroAllocWithTraffic(t *testing.T) {
	n := 32
	protos := make([]Protocol, n)
	for i := range protos {
		protos[i] = &beaconProto{msg: &testMsg{from: NodeID(i)}, mod: 2 + i%5}
	}
	e, err := NewEngine(Config{
		G: line(n), Protocols: protos, Wake: WakeSynchronous(n), MaxSlots: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	if allocs := testing.AllocsPerRun(500, func() { e.Step() }); allocs != 0 {
		t.Errorf("nil-medium engine allocates %v per slot under traffic, want 0", allocs)
	}
}

// grid returns n points on a unit-spaced grid plus the UDG graph that
// connects points within the given radius.
func sinrDeployment(n int, radius float64) ([]geom.Point, Config) {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i%side) * 0.8, Y: float64(i/side) * 0.8}
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pts[i].Dist2(pts[j]) <= radius*radius {
				b.AddEdge(i, j)
			}
		}
	}
	g := b.Build()
	protos := make([]Protocol, n)
	rps := make([]*randProto, n)
	for i := range protos {
		rps[i] = &randProto{id: NodeID(i), rng: NodeRand(99, NodeID(i)), p: 0.15, limit: 300}
		protos[i] = rps[i]
	}
	return pts, Config{
		G: g, Protocols: protos, Wake: WakeUniform(n, 40, 3), MaxSlots: 500,
	}
}

// TestSINRDeterministicAcrossWorkers: the SINR medium accumulates
// floating-point sums, so the engine guarantees it an ascending
// transmitter list regardless of worker count — results must be
// bit-identical between sequential and parallel send phases.
func TestSINRDeterministicAcrossWorkers(t *testing.T) {
	exec := func(workers int) *Result {
		pts, cfg := sinrDeployment(36, 1.0)
		cfg.Workers = workers
		m := medium.SINR{Alpha: 4, Beta: 1.5,
			NoiseDBM: medium.MatchedNoiseDBM(0, 1.5, 4, 1.0)}
		inst, err := m.Bind(medium.Env{N: cfg.G.N(), Points: pts})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Medium = inst
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := exec(1)
	if seq.Deliveries == 0 {
		t.Fatal("sinr run delivered nothing; determinism check is vacuous")
	}
	if par := exec(4); !reflect.DeepEqual(seq, par) {
		t.Errorf("sinr diverges across workers:\n 1: %+v\n 4: %+v", seq, par)
	}
}

// TestMediumNodeCountMismatch: an instance bound for the wrong node
// count must be rejected at engine construction, not fail mid-run.
func TestMediumNodeCountMismatch(t *testing.T) {
	g := line(5)
	other := line(7).CSR()
	inst, err := (medium.GraphThreshold{}).Bind(medium.Env{N: 7, Offsets: other.Offsets, Edges: other.Edges})
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]Protocol, 5)
	for i := range protos {
		protos[i] = idleProto{}
	}
	_, err = NewEngine(Config{G: g, Protocols: protos, Wake: WakeSynchronous(5), Medium: inst})
	if err == nil {
		t.Error("engine accepted a medium bound for a different node count")
	}
}

// TestMediumRejectedOffSeamEngines: the reference engine and the
// half-slot (skew) engine have no medium seam and must say so.
func TestMediumRejectedOffSeamEngines(t *testing.T) {
	g := line(4)
	protos := make([]Protocol, 4)
	for i := range protos {
		protos[i] = idleProto{}
	}
	cfg := Config{G: g, Protocols: protos, Wake: WakeSynchronous(4), MaxSlots: 10}
	bindGraphMedium(t, &cfg)
	if _, err := NewReferenceEngine(cfg); err == nil {
		t.Error("reference engine accepted a medium")
	}
	if _, err := RunUnaligned(cfg, nil); err == nil {
		t.Error("RunUnaligned accepted a medium")
	}
}
