package radio

import (
	"testing"

	"radiocolor/internal/fault"
	"radiocolor/internal/graph"
)

// testMsg is a trivial payload carrying the sender and a value.
type testMsg struct {
	from NodeID
	val  int64
}

func (m *testMsg) Sender() NodeID { return m.from }
func (m *testMsg) Bits(n int) int { return 32 }

// scriptProto transmits according to a fixed per-slot script (indexed
// from the node's wake-up) and records everything it receives.
type scriptProto struct {
	id       NodeID
	script   []bool // transmit in local slot i?
	started  int64
	wokeAt   int64
	local    int64
	received []NodeID
	recvSlot []int64
	done     bool
	doneAt   int64 // local slot at which to report done (-1: when script ends)
}

func (p *scriptProto) Start(slot int64) { p.started++; p.wokeAt = slot }
func (p *scriptProto) Send(slot int64) Message {
	i := p.local
	p.local++
	if p.doneAt >= 0 && i >= p.doneAt {
		p.done = true
	}
	if i < int64(len(p.script)) && p.script[i] {
		return &testMsg{from: p.id, val: i}
	}
	if p.doneAt < 0 && i >= int64(len(p.script)) {
		p.done = true
	}
	return nil
}
func (p *scriptProto) Recv(slot int64, msg Message) {
	p.received = append(p.received, msg.Sender())
	p.recvSlot = append(p.recvSlot, slot)
}
func (p *scriptProto) Done() bool { return p.done }

// buildScripted creates a network over g where node i follows scripts[i].
func buildScripted(g *graph.Graph, scripts [][]bool, wake []int64) ([]*scriptProto, Config) {
	protos := make([]*scriptProto, g.N())
	ifaces := make([]Protocol, g.N())
	for i := range protos {
		protos[i] = &scriptProto{id: NodeID(i), script: scripts[i], doneAt: -1}
		ifaces[i] = protos[i]
	}
	return protos, Config{G: g, Protocols: ifaces, Wake: wake, MaxSlots: 100}
}

func line(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

func TestExactlyOneRuleDelivers(t *testing.T) {
	// 0-1-2: node 0 transmits alone in slot 0; 1 must receive, 2 must not
	// (not adjacent).
	g := line(3)
	protos, cfg := buildScripted(g, [][]bool{{true}, {false}, {false}}, WakeSynchronous(3))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(protos[1].received) != 1 || protos[1].received[0] != 0 {
		t.Errorf("node 1 received %v, want [0]", protos[1].received)
	}
	if len(protos[2].received) != 0 {
		t.Errorf("node 2 received %v, want none", protos[2].received)
	}
	if res.Deliveries != 1 || res.Transmissions != 1 || res.Collisions != 0 {
		t.Errorf("stats: %v", res)
	}
}

func TestCollisionSilence(t *testing.T) {
	// 0-1-2 path: 0 and 2 transmit simultaneously; 1 hears nothing
	// (collision), and receives no Recv call at all.
	g := line(3)
	protos, cfg := buildScripted(g, [][]bool{{true}, {false}, {true}}, WakeSynchronous(3))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(protos[1].received) != 0 {
		t.Errorf("node 1 received %v despite collision", protos[1].received)
	}
	if res.Collisions != 1 {
		t.Errorf("collisions = %d, want 1", res.Collisions)
	}
}

func TestTransmitterCannotReceive(t *testing.T) {
	// 0-1: both transmit in slot 0, then 1 transmits alone in slot 1
	// while 0 listens. In slot 0 neither receives (both transmitting).
	g := line(2)
	protos, cfg := buildScripted(g, [][]bool{{true, false}, {true, true}}, WakeSynchronous(2))
	_, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(protos[1].received) != 0 {
		t.Errorf("transmitting node 1 received %v", protos[1].received)
	}
	if len(protos[0].received) != 1 || protos[0].recvSlot[0] != 1 {
		t.Errorf("node 0 received %v at %v, want one message in slot 1", protos[0].received, protos[0].recvSlot)
	}
}

func TestHiddenTerminal(t *testing.T) {
	// Star: two leaves cannot hear each other; both transmitting collide
	// at the hub only.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	g := b.Build()
	protos, cfg := buildScripted(g, [][]bool{{false}, {true}, {true}}, WakeSynchronous(3))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(protos[0].received) != 0 {
		t.Error("hub should experience a collision")
	}
	if res.Collisions != 1 {
		t.Errorf("collisions = %d, want 1", res.Collisions)
	}
}

func TestSleepingNodesDeafAndMute(t *testing.T) {
	// Node 1 wakes at slot 5. Node 0 transmits in slots 0..9. Node 1 must
	// only receive transmissions from slot 5 on, and Start must be
	// called exactly once at slot 5.
	g := line(2)
	script0 := make([]bool, 10)
	for i := range script0 {
		script0[i] = true
	}
	protos, cfg := buildScripted(g, [][]bool{script0, make([]bool, 10)}, []int64{0, 5})
	_, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if protos[1].started != 1 || protos[1].wokeAt != 5 {
		t.Errorf("Start calls=%d at %d, want 1 at slot 5", protos[1].started, protos[1].wokeAt)
	}
	for _, s := range protos[1].recvSlot {
		if s < 5 {
			t.Errorf("sleeping node received at slot %d", s)
		}
	}
	if len(protos[1].received) != 5 {
		t.Errorf("received %d messages, want 5 (slots 5..9)", len(protos[1].received))
	}
}

func TestDecisionLatency(t *testing.T) {
	g := line(2)
	protos, cfg := buildScripted(g, [][]bool{nil, nil}, []int64{0, 3})
	protos[0].doneAt = 2 // done in its local slot 2 → global slot 2
	protos[1].doneAt = 4 // woke at 3 → global slot 7
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone {
		t.Fatal("run should complete")
	}
	if res.DecideSlot[0] != 2 || res.DecideSlot[1] != 7 {
		t.Errorf("decide slots = %v", res.DecideSlot)
	}
	if res.Latency(0) != 2 || res.Latency(1) != 4 {
		t.Errorf("latencies = %d, %d", res.Latency(0), res.Latency(1))
	}
	if res.MaxLatency() != 4 {
		t.Errorf("MaxLatency = %d", res.MaxLatency())
	}
}

func TestMaxSlotsAborts(t *testing.T) {
	g := line(2)
	protos, cfg := buildScripted(g, [][]bool{nil, nil}, WakeSynchronous(2))
	protos[0].doneAt = 1 << 40 // never
	protos[1].doneAt = 1 << 40
	cfg.MaxSlots = 50
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllDone || res.Slots != 50 {
		t.Errorf("res = %v", res)
	}
	if res.MaxLatency() != -1 || res.Latency(0) != -1 {
		t.Error("undecided nodes must report latency -1")
	}
}

func TestConfigValidation(t *testing.T) {
	g := line(2)
	cases := []Config{
		{},
		{G: g},
		{G: g, Protocols: make([]Protocol, 2)},
		{G: g, Protocols: make([]Protocol, 2), Wake: []int64{0, -1}},
		{G: g, Protocols: make([]Protocol, 1), Wake: []int64{0, 0}},
	}
	for i, cfg := range cases {
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestMessageBitsAccounting(t *testing.T) {
	g := line(2)
	_, cfg := buildScripted(g, [][]bool{{true}, nil}, WakeSynchronous(2))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMessageBits != 32 {
		t.Errorf("MaxMessageBits = %d, want 32", res.MaxMessageBits)
	}
}

func TestPerNodeTx(t *testing.T) {
	g := line(3)
	_, cfg := buildScripted(g, [][]bool{{true, true, true}, {true}, nil}, WakeSynchronous(3))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerNodeTx[0] != 3 || res.PerNodeTx[1] != 1 || res.PerNodeTx[2] != 0 {
		t.Errorf("PerNodeTx = %v", res.PerNodeTx)
	}
	if res.Transmissions != 4 {
		t.Errorf("Transmissions = %d", res.Transmissions)
	}
}

func TestDropInjection(t *testing.T) {
	// With fault loss = 1 nothing is ever delivered.
	g := line(2)
	protos, cfg := buildScripted(g, [][]bool{{true, true, true}, nil}, WakeSynchronous(2))
	cfg.Faults = mustInjector(t, &fault.Profile{Loss: 1}, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(protos[0].received)+len(protos[1].received) != 0 {
		t.Error("messages delivered despite loss=1")
	}
	if res.Deliveries != 0 {
		t.Errorf("Deliveries = %d", res.Deliveries)
	}
	// Determinism: the same seed drops the same deliveries.
	run := func(seed int64) int {
		protos, cfg := buildScripted(g, [][]bool{{true, true, true, true, true, true}, nil}, WakeSynchronous(2))
		cfg.Faults = mustInjector(t, &fault.Profile{Loss: 0.5, Seed: seed}, 2)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return len(protos[1].received)
	}
	if run(7) != run(7) {
		t.Error("loss coin not deterministic")
	}
}

// randProto transmits with a fixed probability from its own stream and
// counts receptions — used for the sequential ≡ parallel determinism
// check.
type randProto struct {
	id    NodeID
	rng   Rand
	p     float64
	steps int64
	limit int64
	rxSum int64
	txs   int64
}

func (r *randProto) Start(int64) {}
func (r *randProto) Send(int64) Message {
	r.steps++
	if r.rng.Float64() < r.p {
		r.txs++
		return &testMsg{from: r.id, val: r.steps}
	}
	return nil
}
func (r *randProto) Recv(_ int64, msg Message) { r.rxSum += int64(msg.Sender()) + 1 }
func (r *randProto) Done() bool                { return r.steps >= r.limit }

func runRandNetwork(workers int) (int64, int64, *Result) {
	g := line(40)
	protos := make([]Protocol, g.N())
	rps := make([]*randProto, g.N())
	for i := range protos {
		rps[i] = &randProto{id: NodeID(i), rng: NodeRand(1234, NodeID(i)), p: 0.2, limit: 400}
		protos[i] = rps[i]
	}
	res, err := Run(Config{
		G: g, Protocols: protos, Wake: WakeUniform(g.N(), 50, 99),
		Workers: workers,
	})
	if err != nil {
		panic(err)
	}
	var rx, tx int64
	for _, r := range rps {
		rx += r.rxSum
		tx += r.txs
	}
	return rx, tx, res
}

func TestParallelMatchesSequential(t *testing.T) {
	rx1, tx1, res1 := runRandNetwork(1)
	rx4, tx4, res4 := runRandNetwork(4)
	if rx1 != rx4 || tx1 != tx4 {
		t.Errorf("parallel differs: rx %d vs %d, tx %d vs %d", rx1, rx4, tx1, tx4)
	}
	if res1.Transmissions != res4.Transmissions || res1.Deliveries != res4.Deliveries ||
		res1.Collisions != res4.Collisions || res1.Slots != res4.Slots {
		t.Errorf("results differ: %v vs %v", res1, res4)
	}
}

// countingObserver checks the Observer event stream.
type countingObserver struct {
	NopObserver
	slots, tx, rx, coll, decide int
}

func (o *countingObserver) OnSlot(int64)                      { o.slots++ }
func (o *countingObserver) OnTransmit(int64, NodeID, Message) { o.tx++ }
func (o *countingObserver) OnDeliver(int64, NodeID, Message)  { o.rx++ }
func (o *countingObserver) OnCollision(int64, NodeID, int)    { o.coll++ }
func (o *countingObserver) OnDecide(int64, NodeID)            { o.decide++ }

func TestObserverEvents(t *testing.T) {
	g := line(3)
	_, cfg := buildScripted(g, [][]bool{{true}, nil, {true}}, WakeSynchronous(3))
	obs := &countingObserver{}
	cfg.Observer = obs
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if obs.tx != int(res.Transmissions) || obs.rx != int(res.Deliveries) || obs.coll != int(res.Collisions) {
		t.Errorf("observer counts diverge from result: %+v vs %v", obs, res)
	}
	if obs.decide != 3 {
		t.Errorf("decide events = %d, want 3", obs.decide)
	}
	if int64(obs.slots) != res.Slots {
		t.Errorf("slot events = %d, want %d", obs.slots, res.Slots)
	}
}

func TestWakeSchedules(t *testing.T) {
	if w := WakeSynchronous(5); len(w) != 5 {
		t.Fatal("sync length")
	} else {
		for _, x := range w {
			if x != 0 {
				t.Fatal("sync nonzero")
			}
		}
	}
	w := WakeUniform(100, 50, 3)
	for _, x := range w {
		if x < 0 || x >= 50 {
			t.Fatalf("uniform out of range: %d", x)
		}
	}
	w = WakeSequential(5, 10)
	for i, x := range w {
		if x != int64(i)*10 {
			t.Fatalf("sequential[%d] = %d", i, x)
		}
	}
	w = WakeBursty(10, 3, 100)
	if w[0] != 0 || w[2] != 0 || w[3] != 100 || w[9] != 300 {
		t.Fatalf("bursty = %v", w)
	}
	if w := WakeBursty(4, 0, 10); w[1] != 10 {
		t.Fatalf("bursty clamps burst size: %v", w)
	}
	w = WakeAdversarial(60, 200, 5)
	if len(w) != 60 {
		t.Fatal("adversarial length")
	}
	for _, x := range w {
		if x < 0 {
			t.Fatal("negative wake slot")
		}
	}
	// Named patterns produce valid schedules.
	for _, p := range WakePatterns {
		w := p.Make(30, 100, 7)
		if len(w) != 30 {
			t.Errorf("pattern %s: wrong length", p.Name)
		}
		for _, x := range w {
			if x < 0 {
				t.Errorf("pattern %s: negative slot", p.Name)
			}
		}
	}
}

func TestStepwiseEngine(t *testing.T) {
	g := line(2)
	protos, cfg := buildScripted(g, [][]bool{{true}, nil}, WakeSynchronous(2))
	protos[0].doneAt = 3
	protos[1].doneAt = 3
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for e.Step() {
		steps++
		if e.Slot() != int64(steps) {
			t.Fatalf("Slot = %d after %d steps", e.Slot(), steps)
		}
	}
	if !e.Result().AllDone {
		t.Error("stepwise run should finish")
	}
}

func TestCaptureEffect(t *testing.T) {
	// Star hub with two transmitting leaves: without capture the hub
	// hears nothing; with Capture=1 it decodes the lower-indexed leaf.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	g := b.Build()
	protos, cfg := buildScripted(g, [][]bool{{false}, {true}, {true}}, WakeSynchronous(3))
	bindCapture(t, &cfg, 1, 0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(protos[0].received) != 1 || protos[0].received[0] != 1 {
		t.Errorf("hub received %v, want capture of node 1", protos[0].received)
	}
	if res.Captures != 1 || res.Collisions != 0 {
		t.Errorf("captures=%d collisions=%d", res.Captures, res.Collisions)
	}
	// Three-way collisions are never captured.
	b3 := graph.NewBuilder(4)
	b3.AddEdge(0, 1)
	b3.AddEdge(0, 2)
	b3.AddEdge(0, 3)
	g3 := b3.Build()
	protos3, cfg3 := buildScripted(g3, [][]bool{{false}, {true}, {true}, {true}}, WakeSynchronous(4))
	bindCapture(t, &cfg3, 1, 0)
	res3, err := Run(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if len(protos3[0].received) != 0 || res3.Captures != 0 {
		t.Errorf("three-way collision captured: %v", protos3[0].received)
	}
	// Capture is off by default.
	protosOff, cfgOff := buildScripted(g, [][]bool{{false}, {true}, {true}}, WakeSynchronous(3))
	bindGraphMedium(t, &cfgOff)
	if _, err := Run(cfgOff); err != nil {
		t.Fatal(err)
	}
	if len(protosOff[0].received) != 0 {
		t.Error("capture fired with Capture=0")
	}
}

func TestCaptureDeterministic(t *testing.T) {
	run := func() int64 {
		g := line(20)
		protos := make([]Protocol, g.N())
		for i := range protos {
			protos[i] = &randProto{id: NodeID(i), rng: NodeRand(3, NodeID(i)), p: 0.4, limit: 300}
		}
		cfg := Config{G: g, Protocols: protos, Wake: WakeSynchronous(g.N())}
		bindCapture(t, &cfg, 0.5, 11)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Captures
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("capture coin not deterministic: %d vs %d", a, b)
	}
	if a == 0 {
		t.Error("no captures in a contended run (suspicious)")
	}
}
