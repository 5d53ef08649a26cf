package radio

import (
	"testing"

	"radiocolor/internal/fault"
	"radiocolor/internal/graph"
)

func TestUnalignedValidation(t *testing.T) {
	g := line(2)
	_, cfg := buildScripted(g, [][]bool{nil, nil}, WakeSynchronous(2))
	if _, err := RunUnaligned(cfg, []int8{0}); err == nil {
		t.Error("offset length mismatch accepted")
	}
	if _, err := RunUnaligned(cfg, []int8{0, 3}); err == nil {
		t.Error("offset value 3 accepted")
	}
	if _, err := RunUnaligned(Config{}, nil); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestUnalignedZeroOffsetsMatchAlignedRule(t *testing.T) {
	// 0-1-2 path, only node 0 transmits once: node 1 receives exactly
	// one message (delivered one slot after initiation).
	g := line(3)
	protos, cfg := buildScripted(g, [][]bool{{true}, nil, nil}, WakeSynchronous(3))
	res, err := RunUnaligned(cfg, []int8{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(protos[1].received) != 1 || protos[1].recvSlot[0] != 1 {
		t.Errorf("node 1 received %v at %v, want one message in slot 1", protos[1].received, protos[1].recvSlot)
	}
	if len(protos[2].received) != 0 {
		t.Error("non-neighbor received")
	}
	if res.Deliveries != 1 || res.Transmissions != 1 {
		t.Errorf("stats: %v", res)
	}
	// Same-slot aligned collision still collides.
	protos, cfg = buildScripted(g, [][]bool{{true}, nil, {true}}, WakeSynchronous(3))
	if _, err := RunUnaligned(cfg, []int8{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if len(protos[1].received) != 0 {
		t.Error("aligned collision delivered")
	}
}

func TestUnalignedCrossOffsetOverlap(t *testing.T) {
	// Nodes 0 and 2 are both neighbors of 1. Node 0 (offset 0)
	// transmits in slot 0 (halves 0,1); node 2 (offset 1) transmits in
	// slot 0 (halves 1,2). Their transmissions overlap at half 1, so
	// node 1 receives neither.
	g := line(3)
	protos, cfg := buildScripted(g, [][]bool{{true}, nil, {true}}, WakeSynchronous(3))
	if _, err := RunUnaligned(cfg, []int8{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if len(protos[1].received) != 0 {
		t.Errorf("node 1 received %v despite half-slot overlap", protos[1].received)
	}
}

func TestUnalignedCrossSlotOverlap(t *testing.T) {
	// Node 2 (offset 1) transmits in slot 0 → halves 1,2. Node 0
	// (offset 0) transmits in slot 1 → halves 2,3. Overlap at half 2:
	// node 1 hears neither.
	g := line(3)
	protos, cfg := buildScripted(g, [][]bool{{false, true}, nil, {true, false}}, WakeSynchronous(3))
	if _, err := RunUnaligned(cfg, []int8{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if len(protos[1].received) != 0 {
		t.Errorf("node 1 received %v despite cross-slot overlap", protos[1].received)
	}
}

func TestUnalignedDisjointHalvesDeliver(t *testing.T) {
	// Node 0 (offset 0) transmits slot 0 (halves 0,1); node 2 (offset
	// 1) transmits slot 1 (halves 3,4). No overlap: node 1 receives
	// both.
	g := line(3)
	protos, cfg := buildScripted(g, [][]bool{{true, false}, nil, {false, true}}, WakeSynchronous(3))
	if _, err := RunUnaligned(cfg, []int8{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if len(protos[1].received) != 2 {
		t.Errorf("node 1 received %v, want both messages", protos[1].received)
	}
}

func TestUnalignedReceiverBusy(t *testing.T) {
	// Receiver 1 (offset 1) transmits in slot 0 (halves 1,2); node 0
	// (offset 0) transmits in slot 0 (halves 0,1). Node 1 is busy in
	// half 1 → no reception at 1; node 0 is busy in half 1 too → no
	// reception at 0 either... but 0's own interval is 0,1 and node 1's
	// transmission covers 1,2: they overlap at half 1, so neither side
	// receives.
	g := line(2)
	protos, cfg := buildScripted(g, [][]bool{{true}, {true}}, WakeSynchronous(2))
	if _, err := RunUnaligned(cfg, []int8{0, 1}); err != nil {
		t.Fatal(err)
	}
	if len(protos[0].received)+len(protos[1].received) != 0 {
		t.Error("busy receivers got messages")
	}
}

func TestUnalignedDefaultOffsetsDeterministic(t *testing.T) {
	g := line(10)
	run := func() int64 {
		protos := make([]Protocol, g.N())
		for i := range protos {
			protos[i] = &randProto{id: NodeID(i), rng: NodeRand(7, NodeID(i)), p: 0.3, limit: 200}
		}
		res, err := RunUnaligned(Config{G: g, Protocols: protos, Wake: WakeSynchronous(g.N())}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Deliveries
	}
	if run() != run() {
		t.Error("default offsets not deterministic")
	}
}

func TestUnalignedSleepersDeaf(t *testing.T) {
	g := line(2)
	script := make([]bool, 8)
	for i := range script {
		script[i] = true
	}
	protos, cfg := buildScripted(g, [][]bool{script, make([]bool, 8)}, []int64{0, 4})
	if _, err := RunUnaligned(cfg, []int8{0, 1}); err != nil {
		t.Fatal(err)
	}
	for _, s := range protos[1].recvSlot {
		if s < 4 {
			t.Errorf("sleeping node received at slot %d", s)
		}
	}
}

// lineGraph alias for readability in this file.
var _ = func() *graph.Graph { return line(2) }

// collisionLog records the OnCollision events of a run.
type collisionLog struct {
	NopObserver
	at, transmitters []int
}

func (c *collisionLog) OnCollision(_ int64, at NodeID, transmitters int) {
	c.at = append(c.at, int(at))
	c.transmitters = append(c.transmitters, transmitters)
}

func TestUnalignedCollisionCountedOncePerListener(t *testing.T) {
	// Result.Collisions counts (listener, slot) pairs: a listener that k
	// overlapping transmissions reach collides once, with k reported.
	for _, k := range []int{2, 3} {
		b := graph.NewBuilder(k + 1)
		for leaf := 1; leaf <= k; leaf++ {
			b.AddEdge(0, leaf)
		}
		scripts := make([][]bool, k+1)
		for leaf := 1; leaf <= k; leaf++ {
			scripts[leaf] = []bool{true}
		}
		protos, cfg := buildScripted(b.Build(), scripts, WakeSynchronous(k+1))
		log := &collisionLog{}
		cfg.Observer = log
		res, err := RunUnaligned(cfg, make([]int8, k+1))
		if err != nil {
			t.Fatal(err)
		}
		if len(protos[0].received) != 0 {
			t.Errorf("k=%d: hub received %v through a collision", k, protos[0].received)
		}
		if res.Collisions != 1 {
			t.Errorf("k=%d: Collisions = %d, want 1", k, res.Collisions)
		}
		if len(log.at) != 1 || log.at[0] != 0 || log.transmitters[0] != k {
			t.Errorf("k=%d: OnCollision at %v with %v transmitters, want one event at 0 with %d",
				k, log.at, log.transmitters, k)
		}
	}
}

// TestUnalignedStepZeroAlloc pins the half-slot rule's steady state
// inside Engine.Step: its transmission records live in two buffers that
// swap every slot, and Send and decisions go through the batch over the
// awake list, so a slot with traffic, loss and a crash/restart inside
// the window allocates nothing.
func TestUnalignedStepZeroAlloc(t *testing.T) {
	n := 32
	protos := make([]Protocol, n)
	for i := range protos {
		protos[i] = &beaconProto{msg: &testMsg{from: NodeID(i)}, mod: 2 + i%5}
	}
	inj := mustInjector(t, &fault.Profile{
		Seed: 5, Loss: 0.2, SkewProb: 0.5,
		Crashes: []fault.Crash{{Node: 9, At: 100, Restart: 300}},
	}, n)
	e, err := NewEngine(Config{
		G: line(n), Protocols: protos, Wake: WakeUniform(n, 20, 3),
		MaxSlots: 1 << 40, Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.hs == nil {
		t.Fatal("skew profile did not select the half-slot rule")
	}
	for e.Slot() < 40 { // past the wake ramp
		e.Step()
	}
	if allocs := testing.AllocsPerRun(500, func() { e.Step() }); allocs != 0 {
		t.Errorf("half-slot slot allocates %v per slot, want 0", allocs)
	}
	res := e.Result()
	if res.Transmissions == 0 || res.Deliveries == 0 || res.Lost == 0 || res.Restarts != 1 {
		t.Errorf("window not exercised: tx=%d rx=%d lost=%d restarts=%d",
			res.Transmissions, res.Deliveries, res.Lost, res.Restarts)
	}
}
