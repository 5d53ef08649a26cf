package radio

import (
	"reflect"
	"testing"

	"radiocolor/internal/fault"
)

// Reset implements Restartable for the scripted test protocol: the node
// forgets everything but its identity and script, exactly the fail-stop
// restart contract.
func (p *scriptProto) Reset() {
	p.local = 0
	p.received = nil
	p.recvSlot = nil
	p.done = false
}

func mustInjector(t *testing.T, p *fault.Profile, n int) *fault.Injector {
	t.Helper()
	inj, err := p.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	if inj == nil {
		t.Fatal("active profile compiled to a nil injector")
	}
	return inj
}

func TestFaultCrashSilencesNode(t *testing.T) {
	// 0-1-2: node 0 transmits every slot but fail-stops at slot 2. Node 1
	// must hear it in slots 0 and 1 only, and the run must end as soon as
	// every survivor decided (graceful degradation, AllDone=false).
	g := line(3)
	protos, cfg := buildScripted(g, [][]bool{
		{true, true, true, true, true, true},
		make([]bool, 6),
		make([]bool, 6),
	}, WakeSynchronous(3))
	cfg.Faults = mustInjector(t, &fault.Profile{
		Crashes: []fault.Crash{{Node: 0, At: 2}},
	}, 3)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := protos[1].recvSlot; !reflect.DeepEqual(got, []int64{0, 1}) {
		t.Errorf("node 1 heard slots %v, want [0 1]", got)
	}
	if res.Crashes != 1 || res.Restarts != 0 {
		t.Errorf("crashes=%d restarts=%d, want 1/0", res.Crashes, res.Restarts)
	}
	if !reflect.DeepEqual(res.Down, []int32{0}) {
		t.Errorf("Down = %v, want [0]", res.Down)
	}
	if res.AllDone {
		t.Error("AllDone with a permanently crashed undecided node")
	}
	if res.DecideSlot[0] != -1 {
		t.Errorf("crashed node DecideSlot = %d, want -1", res.DecideSlot[0])
	}
	if res.DecideSlot[1] < 0 || res.DecideSlot[2] < 0 {
		t.Errorf("survivors did not decide: %v", res.DecideSlot)
	}
	// The run must stop once survivors are done, not burn MaxSlots.
	if res.Slots >= cfg.MaxSlots {
		t.Errorf("run used the whole %d-slot budget; graceful termination broken", cfg.MaxSlots)
	}
}

func TestFaultRestartClearsStateAndRetractsDecision(t *testing.T) {
	// 0-1: node 0 transmits twice then decides (slot 2). It crashes at
	// slot 3 — after deciding — and restarts at slot 5. The restart must
	// retract the decision, reset the protocol (the script replays from
	// local slot 0), and re-decide at slot 7.
	g := line(2)
	protos, cfg := buildScripted(g, [][]bool{
		{true, true},
		make([]bool, 20),
	}, WakeSynchronous(2))
	cfg.Faults = mustInjector(t, &fault.Profile{
		Crashes: []fault.Crash{{Node: 0, At: 3, Restart: 5}},
	}, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := protos[1].recvSlot; !reflect.DeepEqual(got, []int64{0, 1, 5, 6}) {
		t.Errorf("node 1 heard slots %v, want [0 1 5 6] (script replay after restart)", got)
	}
	if protos[0].started != 2 {
		t.Errorf("node 0 Start calls = %d, want 2 (wake + restart)", protos[0].started)
	}
	if res.Crashes != 1 || res.Restarts != 1 {
		t.Errorf("crashes=%d restarts=%d, want 1/1", res.Crashes, res.Restarts)
	}
	if res.DecideSlot[0] != 7 {
		t.Errorf("node 0 DecideSlot = %d, want 7 (re-decision after restart)", res.DecideSlot[0])
	}
	if len(res.Down) != 0 {
		t.Errorf("Down = %v, want empty after restart", res.Down)
	}
	if !res.AllDone {
		t.Error("run must finish AllDone: both nodes re-decided")
	}
}

func TestFaultCrashBeforeWake(t *testing.T) {
	// Node 1 is scheduled to wake at slot 2 but crashes at slot 0: it
	// must never start. Its restart at slot 4 comes after the missed wake
	// slot, so the restart (not the wake loop) brings it up.
	g := line(2)
	protos, cfg := buildScripted(g, [][]bool{
		make([]bool, 8),
		{true, true},
	}, []int64{0, 2})
	cfg.Faults = mustInjector(t, &fault.Profile{
		Crashes: []fault.Crash{{Node: 1, At: 0, Restart: 4}},
	}, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if protos[1].started != 1 {
		t.Errorf("node 1 Start calls = %d, want 1 (restart only; wake at slot 2 skipped)", protos[1].started)
	}
	if protos[1].wokeAt != 4 {
		t.Errorf("node 1 started at slot %d, want 4", protos[1].wokeAt)
	}
	if got := protos[0].recvSlot; !reflect.DeepEqual(got, []int64{4, 5}) {
		t.Errorf("node 0 heard slots %v, want [4 5]", got)
	}
	if res.WakeSlot[1] != 2 {
		t.Errorf("WakeSlot[1] = %d, want the scheduled 2", res.WakeSlot[1])
	}
}

func TestFaultJamSuppressesDeliveries(t *testing.T) {
	// A jammer parked on node 1 corrupts every slot: node 0's five
	// transmissions all vanish, counted as Jammed, not Delivered.
	g := line(2)
	protos, cfg := buildScripted(g, [][]bool{
		{true, true, true, true, true},
		make([]bool, 5),
	}, WakeSynchronous(2))
	cfg.Faults = mustInjector(t, &fault.Profile{
		Jammers: []fault.Jammer{{Nodes: []int{1}, From: 0}},
	}, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(protos[1].received) != 0 {
		t.Errorf("node 1 received %v through a jammer", protos[1].received)
	}
	if res.Deliveries != 0 || res.Jammed != 5 {
		t.Errorf("deliveries=%d jammed=%d, want 0/5", res.Deliveries, res.Jammed)
	}
	if res.Transmissions != 5 {
		t.Errorf("transmissions=%d, want 5 (jam kills reception, not the send)", res.Transmissions)
	}
}

func TestFaultLossConservesReceptions(t *testing.T) {
	// Every would-be delivery is either delivered or counted Lost: the
	// fault layer must not invent or leak receptions.
	g := line(2)
	scripts := [][]bool{make([]bool, 50), make([]bool, 50)}
	for i := range scripts[0] {
		scripts[0][i] = true
	}
	_, base := buildScripted(g, scripts, WakeSynchronous(2))
	baseRes, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if baseRes.Deliveries == 0 {
		t.Fatal("baseline delivered nothing; test is vacuous")
	}

	protos, cfg := buildScripted(g, scripts, WakeSynchronous(2))
	cfg.Faults = mustInjector(t, &fault.Profile{Seed: 9, Loss: 0.5}, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deliveries+res.Lost != baseRes.Deliveries {
		t.Errorf("delivered %d + lost %d != baseline %d", res.Deliveries, res.Lost, baseRes.Deliveries)
	}
	if res.Lost == 0 || res.Deliveries == 0 {
		t.Errorf("50%% loss over 50 slots gave lost=%d delivered=%d; coin looks degenerate", res.Lost, res.Deliveries)
	}

	// Same seed, same chaos: an identical rerun reproduces the exact
	// reception log.
	protos2, cfg2 := buildScripted(g, scripts, WakeSynchronous(2))
	cfg2.Faults = mustInjector(t, &fault.Profile{Seed: 9, Loss: 0.5}, 2)
	if _, err := Run(cfg2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(protos[1].recvSlot, protos2[1].recvSlot) {
		t.Errorf("same-seed reruns diverged: %v vs %v", protos[1].recvSlot, protos2[1].recvSlot)
	}
}

func TestFaultInjectorWrongSize(t *testing.T) {
	g := line(3)
	_, cfg := buildScripted(g, [][]bool{nil, nil, nil}, WakeSynchronous(3))
	cfg.Faults = mustInjector(t, &fault.Profile{Loss: 0.1}, 7)
	if _, err := Run(cfg); err == nil {
		t.Fatal("engine accepted an injector compiled for a different node count")
	}
}

// TestFaultSkewRunsThroughEngine pins the skew contract: a clock-skew
// profile switches the ordinary engine to the half-slot rule, so Run
// equals RunUnaligned with the profile's offsets, field for field and
// in every protocol's receptions.
func TestFaultSkewRunsThroughEngine(t *testing.T) {
	n := 40
	inj := mustInjector(t, &fault.Profile{
		Seed: 3, Loss: 0.1, SkewProb: 0.5,
		Crashes: []fault.Crash{{Node: 6, At: 30}},
	}, n)
	run := func(unaligned bool) (*Result, []int64) {
		protos := make([]Protocol, n)
		rps := make([]*randProto, n)
		for i := range protos {
			rps[i] = &randProto{id: NodeID(i), rng: NodeRand(77, NodeID(i)), p: 0.25, limit: 300}
			protos[i] = rps[i]
		}
		cfg := Config{G: line(n), Protocols: protos, Wake: WakeUniform(n, 40, 5), Faults: inj}
		var res *Result
		var err error
		if unaligned {
			res, err = RunUnaligned(cfg, nil)
		} else {
			res, err = Run(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		rx := make([]int64, n)
		for i, r := range rps {
			rx[i] = r.rxSum
		}
		return res, rx
	}
	res, rx := run(false)
	want, wantRx := run(true)
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("Run with a skew profile diverged from RunUnaligned\n run:       %+v\n unaligned: %+v", res, want)
	}
	if !reflect.DeepEqual(rx, wantRx) {
		t.Fatal("receptions diverged between Run and RunUnaligned")
	}
	if res.Deliveries == 0 || res.Collisions == 0 || res.Lost == 0 {
		t.Fatalf("vacuous skew run: %+v", res)
	}
	// Explicit offsets win over the profile's.
	aligned, err := RunUnaligned(Config{G: line(n), Protocols: freshRand(n), Wake: WakeUniform(n, 40, 5), Faults: inj}, make([]int8, n))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(aligned, want) {
		t.Fatal("explicit offsets were ignored in favour of the profile's")
	}
}

// freshRand returns n randProto instances on the test's fixed seed.
func freshRand(n int) []Protocol {
	protos := make([]Protocol, n)
	for i := range protos {
		protos[i] = &randProto{id: NodeID(i), rng: NodeRand(77, NodeID(i)), p: 0.25, limit: 300}
	}
	return protos
}

func TestFaultRestartNeedsRestartable(t *testing.T) {
	// A restart schedule against a protocol without Reset must fail at
	// engine construction, not mid-run.
	g := line(2)
	protos := []Protocol{&fixedProto{}, &fixedProto{}}
	cfg := Config{G: g, Protocols: protos, Wake: WakeSynchronous(2), MaxSlots: 10}
	inj := mustInjector(t, &fault.Profile{
		Crashes: []fault.Crash{{Node: 0, At: 1, Restart: 3}},
	}, 2)
	cfg.Faults = inj
	if _, err := Run(cfg); err == nil {
		t.Fatal("engine accepted a restart schedule for a non-Restartable protocol")
	}
}

// fixedProto is a minimal non-Restartable protocol.
type fixedProto struct{ done bool }

func (p *fixedProto) Start(int64)         {}
func (p *fixedProto) Send(int64) Message  { p.done = true; return nil }
func (p *fixedProto) Recv(int64, Message) {}
func (p *fixedProto) Done() bool          { return p.done }

// Reset implements Restartable for the beacon protocol.
func (b *beaconProto) Reset() { b.beat = 0 }

// TestFaultSeamZeroAlloc pins the fault seam's steady state on one
// tile and one worker, where the off filter lives in the plain wake,
// send and decide sweeps: with loss, a jammer and crash/restart
// events all firing inside the measured window, a slot allocates
// nothing.
func TestFaultSeamZeroAlloc(t *testing.T) {
	n := 32
	protos := make([]Protocol, n)
	for i := range protos {
		protos[i] = &beaconProto{msg: &testMsg{from: NodeID(i)}, mod: 2 + i%5}
	}
	inj := mustInjector(t, &fault.Profile{
		Seed: 5,
		Loss: 0.2,
		Crashes: []fault.Crash{
			{Node: 4, At: 10, Restart: 30},
			{Node: 9, At: 100, Restart: 300},
			{Node: 20, At: 200},
		},
		Jammers: []fault.Jammer{{Nodes: []int{1, 2, 3}, From: 50, Period: 10, Duty: 3}},
	}, n)
	e, err := NewEngine(Config{
		G: line(n), Protocols: protos, Wake: WakeSynchronous(n),
		MaxSlots: 1 << 40, Faults: inj, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e.Slot() < 40 { // past the first crash/restart pair
		e.Step()
	}
	if allocs := testing.AllocsPerRun(500, func() { e.Step() }); allocs != 0 {
		t.Errorf("fault-injected engine allocates %v per slot, want 0", allocs)
	}
	res := e.Result()
	if res.Lost == 0 || res.Jammed == 0 || res.Crashes != 3 || res.Restarts != 2 {
		t.Errorf("faults did not all fire in the window: lost=%d jammed=%d crashes=%d restarts=%d",
			res.Lost, res.Jammed, res.Crashes, res.Restarts)
	}
}
