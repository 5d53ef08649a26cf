package radio

import (
	"strings"
	"testing"

	"radiocolor/internal/fault"
	"radiocolor/internal/obs"
)

func TestCollectorObserverRecordsInOrder(t *testing.T) {
	g := line(3)
	_, cfg := buildScripted(g, [][]bool{{true}, nil, {true, true}}, WakeSynchronous(3))
	tr := obs.NewTracer(0, nil)
	cfg.Observer = CollectorObserver(&obs.Collector{Tracer: tr})
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	prev := int64(-1)
	for _, e := range events {
		if e.Slot < prev {
			t.Fatalf("events out of order: %v", events)
		}
		prev = e.Slot
	}
	// Slot 0: nodes 0 and 2 transmit; node 1 collides. Wake and decide
	// events for all 3 nodes are present.
	var tx, coll, decide, wake int
	for _, e := range events {
		switch e.Kind {
		case obs.KindTransmit:
			tx++
		case obs.KindCollision:
			coll++
		case obs.KindDecide:
			decide++
		case obs.KindWake:
			wake++
		}
	}
	if tx != 3 || coll != 1 || decide != 3 || wake != 3 {
		t.Errorf("tx=%d coll=%d decide=%d wake=%d", tx, coll, decide, wake)
	}
	if tr.Total() != int64(len(events)) {
		t.Errorf("Total=%d, retained=%d", tr.Total(), len(events))
	}
}

func TestCollectorObserverDeliverAttribution(t *testing.T) {
	g := line(2)
	_, cfg := buildScripted(g, [][]bool{{true}, nil}, WakeSynchronous(2))
	tr := obs.NewTracer(0, nil, obs.KindDeliver)
	cfg.Observer = CollectorObserver(&obs.Collector{Tracer: tr})
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	if len(events) != 1 {
		t.Fatalf("deliveries = %v, want exactly 1", events)
	}
	if events[0].Node != 1 || events[0].From != 0 {
		t.Errorf("delivery %+v, want node=1 from=0", events[0])
	}
}

func TestCollectorObserverNil(t *testing.T) {
	if CollectorObserver(nil) != nil {
		t.Error("nil collector must map to nil observer")
	}
	if CollectorObserver(&obs.Collector{}) != nil {
		t.Error("empty collector must map to nil observer")
	}
	if CollectorObserver(&obs.Collector{Tracer: obs.NewTracer(0, nil)}) == nil {
		t.Error("tracer-bearing collector must yield an observer")
	}
}

func TestCollectorObserverTimeline(t *testing.T) {
	g := line(3)
	_, cfg := buildScripted(g, [][]bool{{true}, nil, {true, true}}, WakeSynchronous(3))
	tl := obs.NewTimeline(3, 0)
	cfg.Observer = CollectorObserver(&obs.Collector{Timeline: tl})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Slots() != res.Slots {
		t.Errorf("timeline saw %d slots, engine ran %d", tl.Slots(), res.Slots)
	}
	var tx, rx, coll int64
	for _, p := range tl.Phases() {
		tx += p.Transmissions
		rx += p.Deliveries
		coll += p.Collisions
	}
	if tx != res.Transmissions || rx != res.Deliveries || coll != res.Collisions {
		t.Errorf("timeline tx=%d rx=%d coll=%d, result %v", tx, rx, coll, res)
	}
}

// recordingObserver logs method invocations for fan-out tests.
type recordingObserver struct {
	NopObserver
	log *strings.Builder
	tag string
}

func (r *recordingObserver) OnSlot(int64)           { r.log.WriteString(r.tag + "s") }
func (r *recordingObserver) OnDecide(int64, NodeID) { r.log.WriteString(r.tag + "d") }
func (r *recordingObserver) OnWake(int64, NodeID)   { r.log.WriteString(r.tag + "w") }
func (r *recordingObserver) OnCollision(int64, NodeID, int) {
	r.log.WriteString(r.tag + "c")
}

func TestObserversFanOut(t *testing.T) {
	var log strings.Builder
	a := &recordingObserver{log: &log, tag: "a"}
	b := &recordingObserver{log: &log, tag: "b"}
	o := Observers(nil, a, nil, b)
	o.OnWake(0, 1)
	o.OnSlot(0)
	o.OnDecide(1, 2)
	if got := log.String(); got != "awbwasbsadbd" {
		t.Errorf("fan-out order = %q", got)
	}
}

func TestObserversDegenerate(t *testing.T) {
	if Observers() != nil || Observers(nil, nil) != nil {
		t.Error("empty composition must be nil (disabled fast path)")
	}
	var log strings.Builder
	a := &recordingObserver{log: &log, tag: "a"}
	if got := Observers(nil, a); got != Observer(a) {
		t.Errorf("single observer must be returned unwrapped, got %T", got)
	}
}

// TestMetricsMatchResult checks Result's lifecycle counters against the
// Observer's events: Wakeups counts scheduled wake-ups and fault
// restarts, Decisions every decision the engine records, a re-decision
// after a restart included.
func TestMetricsMatchResult(t *testing.T) {
	check := func(name string, cfg Config, want int64) {
		t.Helper()
		ob := &countingObserver{}
		cfg.Observer = ob
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Wakeups != want || res.Decisions != want {
			t.Errorf("%s: wakeups=%d decisions=%d, want %d and %d", name, res.Wakeups, res.Decisions, want, want)
		}
		if int64(ob.wake) != res.Wakeups || int64(ob.decide) != res.Decisions {
			t.Errorf("%s: observer saw %d wake-ups and %d decisions, result %d and %d",
				name, ob.wake, ob.decide, res.Wakeups, res.Decisions)
		}
	}
	_, cfg := buildScripted(line(5), [][]bool{{true}, nil, {true, true}, nil, {true}}, WakeUniform(5, 7, 11))
	check("plain", cfg, 5)

	// Node 0 decides at slot 2, crashes at 3 and restarts at 5: one
	// more wake-up and one more decision than nodes.
	_, cfg = buildScripted(line(2), [][]bool{{true, true}, make([]bool, 20)}, WakeSynchronous(2))
	cfg.Faults = mustInjector(t, &fault.Profile{Crashes: []fault.Crash{{Node: 0, At: 3, Restart: 5}}}, 2)
	check("restart", cfg, 3)
}

// idleProto never transmits and never finishes: every Step exercises
// the full wake/send/decide machinery with no protocol-side allocation,
// isolating the observability seam's cost.
type idleProto struct{}

func (idleProto) Start(int64)         {}
func (idleProto) Send(int64) Message  { return nil }
func (idleProto) Recv(int64, Message) {}
func (idleProto) Done() bool          { return false }

func newIdleEngine(tb testing.TB, n int) *Engine {
	tb.Helper()
	protos := make([]Protocol, n)
	for i := range protos {
		protos[i] = idleProto{}
	}
	e, err := NewEngine(Config{
		G:         line(n),
		Protocols: protos,
		Wake:      WakeSynchronous(n),
		MaxSlots:  1 << 40,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// TestDisabledSeamZeroAlloc pins the zero-overhead contract: with no
// Observer the engine allocates nothing per slot.
func TestDisabledSeamZeroAlloc(t *testing.T) {
	e := newIdleEngine(t, 32)
	e.Step() // absorb wake-up work
	if allocs := testing.AllocsPerRun(500, func() { e.Step() }); allocs != 0 {
		t.Errorf("disabled observability seam allocates %v per slot, want 0", allocs)
	}
}
