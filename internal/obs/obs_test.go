package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestMetricsCountersAndRates(t *testing.T) {
	m := NewMetrics()
	m.AddPhaseGauge(PhaseAsleep, 3)
	for i := 0; i < 5; i++ {
		m.AddTransmission()
	}
	m.AddDelivery()
	m.AddDelivery()
	m.AddCollision()
	m.AddDecision()
	m.AddWakeup()
	m.AddSlot()
	m.PhaseChange(PhaseAsleep, PhaseWaiting)
	m.AddFaultTotals(1, 2, 3, 4)
	m.AddChurnTotals(5, 6, 7)

	s := m.Snapshot()
	if s.Transmissions != 5 || s.Deliveries != 2 || s.Collisions != 1 {
		t.Fatalf("counters wrong: %+v", s)
	}
	if s.PhaseNodes[PhaseAsleep] != 2 || s.PhaseNodes[PhaseWaiting] != 1 {
		t.Errorf("phase gauges wrong: %v", s.PhaseNodes)
	}
	if got := s.CollisionRate(); got != 1.0/3.0 {
		t.Errorf("collision rate = %v, want 1/3", got)
	}
	if s.Start.IsZero() {
		t.Error("rate origin not stamped by AddSlot")
	}

	// Export: the thirteen counters in their documented order, then one
	// gauge per phase.
	var names []string
	got := map[string]int64{}
	s.Export(func(name string, v int64, counter bool) {
		if counter != !strings.HasPrefix(name, "phase_") {
			t.Errorf("%s: counter = %v", name, counter)
		}
		names = append(names, name)
		got[name] = v
	})
	want := "transmissions deliveries collisions decisions wakeups slots lost jammed crashes restarts joins leaves conflicts_repaired " +
		"phase_asleep phase_waiting phase_active phase_request phase_colored"
	if strings.Join(names, " ") != want {
		t.Errorf("export order\n got %s\nwant %s", strings.Join(names, " "), want)
	}
	if got["transmissions"] != 5 || got["jammed"] != 2 || got["restarts"] != 4 || got["conflicts_repaired"] != 7 || got["phase_waiting"] != 1 {
		t.Errorf("exported values wrong: %v", got)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.AddTransmission()
				m.PhaseChange(PhaseWaiting, PhaseActive)
				m.PhaseChange(PhaseActive, PhaseWaiting)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Transmissions != 8000 {
		t.Errorf("lost transmissions: %d", s.Transmissions)
	}
	if s.PhaseNodes[PhaseActive] != 0 {
		t.Errorf("phase gauge drifted: %d", s.PhaseNodes[PhaseActive])
	}
}

func TestEventJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{Slot: 0, Kind: KindWake, Node: 3, From: -1},
		{Slot: 1, Kind: KindPhase, Node: 3, From: -1, Phase: PhaseWaiting, Class: 0},
		{Slot: 7, Kind: KindTransmit, Node: 1, From: -1},
		{Slot: 7, Kind: KindDeliver, Node: 2, From: 1},
		{Slot: 8, Kind: KindCollision, Node: 2, From: -1, Count: 3},
		{Slot: 9, Kind: KindPhase, Node: 1, From: -1, Phase: PhaseColored, Class: 4},
		{Slot: 12, Kind: KindDecide, Node: 1, From: -1},
	}
	var buf bytes.Buffer
	for _, e := range events {
		buf.Write(e.MarshalJSONL())
		buf.WriteByte('\n')
	}
	var got []Event
	if err := ReadEvents(&buf, func(e Event) error { got = append(got, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d of %d events", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: got %+v want %+v", i, got[i], events[i])
		}
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	if err := ReadEvents(strings.NewReader("{\"slot\":1,\"kind\":\"nope\",\"node\":0}\n"),
		func(Event) error { return nil }); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := ReadEvents(strings.NewReader("not json\n"),
		func(Event) error { return nil }); err == nil {
		t.Error("non-JSON line accepted")
	}
}

func TestTracerRingAndSink(t *testing.T) {
	var sink bytes.Buffer
	tr := NewTracer(4, &sink)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Slot: int64(i), Kind: KindTransmit, Node: int32(i), From: -1})
	}
	if tr.Total() != 10 {
		t.Errorf("total = %d", tr.Total())
	}
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("ring retained %d", len(events))
	}
	// The ring keeps the tail in chronological order.
	for i, e := range events {
		if e.Slot != int64(6+i) {
			t.Errorf("ring[%d].Slot = %d, want %d", i, e.Slot, 6+i)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	// The sink holds all 10, not just the ring's 4.
	if n := strings.Count(sink.String(), "\n"); n != 10 {
		t.Errorf("sink has %d lines", n)
	}
}

func TestTracerKindFilter(t *testing.T) {
	tr := NewTracer(16, nil, KindCollision)
	tr.Record(Event{Slot: 1, Kind: KindTransmit, Node: 0, From: -1})
	tr.Record(Event{Slot: 1, Kind: KindCollision, Node: 1, From: -1, Count: 2})
	if tr.Total() != 1 || tr.Events()[0].Kind != KindCollision {
		t.Errorf("filter failed: total=%d", tr.Total())
	}
}

func TestKindAndPhaseNames(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Errorf("kind %d: %q round-trip failed", k, k.String())
		}
	}
	for p := Phase(0); p < NumPhases; p++ {
		back, err := ParsePhase(p.String())
		if err != nil || back != p {
			t.Errorf("phase %d: %q round-trip failed", p, p.String())
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("bogus kind parsed")
	}
}

// feed drives the same synthetic run into any combination of collector
// pieces: 2 nodes wake, exchange messages, collide once, and decide.
func feed(c *Collector) {
	c.OnPhase(0, 0, PhaseAsleep, PhaseWaiting, 0)
	c.OnPhase(0, 1, PhaseAsleep, PhaseWaiting, 0)
	if c.Timeline != nil {
		c.Timeline.OnSlot(0)
	}
	c.OnPhase(1, 0, PhaseWaiting, PhaseActive, 0)
	if c.Tracer != nil {
		c.Tracer.Record(Event{Slot: 1, Kind: KindTransmit, Node: 0, From: -1})
		c.Tracer.Record(Event{Slot: 1, Kind: KindDeliver, Node: 1, From: 0})
	}
	if c.Timeline != nil {
		c.Timeline.OnTransmit(1, 0)
		c.Timeline.OnDeliver(1, 1)
		c.Timeline.OnSlot(1)
	}
	if c.Tracer != nil {
		c.Tracer.Record(Event{Slot: 2, Kind: KindCollision, Node: 1, From: -1, Count: 2})
	}
	if c.Timeline != nil {
		c.Timeline.OnCollision(2, 1)
		c.Timeline.OnSlot(2)
	}
	c.OnPhase(3, 0, PhaseActive, PhaseColored, 2)
	if c.Tracer != nil {
		c.Tracer.Record(Event{Slot: 3, Kind: KindDecide, Node: 0, From: -1})
	}
	if c.Timeline != nil {
		c.Timeline.OnDecide(3, 0)
		c.Timeline.OnSlot(3)
	}
}

func TestTimelineAttribution(t *testing.T) {
	tl := NewTimeline(2, 2)
	c := &Collector{Timeline: tl}
	feed(c)

	phases := tl.Phases()
	if phases[PhaseActive].Transmissions != 1 {
		t.Errorf("active tx = %d", phases[PhaseActive].Transmissions)
	}
	if phases[PhaseWaiting].Deliveries != 1 || phases[PhaseWaiting].Collisions != 1 {
		t.Errorf("waiting rx/coll = %d/%d",
			phases[PhaseWaiting].Deliveries, phases[PhaseWaiting].Collisions)
	}
	if phases[PhaseWaiting].Entries != 2 || phases[PhaseActive].Entries != 1 || phases[PhaseColored].Entries != 1 {
		t.Errorf("entries wrong: %+v", phases)
	}
	// Occupancy integral: node 1 waits slots 0–3 (4), node 0 waits slot
	// 0, is active slots 1–2, colored slot 3.
	if phases[PhaseWaiting].NodeSlots != 5 || phases[PhaseActive].NodeSlots != 2 {
		t.Errorf("node-slots: waiting=%d active=%d",
			phases[PhaseWaiting].NodeSlots, phases[PhaseActive].NodeSlots)
	}

	buckets := tl.Buckets()
	if len(buckets) != 2 {
		t.Fatalf("%d buckets for 4 slots at width 2", len(buckets))
	}
	if buckets[0].Transmissions != 1 || buckets[0].Deliveries != 1 || buckets[0].Slots != 2 {
		t.Errorf("bucket 0 wrong: %+v", buckets[0])
	}
	if buckets[1].Collisions != 1 || buckets[1].Decisions != 1 {
		t.Errorf("bucket 1 wrong: %+v", buckets[1])
	}
	if buckets[1].PhaseNodes[PhaseColored] != 1 || buckets[1].PhaseNodes[PhaseWaiting] != 1 {
		t.Errorf("bucket 1 occupancy wrong: %v", buckets[1].PhaseNodes)
	}
	if tl.Slots() != 4 {
		t.Errorf("slots = %d", tl.Slots())
	}
}

// TestSummarizeMatchesTimeline is the core contract of the subsystem:
// replaying a full JSONL trace offline yields the same per-phase
// delivery/collision/transmission counts the Timeline computed online.
func TestSummarizeMatchesTimeline(t *testing.T) {
	var sink bytes.Buffer
	c := &Collector{Tracer: NewTracer(0, &sink), Timeline: NewTimeline(2, 0)}
	feed(c)
	if err := c.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(&sink)
	if err != nil {
		t.Fatal(err)
	}
	phases := c.Timeline.Phases()
	for p := 0; p < NumPhases; p++ {
		if sum.Phases[p].Transmissions != phases[p].Transmissions ||
			sum.Phases[p].Deliveries != phases[p].Deliveries ||
			sum.Phases[p].Collisions != phases[p].Collisions ||
			sum.Phases[p].Entries != phases[p].Entries {
			t.Errorf("phase %v: trace %+v vs timeline %+v", Phase(p), sum.Phases[p], phases[p])
		}
	}
	if sum.Decisions != 1 || sum.Nodes != 2 {
		t.Errorf("summary decisions=%d nodes=%d", sum.Decisions, sum.Nodes)
	}
	var out bytes.Buffer
	if err := sum.Render(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"events", "collision rate", "waiting", "active"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("render missing %q:\n%s", want, out.String())
		}
	}
}
