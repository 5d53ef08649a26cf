package medium

import (
	"math"
	"reflect"
	"testing"
)

// csr builds the CSR view of an undirected graph on n nodes from edge
// pairs, mirroring graph.CSR's layout without importing it.
func csr(n int, pairs [][2]int32) (offsets, edges []int32) {
	adj := make([][]int32, n)
	for _, p := range pairs {
		adj[p[0]] = append(adj[p[0]], p[1])
		adj[p[1]] = append(adj[p[1]], p[0])
	}
	offsets = make([]int32, n+1)
	for i, row := range adj {
		offsets[i+1] = offsets[i] + int32(len(row))
		edges = append(edges, row...)
	}
	return offsets, edges
}

func allListening(int32) bool { return true }

func TestGraphThresholdBindValidation(t *testing.T) {
	if _, err := (GraphThreshold{}).Bind(Env{N: 3}); err == nil {
		t.Error("graph medium bound without a CSR adjacency")
	}
	off, ed := csr(2, [][2]int32{{0, 1}})
	for _, p := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := (GraphThreshold{Capture: p}).Bind(Env{N: 2, Offsets: off, Edges: ed}); err == nil {
			t.Errorf("graph medium bound with capture probability %v", p)
		}
	}
}

func TestGraphThresholdSingleTransmitter(t *testing.T) {
	// Path 0-1-2: node 0 transmits, both listeners but only its
	// neighbor 1 hears it.
	off, ed := csr(3, [][2]int32{{0, 1}, {1, 2}})
	inst, err := (GraphThreshold{}).Bind(Env{N: 3, Offsets: off, Edges: ed})
	if err != nil {
		t.Fatal(err)
	}
	recs, st := inst.Resolve(0, []int32{0}, allListening, nil)
	want := []Reception{{To: 1, From: 0}}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("receptions = %v, want %v", recs, want)
	}
	if st != (Stats{}) {
		t.Errorf("stats = %+v, want zero", st)
	}
}

func TestGraphThresholdCollision(t *testing.T) {
	// Path 0-1-2 with 0 and 2 transmitting: node 1 hears two neighbors,
	// so the transmissions annihilate.
	off, ed := csr(3, [][2]int32{{0, 1}, {1, 2}})
	inst, err := (GraphThreshold{}).Bind(Env{N: 3, Offsets: off, Edges: ed})
	if err != nil {
		t.Fatal(err)
	}
	recs, st := inst.Resolve(0, []int32{0, 2}, allListening, nil)
	if len(recs) != 0 {
		t.Errorf("collision slot delivered %v", recs)
	}
	if st.Collisions != 1 {
		t.Errorf("Collisions = %d, want 1", st.Collisions)
	}
}

func TestGraphThresholdRespectsListening(t *testing.T) {
	// Triangle: 0 transmits; 2 is not listening (asleep or itself a
	// transmitter from the engine's point of view) so only 1 receives.
	off, ed := csr(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
	inst, err := (GraphThreshold{}).Bind(Env{N: 3, Offsets: off, Edges: ed})
	if err != nil {
		t.Fatal(err)
	}
	recs, st := inst.Resolve(0, []int32{0}, func(u int32) bool { return u != 2 }, nil)
	want := []Reception{{To: 1, From: 0}}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("receptions = %v, want %v", recs, want)
	}
	if st.Collisions != 0 {
		t.Errorf("non-listener counted as collision: %+v", st)
	}
}

func TestGraphThresholdScratchResets(t *testing.T) {
	// The count array must return to all-zero between slots: a collision
	// slot followed by a clean slot must behave like a fresh instance.
	off, ed := csr(3, [][2]int32{{0, 1}, {1, 2}})
	inst, err := (GraphThreshold{}).Bind(Env{N: 3, Offsets: off, Edges: ed})
	if err != nil {
		t.Fatal(err)
	}
	inst.Resolve(0, []int32{0, 2}, allListening, nil)
	recs, st := inst.Resolve(1, []int32{0}, allListening, nil)
	if len(recs) != 1 || recs[0] != (Reception{To: 1, From: 0}) || st.Collisions != 0 {
		t.Errorf("stale scratch after a collision slot: recs=%v st=%+v", recs, st)
	}
}

func TestGraphThresholdCapture(t *testing.T) {
	// Star hub 0 with leaves 1..3. Capture = 1 decodes the lower-indexed
	// of exactly two senders; three senders always collide, and the
	// zero value never captures.
	off, ed := csr(4, [][2]int32{{0, 1}, {0, 2}, {0, 3}})
	bind := func(p float64) Instance {
		inst, err := (GraphThreshold{Capture: p}).Bind(Env{N: 4, Offsets: off, Edges: ed, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	recs, st := bind(1).Resolve(0, []int32{2, 3}, allListening, nil)
	if want := []Reception{{To: 0, From: 2, Captured: true}}; !reflect.DeepEqual(recs, want) || st.Collisions != 0 {
		t.Errorf("two-way capture: recs=%v st=%+v, want %v", recs, st, want)
	}
	if recs, st := bind(1).Resolve(0, []int32{1, 2, 3}, allListening, nil); len(recs) != 0 || st.Collisions != 1 {
		t.Errorf("three-way collision captured: recs=%v st=%+v", recs, st)
	}
	if recs, st := bind(0).Resolve(0, []int32{2, 3}, allListening, nil); len(recs) != 0 || st.Collisions != 1 {
		t.Errorf("capture fired with Capture=0: recs=%v st=%+v", recs, st)
	}
	// A fractional coin is a pure function of (seed, slot, listener).
	a, b := bind(0.5), bind(0.5)
	caught := 0
	for slot := int64(0); slot < 200; slot++ {
		ra, _ := a.Resolve(slot, []int32{1, 2}, allListening, nil)
		rb, _ := b.Resolve(slot, []int32{1, 2}, allListening, nil)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("slot %d: equal seeds captured differently: %v vs %v", slot, ra, rb)
		}
		caught += len(ra)
	}
	if caught == 0 || caught == 200 {
		t.Errorf("capture 0.5 fired in %d/200 slots", caught)
	}
}

func TestMultiChannelBindValidation(t *testing.T) {
	off, ed := csr(2, [][2]int32{{0, 1}})
	if _, err := (MultiChannel{K: 0}).Bind(Env{N: 2, Offsets: off, Edges: ed}); err == nil {
		t.Error("0 channels bound")
	}
	if _, err := (MultiChannel{K: 2}).Bind(Env{N: 2}); err == nil {
		t.Error("multichannel bound without a CSR adjacency")
	}
}

func TestMultiChannelSameChannelRequired(t *testing.T) {
	// On k channels a lone transmitter reaches its neighbor only when
	// their hops coincide — about 1/k of the slots, never all of them.
	off, ed := csr(2, [][2]int32{{0, 1}})
	inst, err := (MultiChannel{K: 4, HopSeed: 13}).Bind(Env{N: 2, Offsets: off, Edges: ed})
	if err != nil {
		t.Fatal(err)
	}
	const slots = 400
	got := 0
	for s := int64(0); s < slots; s++ {
		recs, _ := inst.Resolve(s, []int32{0}, allListening, nil)
		got += len(recs)
	}
	if got < slots/8 || got > slots/2 {
		t.Errorf("deliveries = %d over %d slots on 4 channels, expected ≈ %d", got, slots, slots/4)
	}
}

func TestMultiChannelDeterministic(t *testing.T) {
	off, ed := csr(3, [][2]int32{{0, 1}, {1, 2}})
	run := func() []Reception {
		inst, err := (MultiChannel{K: 3, HopSeed: 17}).Bind(Env{N: 3, Offsets: off, Edges: ed})
		if err != nil {
			t.Fatal(err)
		}
		var all []Reception
		for s := int64(0); s < 200; s++ {
			recs, _ := inst.Resolve(s, []int32{0, 2}, allListening, nil)
			all = append(all, recs...)
		}
		return all
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Error("multichannel medium not deterministic across instances")
	}
}

func TestMultiChannelHopSeedFallsBackToEnvSeed(t *testing.T) {
	off, ed := csr(2, [][2]int32{{0, 1}})
	trace := func(m MultiChannel, envSeed int64) []int {
		inst, err := m.Bind(Env{N: 2, Offsets: off, Edges: ed, Seed: envSeed})
		if err != nil {
			t.Fatal(err)
		}
		var tr []int
		for s := int64(0); s < 100; s++ {
			recs, _ := inst.Resolve(s, []int32{0}, allListening, nil)
			tr = append(tr, len(recs))
		}
		return tr
	}
	explicit := trace(MultiChannel{K: 4, HopSeed: 99}, 1)
	fallback := trace(MultiChannel{K: 4}, 99)
	if !reflect.DeepEqual(explicit, fallback) {
		t.Error("HopSeed 0 should fall back to the environment seed")
	}
}
