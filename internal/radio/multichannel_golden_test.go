package radio_test

import (
	"reflect"
	"strings"
	"testing"

	"radiocolor/internal/core"
	"radiocolor/internal/fault"
	"radiocolor/internal/radio"
	"radiocolor/internal/topology"
)

// mcConfig builds the fixed workload the goldens below were captured
// on: the paper's protocol over a random unit-disk deployment.
func mcConfig(t *testing.T, workers int) radio.Config {
	t.Helper()
	d := topology.RandomUDG(topology.UDGConfig{N: 80, Side: 5, Radius: 1.3, Seed: 11})
	par := core.Practical(d.N(), d.G.MaxDegree(), 2, 3)
	_, protos := core.Nodes(d.N(), 7, par, core.Ablation{})
	return radio.Config{
		G: d.G, Protocols: protos, Wake: radio.WakeUniform(d.N(), 50, 7),
		MaxSlots: 6000, NEstimate: par.N, Workers: workers,
	}
}

// TestMultiChannelGolden pins RunMultiChannel's observable outcome. The
// medium.MultiChannel port reproduced the bespoke multi-channel engine
// it replaced bit for bit (same hop schedule, same collision rule); the
// values were re-recorded once, when the protocol's per-node streams
// became SplitMix64 (internal/rng), which left the hop schedule as is.
func TestMultiChannelGolden(t *testing.T) {
	golden := map[int]struct {
		tx, rx, coll, decSum int64
		maxBits              int
	}{
		2: {tx: 17160, rx: 76313, coll: 9389, decSum: 197996, maxBits: 42},
		4: {tx: 16939, rx: 44234, coll: 2991, decSum: 140566, maxBits: 42},
		8: {tx: 16571, rx: 22778, coll: 731, decSum: 71629, maxBits: 43},
	}
	for k, want := range golden {
		res, err := radio.RunMultiChannel(mcConfig(t, 0), k, 21)
		if err != nil {
			t.Fatal(err)
		}
		var decSum int64
		for _, s := range res.DecideSlot {
			decSum += s
		}
		if res.Slots != 6000 || res.MaxMessageBits != want.maxBits || res.AllDone {
			t.Errorf("k=%d: run shape changed: slots=%d maxbits=%d alldone=%v",
				k, res.Slots, res.MaxMessageBits, res.AllDone)
		}
		if res.Transmissions != want.tx || res.Deliveries != want.rx ||
			res.Collisions != want.coll || decSum != want.decSum {
			t.Errorf("k=%d: golden drift: tx=%d rx=%d coll=%d decsum=%d, want tx=%d rx=%d coll=%d decsum=%d",
				k, res.Transmissions, res.Deliveries, res.Collisions, decSum,
				want.tx, want.rx, want.coll, want.decSum)
		}
	}
}

// TestMultiChannelWorkers checks that the seam-based multi-channel run
// is bit-identical under the parallel send phase — a capability the
// bespoke engine never had.
func TestMultiChannelWorkers(t *testing.T) {
	seq, err := radio.RunMultiChannel(mcConfig(t, 1), 4, 21)
	if err != nil {
		t.Fatal(err)
	}
	par, err := radio.RunMultiChannel(mcConfig(t, 4), 4, 21)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("multi-channel diverges across workers:\n 1: %+v\n 4: %+v", seq, par)
	}
}

// TestMultiChannelFaults is the regression for the old engine's silent
// bug: RunMultiChannel used to ignore Config.Faults entirely. Loss and
// crash profiles must now compose; skew must be rejected loudly, since
// the half-slot rule and the medium would both decide reception.
func TestMultiChannelFaults(t *testing.T) {
	prof, err := fault.ParseProfile("loss=0.3,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := mcConfig(t, 0)
	cfg.Faults, err = prof.Compile(cfg.G.N())
	if err != nil {
		t.Fatal(err)
	}
	res, err := radio.RunMultiChannel(cfg, 4, 21)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost == 0 {
		t.Error("loss profile injected but Result.Lost == 0: faults are still ignored on the multi-channel path")
	}
	clean, err := radio.RunMultiChannel(mcConfig(t, 0), 4, 21)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deliveries >= clean.Deliveries {
		t.Errorf("30%% loss did not reduce deliveries: %d with faults vs %d clean",
			res.Deliveries, clean.Deliveries)
	}

	skew, err := fault.ParseProfile("skew=0.5,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	cfg = mcConfig(t, 0)
	cfg.Faults, err = skew.Compile(cfg.G.N())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := radio.RunMultiChannel(cfg, 4, 21); err == nil {
		t.Error("skew profile silently accepted on the multi-channel path")
	} else if !strings.Contains(err.Error(), "half-slot rule owns reception") {
		t.Errorf("skew rejection should name the half-slot rule's ownership of reception, got: %v", err)
	}
}
