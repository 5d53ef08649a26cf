package core_test

import (
	"encoding/binary"
	"hash/fnv"
	"sync/atomic"
	"testing"

	"radiocolor/internal/core"
	"radiocolor/internal/fault"
	"radiocolor/internal/graph"
	"radiocolor/internal/radio"
	"radiocolor/internal/topology"
)

// TestNodeClockGolden pins runs that stop, restart and inspect nodes
// in the middle of their per-slot countdowns: a crash and restart of
// nodes while they compete, a crash and restart of leaders with an
// open response window, a run cut off while most nodes compete (so the
// final per-node counters are read mid-phase), each Ablation, and four
// workers over four tiles. Every case runs three ways — through the
// Flat batch, through the per-node adapter, and through the batch with
// every node's history and a phase hook installed — and all three must
// reproduce the recorded fingerprint of the run's outcome and of each
// node's final state (color, tc, counter, statistics). The history
// fingerprint pins every recorded transition and every hook call.
//
// The crash victims and slots come from the plain run's histories:
// nodes 0–2 compete (PhaseActive, counters in the hundreds) at slot
// 1067, and leaders 102 and 15 hold an open response window at slots
// 4186 and 4199.
func TestNodeClockGolden(t *testing.T) {
	d := topology.RandomUDG(topology.UDGConfig{N: 120, Side: 6, Radius: 1.2, Seed: 21})
	k := d.G.Kappa(graph.KappaOptions{Budget: 200_000, MaxNeighborhood: 160})
	par := core.Practical(d.N(), d.G.MaxDegree(), k.K1, k.K2)
	wake := radio.WakeUniform(d.N(), 2*par.WaitSlots(), 3)
	profile := func(p fault.Profile) *fault.Injector {
		inj, err := p.Compile(d.N())
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	type outcome struct{ run, history uint64 }
	cases := []struct {
		name     string
		abl      core.Ablation
		faults   *fault.Injector
		workers  int
		tiles    int
		maxSlots int64
		want     outcome
	}{
		{name: "plain", want: outcome{0xcbef10d3afc00b9f, 0x8e705666b3c5e1c0}},
		{name: "crash-active", faults: profile(fault.Profile{Crashes: []fault.Crash{
			{Node: 0, At: 1068},
			{Node: 1, At: 1068, Restart: 2600},
			{Node: 2, At: 1068, Restart: 1069},
		}}), want: outcome{0xe00783098734c18e, 0xca9b6e3aa064ea52}},
		{name: "crash-leader-window", faults: profile(fault.Profile{Crashes: []fault.Crash{
			{Node: 102, At: 4187, Restart: 6000},
			{Node: 15, At: 4200, Restart: 4201},
			{Node: 83, At: 4200},
		}}), maxSlots: 30_000, want: outcome{0xbc1798e3999ad5c3, 0x52d749ba96262ee5}},
		{name: "cut-mid-run", maxSlots: 2000, want: outcome{0xdc68b1de1a6db8f3, 0xa1f375a87bbe00ce}},
		{name: "naive-reset", abl: core.Ablation{NaiveReset: true}, maxSlots: 60_000, want: outcome{0xffcd92f31d28e9d4, 0x4a53d59cef428fa1}},
		{name: "no-competitor-list", abl: core.Ablation{NoCompetitorList: true}, maxSlots: 60_000, want: outcome{0xb94fec46f156e753, 0xd3e9f4ed8e3b2b73}},
		{name: "leader-memory-loss", abl: core.Ablation{LeaderAssignmentMemory: true},
			faults: profile(fault.Profile{Seed: 9, Loss: 0.2}), want: outcome{0x4ae69edfd6f086de, 0xc33e5cce99bc7e05}},
		{name: "workers4-tiles4", workers: 4, tiles: 4, want: outcome{0xcbef10d3afc00b9f, 0x8e705666b3c5e1c0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(mode string) outcome {
				nodes, protos := core.Nodes(d.N(), 5, par, c.abl)
				var hooked atomic.Uint64
				if mode == "adapter" {
					protos = adapted(nodes)
				}
				if mode == "history" {
					hook := func(slot int64, node int32, from, to core.Phase, class int32) {
						hooked.Add(hash64(slot, int64(node), int64(from), int64(to), int64(class)))
					}
					for _, v := range nodes {
						v.EnableHistory()
						v.SetPhaseHook(hook)
					}
				}
				maxSlots := c.maxSlots
				if maxSlots == 0 {
					maxSlots = 5_000_000
				}
				res, err := radio.Run(radio.Config{
					G: d.G, Protocols: protos, Wake: wake, MaxSlots: maxSlots, NEstimate: par.N,
					Faults: c.faults, Workers: c.workers, Tiles: c.tiles,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := outcome{run: runPrint(res, nodes)}
				if mode == "history" {
					h := fnv.New64a()
					for _, v := range nodes {
						for _, tr := range v.History() {
							writeInts(h, tr.Slot, int64(tr.Phase), int64(tr.Class))
						}
						writeInts(h, -1)
					}
					writeInts(h, int64(hooked.Load()))
					got.history = h.Sum64()
				}
				return got
			}
			batch, perNode, traced := run("batch"), run("adapter"), run("history")
			if batch.run != c.want.run {
				t.Errorf("batch run fingerprint = %#x, want %#x", batch.run, c.want.run)
			}
			if perNode.run != c.want.run {
				t.Errorf("per-node run fingerprint = %#x, want %#x", perNode.run, c.want.run)
			}
			if traced.run != c.want.run {
				t.Errorf("traced run fingerprint = %#x, want %#x", traced.run, c.want.run)
			}
			if traced.history != c.want.history {
				t.Errorf("history fingerprint = %#x, want %#x", traced.history, c.want.history)
			}
		})
	}
}

// runPrint hashes a run's engine result and every node's final state.
func runPrint(res *radio.Result, nodes []*core.Node) uint64 {
	h := fnv.New64a()
	allDone := int64(0)
	if res.AllDone {
		allDone = 1
	}
	writeInts(h, res.Slots, allDone, res.Transmissions, res.Deliveries, res.Collisions,
		res.Lost, res.Crashes, res.Restarts)
	for i, v := range nodes {
		writeInts(h, res.DecideSlot[i], res.PerNodeTx[i], int64(v.Color()), int64(v.TC()),
			int64(v.Phase()), int64(v.Class()), int64(v.Leader()), v.Counter(),
			v.Resets(), v.ClassMoves(), v.LeftClassZeroAt())
	}
	return h.Sum64()
}

// writeInts appends little-endian int64s to h.
func writeInts(h interface{ Write([]byte) (int, error) }, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

// hash64 is an order-free event digest: the FNV hash of the fields,
// summed over events by the caller.
func hash64(vs ...int64) uint64 {
	h := fnv.New64a()
	writeInts(h, vs...)
	return h.Sum64()
}
