package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// Smoke tests: every workload and the traced run at tiny sizes, plus
// the CLI contract and agreement with BENCHMARK.json.

func tinySims() []simSpec {
	f := full1k()
	f.n, f.delta = 80, 0
	t := tiled20k()
	t.n, t.delta, t.window = 600, 0, 2000
	k := skewLoss1k()
	k.n, k.delta = 80, 0
	return []simSpec{f, t, k}
}

func tinyColord() colordSpec {
	c := colordSmall()
	c.sizes, c.delta, c.setups = []int{20, 30}, 0, 1
	return c
}

func tinyConfig(t *testing.T) runConfig {
	var log bytes.Buffer
	t.Cleanup(func() {
		if t.Failed() {
			t.Log(log.String())
		}
	})
	return runConfig{seed: 3, seconds: 0.3, outDir: t.TempDir(), log: &log}
}

// manifest is the part of BENCHMARK.json the program must agree with.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	body, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func checkReport(t *testing.T, rep *report, want map[string]string) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("report not correct: attempted %d, failed %d", rep.Attempted, rep.Failed)
	}
	var got []string
	for name, m := range rep.Metrics {
		got = append(got, name)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
		if u, ok := want[name]; ok && u != m.Unit {
			t.Errorf("%s unit %q, manifest says %q", name, m.Unit, u)
		}
	}
	sort.Strings(got)
	var names []string
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	if strings.Join(got, ",") != strings.Join(names, ",") {
		t.Errorf("metrics\n got %v\nwant %v", got, names)
	}
}

func units(list []struct{ Name, Unit string }) map[string]string {
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

func TestSimWorkloadsSmoke(t *testing.T) {
	man := readManifest(t)
	for _, s := range tinySims() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			rep, err := s.measure(tinyConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, units(man.EndToEnd))
			for _, name := range []string{"setup_s", "solve_s_mean", "node_slots_per_s", "peak_rss_mb", "ok_frac"} {
				if rep.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, rep.Metrics[name].Value)
				}
			}
		})
	}
}

func TestSimTraceSmoke(t *testing.T) {
	man := readManifest(t)
	for _, s := range tinySims() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			cfg := tinyConfig(t)
			rep, err := s.traceRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, units(man.PerLayer))
			want := []string{"graph.build_s", "graph.edges", "core.send_calls", "core.send_ns",
				"radio.run_s", "radio.slots", "radio.tx", "verify.check_s"}
			if s.faults == nil { // the half-slot engine cannot be stepped from outside
				want = append(want, "core.share", "radio.self_ns_per_node_slot")
			} else {
				want = append(want, "fault.lost", "fault.crashes", "fault.restarts")
			}
			for _, name := range want {
				if rep.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, rep.Metrics[name].Value)
				}
			}
			if s.tiling > 1 && rep.Metrics["graph.relabel_s"].Value <= 0 {
				t.Error("tiled workload reported no relabeling time")
			}
			if s.workers > 1 && rep.Metrics["radio.parallel_eff"].Value <= 0 {
				t.Error("parallel workload reported no parallel efficiency")
			}
			checkSpans(t, cfg, s.name, "radio.run")
		})
	}
}

// checkSpans reads the traced run's span file and checks that it holds
// a span named want and that self times never exceed durations.
func checkSpans(t *testing.T, cfg runConfig, workload, want string) {
	t.Helper()
	body, err := os.ReadFile(filepath.Join(cfg.outDir, "traces", workload+"-seed3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := json.Unmarshal(body, &file); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range file.Spans {
		found = found || sp.Name == want
		if sp.End < sp.Start || sp.Self < 0 || sp.Self > sp.End-sp.Start {
			t.Errorf("span %+v has inconsistent times", sp)
		}
		if sp.Parent >= sp.ID {
			t.Errorf("span %+v opened before its parent", sp)
		}
	}
	if !found {
		t.Errorf("no %q span in %s", want, workload)
	}
}

func TestColordSmoke(t *testing.T) {
	man := readManifest(t)
	c := tinyColord()
	rep, err := c.measure(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, units(man.EndToEnd))
	if rep.Metrics["node_slots_per_s"].Value <= 0 {
		t.Error("no job completed")
	}

	cfg := tinyConfig(t)
	cfg.seconds = 0.6
	rep, err = c.traceRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, units(man.PerLayer))
	for _, name := range []string{"serve.submit_ms_p50", "serve.poll_ms_p50", "serve.exec_ms_p50",
		"serve.cache_hit_frac", "store.create_ms_p50", "store.claim_ms_p50", "store.finish_ms_p50",
		"store.claim_calls", "store.log_bytes"} {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, rep.Metrics[name].Value)
		}
	}
	checkSpans(t, cfg, c.name, "service")
	if ents, _ := os.ReadDir(filepath.Join(cfg.outDir, "work")); len(ents) != 0 {
		t.Errorf("store directories left behind: %v", ents)
	}
}

func TestManifestNamesWorkloads(t *testing.T) {
	man := readManifest(t)
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads() {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
}

func TestCLI(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "full-1k", "--trace", "2"},
		{"--workload", "full-1k", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q, want exit 2 and no result", args, code, out.String())
		}
	}
}

func TestFingerprintDetectsChange(t *testing.T) {
	a, b := newFingerprint(), newFingerprint()
	a.add(1, 2, 3)
	b.add(1, 2, 4)
	if a.sum() == b.sum() {
		t.Error("different inputs hash equal")
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root")
	tr.do("child", func() { time.Sleep(2 * time.Millisecond) })
	tr.end(root)
	tr.selfTimes()
	r, c := tr.spans[0], tr.spans[1]
	if c.Parent != r.ID || r.Self != (r.End-r.Start)-(c.End-c.Start) {
		t.Errorf("self time of %+v with child %+v", r, c)
	}
}

// TestAwakeNodeSlotsMatchesEngine pins the untraced node-slot count
// (recomputed from the wake schedule) to the engine's exact number of
// Send calls on the fault-free workloads.
func TestAwakeNodeSlotsMatchesEngine(t *testing.T) {
	for _, s := range tinySims() {
		if s.faults != nil {
			continue // crashed nodes skip Send calls
		}
		ins, _, err := s.setup(5)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.solve(ins[0])
		if err != nil {
			t.Fatal(err)
		}
		o, err := s.tracedSolve(newTracer(), ins[0])
		if err != nil {
			t.Fatal(err)
		}
		var sends int64
		for i := range o.nodes {
			sends += o.nodes[i].sends
		}
		if got := awakeNodeSlots(ins[0], out); got != sends {
			t.Errorf("%s: awake node-slots %d, engine made %d Send calls", s.name, got, sends)
		}
	}
}

func TestHostCorrection(t *testing.T) {
	ref := refUnit.Seconds()
	c := &hostClock{probes: []float64{ref, 3 * ref, 2 * ref}}
	got := c.corrected([]timing{{d: 4 * time.Second, probe: 0}, {d: 5 * time.Second, probe: 1}})
	// Around the first timing the host ran 2× slower than refUnit, around
	// the second 2.5× slower.
	if math.Abs(got[0]-2) > 1e-9 || math.Abs(got[1]-2) > 1e-9 {
		t.Errorf("corrected = %v, want [2 2]", got)
	}
}

// TestKernelCheckTiesToOutcome checks that the tiled workload's kernel
// check rejects a public outcome its slot loop did not produce.
func TestKernelCheckTiesToOutcome(t *testing.T) {
	s := tinySims()[1]
	ins, _, err := s.setup(5)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.solve(ins[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := s.kernelCheck(ins[0], out); err != nil {
		t.Fatalf("kernel check of an untouched outcome: %v", err)
	}
	out.Colors[7]++
	if err := s.kernelCheck(ins[0], out); err == nil {
		t.Error("kernel check accepted an outcome with a changed color")
	}
}
