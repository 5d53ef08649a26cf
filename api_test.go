package radiocolor

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"radiocolor/internal/obs"
	"radiocolor/internal/topology"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		want string // substring of the error, "" for valid
	}{
		{"zero value", Options{}, ""},
		{"typed wakeup", Options{Wakeup: WakeupAdversarial}, ""},
		{"shim wakeup", Options{WakeupName: "bursty"}, ""},
		{"bad shim", Options{WakeupName: "bogus"}, "unknown wakeup"},
		{"bad typed", Options{Wakeup: Wakeup(99)}, "invalid wakeup"},
		{"negative scale", Options{ParamScale: -1}, "ParamScale"},
		{"NaN scale", Options{ParamScale: math.NaN()}, "ParamScale"},
		{"infinite scale", Options{ParamScale: math.Inf(1)}, "ParamScale"},
		{"overflowing scale", Options{ParamScale: 1e308}, "ParamScale"},
		{"slot count past 2^62 on any graph", Options{ParamScale: 1e17}, "2^62"},
		{"large but representable scale", Options{ParamScale: 1e6}, ""},
		{"negative slots", Options{MaxSlots: -5}, "MaxSlots"},
		{"negative workers", Options{Workers: -2}, "Workers"},
		{"trace no dest", Options{Trace: &TraceConfig{}}, "needs Path or W"},
		{"trace two dests", Options{Trace: &TraceConfig{Path: "x", W: os.Stderr}}, "both Path and W"},
		{"trace bad cap", Options{Trace: &TraceConfig{W: os.Stderr, Cap: -1}}, "Cap"},
		{"trace bad kind", Options{Trace: &TraceConfig{W: os.Stderr, Kinds: []string{"nope"}}}, "nope"},
		{"trace good kinds", Options{Trace: &TraceConfig{W: os.Stderr, Kinds: []string{"tx", "phase"}}}, ""},
		{"measured good", Options{Measured: &Measured{Delta: 4, Kappa1: 1, Kappa2: 2}}, ""},
		{"measured isolated nodes", Options{Measured: &Measured{Delta: 0, Kappa1: 1, Kappa2: 1}}, ""},
		{"measured negative delta", Options{Measured: &Measured{Delta: -1, Kappa1: 1, Kappa2: 1}}, "Delta"},
		{"measured zero kappa", Options{Measured: &Measured{Delta: 3}}, "κ"},
	}
	for _, c := range cases {
		err := c.opt.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestValidationBeforeWork checks misconfigured options fail fast from
// the entry points (before graph measurement or simulation).
func TestValidationBeforeWork(t *testing.T) {
	_, err := ColorGraph([][]int{{1}, {0}}, Options{Workers: -1})
	if err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("ColorGraph did not validate: %v", err)
	}
	_, err = ColorUnitDisk([][2]float64{{0, 0}}, 1, Options{ParamScale: -3})
	if err == nil || !strings.Contains(err.Error(), "ParamScale") {
		t.Errorf("ColorUnitDisk did not validate: %v", err)
	}
	for _, scale := range []float64{math.NaN(), math.Inf(1), 1e308} {
		if _, err := ColorGraph(ringAdj(8), Options{ParamScale: scale}); err == nil || !strings.Contains(err.Error(), "ParamScale") {
			t.Errorf("ParamScale %g: err = %v", scale, err)
		}
	}
	// Options that need positions fail before the κ pass, which would
	// otherwise stop first on the canceled context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, opt := range map[string]Options{
		"sinr":     {Medium: &MediumConfig{Kind: "sinr"}},
		"mobility": {Churn: &ChurnConfig{Waypoints: []ChurnWaypoint{{Node: 0, At: 10, X: 1, Y: 1}}}},
	} {
		if _, err := ColorGraphContext(ctx, ringAdj(8), opt); err == nil || !strings.Contains(err.Error(), "positions") {
			t.Errorf("%s without positions: err = %v, want the positions error", name, err)
		}
	}
}

// TestParamScaleOverflowOnGraph covers a scale that is valid on the
// smallest network but, once the concrete graph's log n enters, drives
// the decision threshold past 2^62 slots. The run must fail with an
// error rather than build nodes whose slot counts wrapped around.
func TestParamScaleOverflowOnGraph(t *testing.T) {
	opt := Options{ParamScale: 5e16}
	if err := opt.Validate(); err != nil {
		t.Fatalf("scale rejected before the graph is known: %v", err)
	}
	_, err := ColorGraph(ringAdj(64), opt)
	if err == nil || !strings.Contains(err.Error(), "ParamScale") || !strings.Contains(err.Error(), "2^62") {
		t.Fatalf("err = %v, want a ParamScale slot-count error", err)
	}
}

func TestWakeupStrings(t *testing.T) {
	for w := WakeupSynchronous; w < numWakeups; w++ {
		name := w.String()
		back, err := ParseWakeup(name)
		if err != nil || back != w {
			t.Errorf("round trip %v: %v, %v", w, back, err)
		}
	}
	if Wakeup(200).String() == "" {
		t.Error("out-of-range wakeup must still print")
	}
	if _, err := ParseWakeup("wakeup(3)"); err == nil {
		t.Error("String form of invalid values must not parse")
	}
	// ParseWakeup is exact-match: case and whitespace variants fail.
	for _, bad := range []string{"", "Uniform", " uniform", "uniform "} {
		if _, err := ParseWakeup(bad); err == nil {
			t.Errorf("ParseWakeup(%q) accepted", bad)
		}
	}
}

// TestWakeupShimPrecedence pins the resolution order of the deprecated
// WakeupName shim against the typed Wakeup field.
func TestWakeupShimPrecedence(t *testing.T) {
	// A non-empty name overrides the typed constant...
	w, err := Options{Wakeup: WakeupUniform, WakeupName: "adversarial"}.wakeup()
	if err != nil || w != WakeupAdversarial {
		t.Errorf("shim should win: got %v, %v", w, err)
	}
	// ...even an invalid typed constant, which the shim shadows entirely.
	w, err = Options{Wakeup: Wakeup(99), WakeupName: "uniform"}.wakeup()
	if err != nil || w != WakeupUniform {
		t.Errorf("shim should shadow invalid typed value: got %v, %v", w, err)
	}
	// An invalid name is an error even when the typed constant is fine.
	if _, err := (Options{Wakeup: WakeupBursty, WakeupName: "bogus"}).wakeup(); err == nil {
		t.Error("invalid shim name must not fall back to the typed value")
	}
	// An empty name defers to the typed constant.
	w, err = Options{Wakeup: WakeupSequential}.wakeup()
	if err != nil || w != WakeupSequential {
		t.Errorf("typed value ignored: got %v, %v", w, err)
	}
	if _, err := (Options{Wakeup: Wakeup(99)}).wakeup(); err == nil {
		t.Error("invalid typed value must error when no shim is set")
	}
}

func TestColorGraphContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A clique this size needs thousands of slots, so the canceled
	// context is seen at the first periodic check.
	adj := make([][]int, 16)
	for v := range adj {
		for u := range adj {
			if u != v {
				adj[v] = append(adj[v], u)
			}
		}
	}
	out, err := ColorGraphContext(ctx, adj, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("canceled run returned an outcome")
	}
}

// TestColorGraphContextCancelDuringKappa: the κ measurement polls the
// context too, so a canceled call on a 20k-node UDG returns promptly
// instead of finishing the whole κ pass first.
func TestColorGraphContextCancelDuringKappa(t *testing.T) {
	g := topology.UDGWithTargetDegree(20000, 12, 1).G
	adj := make([][]int, g.N())
	for v := range adj {
		for _, u := range g.Adj(v) {
			adj[v] = append(adj[v], int(u))
		}
	}
	const prompt = 500 * time.Millisecond
	t.Run("canceled before the call", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		out, err := ColorGraphContext(ctx, adj, Options{})
		if !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("got %v, %v; want nil, context.Canceled", out, err)
		}
		if d := time.Since(start); d > prompt {
			t.Errorf("canceled call took %v", d)
		}
	})
	t.Run("canceled during the call", func(t *testing.T) {
		if testing.Short() {
			t.Skip("timing-sensitive; skipped under -short")
		}
		ctx, cancel := context.WithCancel(context.Background())
		var canceledAt atomic.Int64
		time.AfterFunc(30*time.Millisecond, func() {
			canceledAt.Store(time.Now().UnixNano())
			cancel()
		})
		out, err := ColorGraphContext(ctx, adj, Options{})
		if !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("got %v, %v; want nil, context.Canceled", out, err)
		}
		if d := time.Duration(time.Now().UnixNano() - canceledAt.Load()); d > prompt {
			t.Errorf("returned %v after the cancel", d)
		}
	})
}

func TestColorGraphContextComplete(t *testing.T) {
	// An un-canceled context must not change the result: same seed,
	// same colors as the plain entry point.
	adj := [][]int{{1, 2}, {0, 2}, {0, 1}}
	plain, err := ColorGraph(adj, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := ColorGraphContext(context.Background(), adj, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Colors {
		if plain.Colors[i] != withCtx.Colors[i] {
			t.Fatalf("colors diverge: %v vs %v", plain.Colors, withCtx.Colors)
		}
	}
}

// countObserver tallies events through the public Observer seam.
type countObserver struct {
	NopObserver
	decides atomic.Int64
	tx      atomic.Int64
}

func (c *countObserver) OnDecide(int64, int)   { c.decides.Add(1) }
func (c *countObserver) OnTransmit(int64, int) { c.tx.Add(1) }

func TestPublicObserver(t *testing.T) {
	var c countObserver
	out, err := ColorGraph([][]int{{1, 2}, {0, 2}, {0, 1}, {4}, {3}}, Options{Observer: &c})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete {
		t.Fatal("incomplete run")
	}
	if got := c.decides.Load(); got != 5 {
		t.Errorf("observer saw %d decisions, want 5", got)
	}
	if c.tx.Load() == 0 {
		t.Error("observer saw no transmissions")
	}
}

// TestTraceMatchesStats is the acceptance contract of the observability
// subsystem: the offline replay of a JSONL trace (cmd/tracestat's
// obs.Summarize) reproduces the per-phase delivery/collision counts of
// the online Outcome.Stats exactly.
func TestTraceMatchesStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	adj := make([][]int, 14)
	for v := range adj {
		for u := range adj {
			if u != v {
				adj[v] = append(adj[v], u)
			}
		}
	}
	out, err := ColorGraph(adj, Options{
		Seed:    3,
		Metrics: true,
		Trace:   &TraceConfig{Path: path},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats == nil {
		t.Fatal("Metrics: true produced no Stats")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, err := obs.Summarize(f)
	if err != nil {
		t.Fatal(err)
	}

	if got := sum.ByKind["tx"]; got != out.Stats.Transmissions {
		t.Errorf("trace tx = %d, stats %d", got, out.Stats.Transmissions)
	}
	if got := sum.ByKind["rx"]; got != out.Stats.Deliveries {
		t.Errorf("trace rx = %d, stats %d", got, out.Stats.Deliveries)
	}
	if got := sum.ByKind["coll"]; got != out.Stats.Collisions {
		t.Errorf("trace coll = %d, stats %d", got, out.Stats.Collisions)
	}
	if sum.Decisions != out.Stats.Decisions {
		t.Errorf("trace decisions = %d, stats %d", sum.Decisions, out.Stats.Decisions)
	}
	if got, want := sum.CollisionRate(), out.Stats.CollisionRate; got != want {
		t.Errorf("trace collision rate = %v, stats %v", got, want)
	}
	for p, tot := range sum.Phases {
		ps := out.Stats.Phases[p]
		if tot.Transmissions != ps.Transmissions || tot.Deliveries != ps.Deliveries ||
			tot.Collisions != ps.Collisions || tot.Entries != ps.Entries {
			t.Errorf("phase %s: trace {tx %d rx %d coll %d entries %d} != stats {tx %d rx %d coll %d entries %d}",
				ps.Name, tot.Transmissions, tot.Deliveries, tot.Collisions, tot.Entries,
				ps.Transmissions, ps.Deliveries, ps.Collisions, ps.Entries)
		}
	}

	// The stats themselves must be internally consistent with the run.
	if out.Stats.Slots != out.Slots {
		t.Errorf("stats slots = %d, outcome %d", out.Stats.Slots, out.Slots)
	}
	if out.Stats.Decisions != int64(len(adj)) {
		t.Errorf("stats decisions = %d, want %d", out.Stats.Decisions, len(adj))
	}
	var nodeSlots int64
	for _, p := range out.Stats.Phases {
		nodeSlots += p.NodeSlots
	}
	if want := out.Stats.Slots * int64(len(adj)); nodeSlots != want {
		t.Errorf("phase node-slots sum to %d, want slots×n = %d", nodeSlots, want)
	}
}

// TestStatsWithoutTrace checks Metrics works standalone.
func TestStatsWithoutTrace(t *testing.T) {
	out, err := ColorGraph([][]int{{1}, {0, 2}, {1}}, Options{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	s := out.Stats
	if s == nil {
		t.Fatal("no stats")
	}
	if s.Wakeups != 3 || s.Decisions != 3 {
		t.Errorf("wakeups=%d decisions=%d, want 3", s.Wakeups, s.Decisions)
	}
	if s.CollisionRate < 0 || s.CollisionRate > 1 {
		t.Errorf("collision rate %v out of range", s.CollisionRate)
	}
	if s.SlotsPerSec <= 0 {
		t.Errorf("slots/sec %v not positive", s.SlotsPerSec)
	}
	if len(s.Buckets) == 0 {
		t.Error("no timeline buckets")
	}
}

// TestStatsDisabledByDefault pins the default-off contract.
func TestStatsDisabledByDefault(t *testing.T) {
	out, err := ColorGraph([][]int{{1}, {0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats != nil {
		t.Error("Stats attached without Options.Metrics")
	}
}
