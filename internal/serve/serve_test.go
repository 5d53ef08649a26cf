package serve

import (
	"strings"
	"testing"
	"time"

	"radiocolor"
)

func TestLRUEvictionAndCounters(t *testing.T) {
	c := newLRU(2)
	adj := [][]int{{1}, {0}}
	if c.get("a") != nil {
		t.Fatal("expected miss on empty cache")
	}
	c.add("a", adj)
	c.add("b", adj)
	if c.get("a") == nil {
		t.Fatal("a should be cached")
	}
	c.add("c", adj) // evicts b (least recently used; a was just touched)
	if c.get("b") != nil {
		t.Fatal("b should have been evicted")
	}
	if c.get("c") == nil {
		t.Fatal("c should be cached")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if hits, misses := c.hits.Load(), c.misses.Load(); hits != 2 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", hits, misses)
	}
}

func TestLRUMeasuredRoundTrip(t *testing.T) {
	c := newLRU(4)
	e := c.add("k", [][]int{{1}, {0}})
	if e.measured.Load() != nil {
		t.Fatal("fresh entry should have no measurement")
	}
	c.setMeasured("k", radiocolor.Measured{Delta: 3, Kappa1: 1, Kappa2: 2})
	m := c.get("k").measured.Load()
	if m == nil || m.Delta != 3 || m.Kappa1 != 1 || m.Kappa2 != 2 {
		t.Fatalf("measured = %+v", m)
	}
	c.setMeasured("unknown", radiocolor.Measured{}) // no-op, must not panic
}

func TestLRUDisabled(t *testing.T) {
	c := newLRU(-1)
	e := c.add("k", [][]int{{1}, {0}})
	if e == nil || e.adj == nil {
		t.Fatal("disabled cache still returns a usable entry")
	}
	if c.get("k") != nil {
		t.Fatal("disabled cache must always miss")
	}
	c.setMeasured("k", radiocolor.Measured{Delta: 1, Kappa1: 1, Kappa2: 1})
	if c.len() != 0 {
		t.Fatalf("disabled cache len = %d", c.len())
	}
}

func TestHistogramCumulative(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	h.Observe(5 * time.Millisecond)  // ≤ 0.01
	h.Observe(50 * time.Millisecond) // ≤ 0.1
	h.Observe(60 * time.Millisecond) // ≤ 0.1
	h.Observe(2 * time.Second)       // +Inf
	cum, sum, count := h.snapshot()
	want := []int64{1, 3, 3, 4}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cum[%d] = %d, want %d (all: %v)", i, cum[i], w, cum)
		}
	}
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	if sum < 2.1 || sum > 2.2 {
		t.Fatalf("sum = %g, want ≈2.115", sum)
	}
}

func TestTopologySpecKeyCoversParameters(t *testing.T) {
	base := TopologySpec{Kind: "udg", N: 50}
	keys := map[string]bool{base.key(): true}
	for _, v := range []TopologySpec{
		{Kind: "udg", N: 51},
		{Kind: "udg", N: 50, Side: 9},
		{Kind: "udg", N: 50, Radius: 2},
		{Kind: "udg", N: 50, Seed: 2},
		{Kind: "big", N: 50},
		{Kind: "big", N: 50, Walls: 5},
	} {
		k := v.key()
		if keys[k] {
			t.Fatalf("key collision: %q for %+v", k, v)
		}
		keys[k] = true
	}
	// Defaults normalize: explicit default == zero value.
	explicit := TopologySpec{Kind: "udg", N: 50, Side: 7, Radius: 1.2, Walls: 20, Seed: 1}
	if explicit.key() != base.key() {
		t.Fatalf("normalized keys differ: %q vs %q", explicit.key(), base.key())
	}
}

func TestJobRequestValidate(t *testing.T) {
	cases := []struct {
		name string
		req  JobRequest
		ok   bool
	}{
		{"no input", JobRequest{}, false},
		{"two inputs", JobRequest{Adjacency: [][]int{{}}, Points: [][2]float64{{0, 0}}, Radius: 1}, false},
		{"adjacency", JobRequest{Adjacency: [][]int{{1}, {0}}}, true},
		{"points no radius", JobRequest{Points: [][2]float64{{0, 0}}}, false},
		{"points", JobRequest{Points: [][2]float64{{0, 0}, {0.5, 0}}, Radius: 1}, true},
		{"topology", JobRequest{Topology: &TopologySpec{Kind: "ring", N: 8}}, true},
		{"topology n=0", JobRequest{Topology: &TopologySpec{Kind: "ring"}}, false},
		{"bad wakeup", JobRequest{Adjacency: [][]int{{1}, {0}}, Wakeup: "nope"}, false},
		{"good wakeup", JobRequest{Adjacency: [][]int{{1}, {0}}, Wakeup: "bursty"}, true},
		{"bad options", JobRequest{Adjacency: [][]int{{1}, {0}}, ParamScale: -1}, false},
		{"bad medium", JobRequest{Adjacency: [][]int{{1}, {0}}, Medium: "laser"}, false},
		{"sinr on adjacency", JobRequest{Adjacency: [][]int{{1}, {0}}, Medium: "sinr"}, false},
		{"sinr on topology", JobRequest{Topology: &TopologySpec{Kind: "udg", N: 8}, Medium: "sinr"}, false},
		{"sinr on points", JobRequest{Points: [][2]float64{{0, 0}, {0.5, 0}}, Radius: 1, Medium: "sinr,alpha=3"}, true},
		{"multichannel on adjacency", JobRequest{Adjacency: [][]int{{1}, {0}}, Medium: "multichannel,k=4"}, true},
		{"medium plus skew", JobRequest{Adjacency: [][]int{{1}, {0}}, Medium: "multichannel,k=2", Faults: "skew=0.5"}, false},
		{"churn on adjacency", JobRequest{Adjacency: [][]int{{1}, {0}}, Churn: "leave=0@10"}, true},
		{"bad churn", JobRequest{Adjacency: [][]int{{1}, {0}}, Churn: "teleport=1@5"}, false},
		{"churn mobility on adjacency", JobRequest{Adjacency: [][]int{{1}, {0}}, Churn: "move=0@10:1:1"}, false},
		{"churn mobility on points", JobRequest{Points: [][2]float64{{0, 0}, {0.5, 0}}, Radius: 1, Churn: "move=0@10:1:1"}, true},
		{"churn plus medium", JobRequest{Adjacency: [][]int{{1}, {0}}, Churn: "leave=0@10", Medium: "multichannel,k=2"}, false},
		{"churn plus skew", JobRequest{Adjacency: [][]int{{1}, {0}}, Churn: "leave=0@10", Faults: "skew=0.5"}, false},
	}
	for _, c := range cases {
		opt, err := c.req.validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
		if c.name == "good wakeup" && err == nil && opt.Wakeup != radiocolor.WakeupBursty {
			t.Errorf("wakeup not converted: %v", opt.Wakeup)
		}
	}
}

func TestPromFloatFormat(t *testing.T) {
	for in, want := range map[float64]string{
		0.005: "0.005",
		1:     "1",
		60:    "60",
	} {
		if got := promFloat(in); got != want {
			t.Errorf("promFloat(%g) = %q, want %q", in, got, want)
		}
	}
	if s := promFloat(0.25); strings.Contains(s, "e") {
		t.Errorf("unexpected exponent form: %q", s)
	}
}
