package radiocolor

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// ringAdj builds an n-cycle adjacency list.
func ringAdj(n int) [][]int {
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		adj[i] = []int{(i + n - 1) % n, (i + 1) % n}
	}
	return adj
}

func TestColorGraphWithChurn(t *testing.T) {
	cc, err := ParseChurn("leave=3@40,join=3@80,join=7@60")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ColorGraph(ringAdj(16), Options{Seed: 5, Churn: cc})
	if err != nil {
		t.Fatal(err)
	}
	if out.Churn == nil {
		t.Fatal("no ChurnOutcome on a churned run")
	}
	co := out.Churn
	if co.Joins != 2 || co.Leaves != 1 {
		t.Errorf("joins=%d leaves=%d, want 2/1", co.Joins, co.Leaves)
	}
	if len(co.Left) != 0 {
		t.Errorf("Left = %v after every leaver rejoined", co.Left)
	}
	if !co.Graceful || co.HardViolations != 0 {
		t.Errorf("churned run not graceful: %+v", co)
	}
	if co.Present != 16 {
		t.Errorf("Present = %d, want all 16", co.Present)
	}
	if !out.Proper {
		t.Error("coloring improper after rejoins")
	}
}

func TestColorGraphChurnPermanentLeave(t *testing.T) {
	cc, err := ParseChurn("leave=2@50")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ColorGraph(ringAdj(12), Options{Seed: 5, Churn: cc})
	if err != nil {
		t.Fatal(err)
	}
	co := out.Churn
	if co == nil || !reflect.DeepEqual(co.Left, []int{2}) {
		t.Fatalf("Left = %+v, want [2]", co)
	}
	if co.Present != 11 {
		t.Errorf("Present = %d, want 11", co.Present)
	}
	if !co.Graceful {
		t.Errorf("permanent leave judged non-graceful: %+v", co)
	}
}

func TestColorUnitDiskChurnMobility(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	points := make([][2]float64, 40)
	for i := range points {
		points[i] = [2]float64{r.Float64() * 4, r.Float64() * 4}
	}
	// Node 0 wanders across the field; its neighborhood re-derives as
	// it moves, and the retract repair keeps the present coloring
	// proper throughout.
	cc, err := ParseChurn("move=0@400:4:4,move=0@800:0:0,every=16")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ColorUnitDisk(points, 1.1, Options{Seed: 4, Churn: cc})
	if err != nil {
		t.Fatal(err)
	}
	if out.Churn == nil || !out.Churn.Graceful {
		t.Fatalf("mobile run not graceful: %+v", out.Churn)
	}
	if out.Slots <= 400 {
		t.Errorf("run ended at slot %d, before the mobility window", out.Slots)
	}
}

func TestChurnTilingMapsBackToCallerIDs(t *testing.T) {
	cc, err := ParseChurn("leave=5@40")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ColorGraph(ringAdj(48), Options{Seed: 7, Tiling: 4, Churn: cc})
	if err != nil {
		t.Fatal(err)
	}
	if out.Churn == nil || !reflect.DeepEqual(out.Churn.Left, []int{5}) {
		t.Fatalf("left node not mapped back to caller id 5: %+v", out.Churn)
	}
}

func TestChurnOptionRejections(t *testing.T) {
	churned := &ChurnConfig{Leaves: []ChurnEvent{{Node: 0, At: 10}}}
	cases := []struct {
		name string
		opt  Options
		want string
	}{
		{"with medium", Options{Churn: churned, Medium: &MediumConfig{Kind: "multichannel", Channels: 2}}, "Medium"},
		{"with skew", Options{Churn: churned, Faults: &FaultConfig{SkewProb: 0.5}}, "clock-skew"},
		{"bad repair", Options{Churn: &ChurnConfig{Repair: "bogus", Leaves: []ChurnEvent{{Node: 0, At: 1}}}}, "repair"},
		{"double leave", Options{Churn: &ChurnConfig{Leaves: []ChurnEvent{{Node: 0, At: 1}, {Node: 0, At: 2}}}}, "alternate"},
		{"inactive ok", Options{Churn: &ChurnConfig{}}, ""},
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
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}

	// Mobility without positions fails at the graph entry point.
	mob := &ChurnConfig{Waypoints: []ChurnWaypoint{{Node: 0, At: 10, X: 1, Y: 1}}}
	if _, err := ColorGraph(ringAdj(8), Options{Churn: mob}); err == nil ||
		!strings.Contains(err.Error(), "positions") {
		t.Errorf("mobility without positions: %v", err)
	}

	// Fault crash victims and churn subjects must stay disjoint.
	fc, err := ParseFaults("crash=0@20")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ColorGraph(ringAdj(8), Options{Churn: churned, Faults: fc}); err == nil ||
		!strings.Contains(err.Error(), "disjoint") {
		t.Errorf("overlapping fault and churn subjects: %v", err)
	}
	// ... and the error names the caller's node on a tiled run too
	// (BFS order stores ring node 5 in engine slot 6).
	fc5, err := ParseFaults("crash=5@20")
	if err != nil {
		t.Fatal(err)
	}
	churned5 := &ChurnConfig{Leaves: []ChurnEvent{{Node: 5, At: 10}}}
	if _, err := ColorGraph(ringAdj(8), Options{Churn: churned5, Faults: fc5, Tiling: 4}); err == nil ||
		!strings.Contains(err.Error(), "node 5 is both") {
		t.Errorf("tiled overlapping subjects: %v", err)
	}
}

func TestParseChurnRoundTrip(t *testing.T) {
	const in = "join=12@200,leave=3@500,move=7@1000:2.5:3.5,every=32,repair=none"
	cc, err := ParseChurn(in)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseChurn(cc.String())
	if err != nil {
		t.Fatalf("round-trip re-parse: %v", err)
	}
	if !reflect.DeepEqual(cc, again) {
		t.Errorf("round trip changed the config:\n %+v\n %+v", cc, again)
	}
	if nilCfg, err := ParseChurn(""); err != nil || nilCfg != nil {
		t.Errorf("empty string: %v, %+v", err, nilCfg)
	}
}

// FuzzParseChurn asserts the public parser never panics, and that every
// accepted schedule validates and survives a String round-trip.
func FuzzParseChurn(f *testing.F) {
	f.Add("")
	f.Add("leave=3@500")
	f.Add("join=12@200,leave=12@900,repair=retract")
	f.Add("move=7@1000:2.5:3.5,move=7@2000:0:0,every=32")
	f.Add("seed=42,repair=none")
	f.Add("join=0@0,join=0@0")
	f.Add("move=1@5:NaN:0")
	f.Fuzz(func(t *testing.T, s string) {
		cc, err := ParseChurn(s)
		if err != nil || cc == nil {
			return
		}
		again, err := ParseChurn(cc.String())
		if err != nil {
			t.Fatalf("accepted config failed re-parse: %q → %q: %v", s, cc.String(), err)
		}
		if !reflect.DeepEqual(cc, again) {
			t.Fatalf("round trip changed %q:\n %+v\n %+v", s, cc, again)
		}
	})
}
