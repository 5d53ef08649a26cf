package fault

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Profile
		ok   bool
	}{
		{"zero", Profile{}, true},
		{"loss", Profile{Loss: 0.5}, true},
		{"loss-high", Profile{Loss: 1.5}, false},
		{"loss-neg", Profile{Loss: -0.1}, false},
		{"skew-high", Profile{SkewProb: 2}, false},
		{"burst", Profile{Burst: &Burst{PBad: 0.2, Window: 32}}, true},
		{"burst-window", Profile{Burst: &Burst{PBad: 0.2, Window: 0}}, false},
		{"burst-pbad", Profile{Burst: &Burst{PBad: -1, Window: 8}}, false},
		{"crash", Profile{Crashes: []Crash{{Node: 1, At: 10}}}, true},
		{"crash-restart", Profile{Crashes: []Crash{{Node: 1, At: 10, Restart: 20}}}, true},
		{"crash-restart-before", Profile{Crashes: []Crash{{Node: 1, At: 10, Restart: 5}}}, false},
		{"crash-dup", Profile{Crashes: []Crash{{Node: 1, At: 10}, {Node: 1, At: 20}}}, false},
		{"crash-range", Profile{Crashes: []Crash{{Node: 9, At: 0}}}, false},
		{"crash-neg", Profile{Crashes: []Crash{{Node: -1, At: 0}}}, false},
		{"jam", Profile{Jammers: []Jammer{{From: 0, Until: 100}}}, true},
		{"jam-until", Profile{Jammers: []Jammer{{From: 50, Until: 10}}}, false},
		{"jam-duty", Profile{Jammers: []Jammer{{Period: 4, Duty: 5}}}, false},
		{"jam-victim-range", Profile{Jammers: []Jammer{{Nodes: []int{12}}}}, false},
		{"jam-prob", Profile{Jammers: []Jammer{{Prob: 1.2}}}, false},
	}
	for _, tc := range cases {
		err := tc.p.Validate(5)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
}

func TestCompileInactive(t *testing.T) {
	inj, err := (&Profile{}).Compile(10)
	if err != nil || inj != nil {
		t.Fatalf("inactive profile: got (%v, %v), want (nil, nil)", inj, err)
	}
	var nilP *Profile
	if nilP.Active() {
		t.Fatal("nil profile reports Active")
	}
	inj, err = nilP.Compile(10)
	if err != nil || inj != nil {
		t.Fatalf("nil profile: got (%v, %v), want (nil, nil)", inj, err)
	}
}

func TestLossRateAndDeterminism(t *testing.T) {
	inj, err := (&Profile{Seed: 7, Loss: 0.3}).Compile(4)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	const trials = 20000
	for s := int64(0); s < trials; s++ {
		a := inj.Lost(s, 0, 1)
		if b := inj.Lost(s, 0, 1); a != b {
			t.Fatalf("slot %d: Lost not deterministic", s)
		}
		if a {
			lost++
		}
	}
	rate := float64(lost) / trials
	if math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("loss rate %g, want ~0.3", rate)
	}
	// Different links see independent coins.
	same := 0
	for s := int64(0); s < 1000; s++ {
		if inj.Lost(s, 0, 1) == inj.Lost(s, 2, 3) {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("links (0,1) and (2,3) saw identical loss streams")
	}
}

func TestBurstWindows(t *testing.T) {
	// Total fade in bad windows, lossless in good ones: within any one
	// window the outcome must be constant for a given link.
	inj, err := (&Profile{Seed: 3, Burst: &Burst{PBad: 0.5, Window: 16, LossBad: 1, LossGood: 0}}).Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for w := int64(0); w < 500; w++ {
		first := inj.Lost(w*16, 0, 1)
		for s := w * 16; s < (w+1)*16; s++ {
			if inj.Lost(s, 0, 1) != first {
				t.Fatalf("window %d: loss state flipped mid-window at slot %d", w, s)
			}
		}
		if first {
			bad++
		}
	}
	if bad < 150 || bad > 350 {
		t.Fatalf("bad windows = %d/500, want ~250 for PBad=0.5", bad)
	}
}

func TestJammerSchedule(t *testing.T) {
	p := &Profile{Jammers: []Jammer{{Nodes: []int{2}, From: 10, Until: 30, Period: 5, Duty: 2}}}
	inj, err := p.Compile(4)
	if err != nil {
		t.Fatal(err)
	}
	for slot := int64(0); slot < 40; slot++ {
		inWindow := slot >= 10 && slot < 30 && (slot-10)%5 < 2
		if got := inj.Jammed(slot, 2); got != inWindow {
			t.Errorf("slot %d victim: Jammed=%v, want %v", slot, got, inWindow)
		}
		if inj.Jammed(slot, 1) {
			t.Errorf("slot %d: non-victim node 1 jammed", slot)
		}
	}
	// Empty victim list means everyone; Duty defaults to Period.
	all, err := (&Profile{Jammers: []Jammer{{From: 0, Until: 5}}}).Compile(3)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 3; v++ {
		if !all.Jammed(0, v) || all.Jammed(5, v) {
			t.Fatalf("victimless jammer: wrong coverage at node %d", v)
		}
	}
}

func TestEventsCompiled(t *testing.T) {
	p := &Profile{Crashes: []Crash{
		{Node: 3, At: 50},
		{Node: 1, At: 10, Restart: 40},
	}}
	inj, err := p.Compile(5)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Slot: 10, Node: 1, Kind: EventCrash, Final: false},
		{Slot: 40, Node: 1, Kind: EventRestart},
		{Slot: 50, Node: 3, Kind: EventCrash, Final: true},
	}
	if !reflect.DeepEqual(inj.Events(), want) {
		t.Fatalf("events = %+v, want %+v", inj.Events(), want)
	}
}

func TestSkewOffsets(t *testing.T) {
	inj, err := (&Profile{Seed: 11, SkewProb: 0.5}).Compile(64)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.HasSkew() {
		t.Fatal("HasSkew = false")
	}
	a, b := inj.SkewOffsets(64), inj.SkewOffsets(64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("SkewOffsets not deterministic")
	}
	ones := 0
	for _, v := range a {
		if v == 1 {
			ones++
		}
	}
	if ones == 0 || ones == 64 {
		t.Fatalf("skew=0.5 gave %d/64 offset nodes", ones)
	}
	full, err := (&Profile{SkewProb: 1}).Compile(8)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range full.SkewOffsets(8) {
		if v != 1 {
			t.Fatalf("skew=1: node %d offset %d", i, v)
		}
	}
}

func TestParseProfile(t *testing.T) {
	p, err := ParseProfile("loss=0.05,crash=3@500,crash=7@200:900,jam=100:400@0+1+2~0.8,burst=0.2/64,skew=0.25,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	want := &Profile{
		Seed: 42, Loss: 0.05, SkewProb: 0.25,
		Burst:   &Burst{PBad: 0.2, Window: 64},
		Crashes: []Crash{{Node: 3, At: 500}, {Node: 7, At: 200, Restart: 900}},
		Jammers: []Jammer{{Nodes: []int{0, 1, 2}, From: 100, Until: 400, Prob: 0.8}},
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	// String round-trips to an equivalent profile.
	p2, err := ParseProfile(p.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", p.String(), err)
	}
	if p2.String() != p.String() {
		t.Fatalf("round trip: %q != %q", p2.String(), p.String())
	}

	if p, err := ParseProfile("  "); err != nil || p.Active() {
		t.Fatalf("blank profile: (%+v, %v)", p, err)
	}

	bad := []string{
		"loss", "loss=", "loss=x", "loss=2", "frob=1", "crash=5",
		"crash=5@-1", "crash=5@10:3", "jam=9", "jam=5:2", "burst=0.5",
		"burst=0.5/0", "jam=0:9@x", "jam=0:9~7", "crash=1@2,crash=1@9",
	}
	for _, s := range bad {
		if _, err := ParseProfile(s); err == nil {
			t.Errorf("ParseProfile(%q): want error, got nil", s)
		}
	}
}

func TestInjectorPredicatesAllocFree(t *testing.T) {
	p, err := ParseProfile("loss=0.2,burst=0.3/32/0.9/0.01,jam=0:0:7:3@1~0.5,crash=2@100")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := p.Compile(8)
	if err != nil {
		t.Fatal(err)
	}
	var sink bool
	allocs := testing.AllocsPerRun(200, func() {
		for s := int64(0); s < 64; s++ {
			sink = inj.Lost(s, 0, 1) || inj.Jammed(s, 1) || sink
		}
	})
	if allocs != 0 {
		t.Fatalf("Lost/Jammed allocated %v per run, want 0", allocs)
	}
	_ = sink
}

// TestPermute pins the relabeling covariance contract: node references
// (crash victims, jammer victim lists) map through forward, schedules
// and rates are untouched, the original profile is not mutated, and
// out-of-range references pass through unmapped.
func TestPermute(t *testing.T) {
	var nilP *Profile
	if nilP.Permute([]int32{0}) != nil {
		t.Fatal("nil profile must permute to nil")
	}

	p := &Profile{
		Loss: 0.25,
		Seed: 7,
		Crashes: []Crash{
			{Node: 0, At: 10, Restart: 20},
			{Node: 3, At: 5},
			{Node: 99, At: 1}, // out of range: passes through
		},
		Jammers: []Jammer{
			{Nodes: []int{1, 2, -4}, From: 0, Until: 50, Prob: 0.5},
			{From: 100, Period: 8, Duty: 2}, // all-nodes jammer: no list to map
		},
		Burst: &Burst{PBad: 0.1, Window: 16},
	}
	forward := []int32{3, 2, 1, 0} // reversal on 4 nodes
	q := p.Permute(forward)

	if q.Loss != p.Loss || q.Seed != p.Seed || q.Burst != p.Burst {
		t.Fatalf("rates/seed/burst must carry over: %+v", q)
	}
	wantCrashes := []Crash{
		{Node: 3, At: 10, Restart: 20},
		{Node: 0, At: 5},
		{Node: 99, At: 1},
	}
	if !reflect.DeepEqual(q.Crashes, wantCrashes) {
		t.Fatalf("crashes = %+v, want %+v", q.Crashes, wantCrashes)
	}
	wantNodes := []int{2, 1, -4}
	if !reflect.DeepEqual(q.Jammers[0].Nodes, wantNodes) {
		t.Fatalf("jammer victims = %v, want %v", q.Jammers[0].Nodes, wantNodes)
	}
	if q.Jammers[0].From != 0 || q.Jammers[0].Until != 50 || q.Jammers[0].Prob != 0.5 {
		t.Fatalf("jammer schedule must carry over: %+v", q.Jammers[0])
	}
	if len(q.Jammers[1].Nodes) != 0 || q.Jammers[1].Period != 8 {
		t.Fatalf("all-nodes jammer must carry over: %+v", q.Jammers[1])
	}

	// The original is untouched (Permute copies node-bearing slices).
	if p.Crashes[0].Node != 0 || p.Jammers[0].Nodes[0] != 1 {
		t.Fatalf("Permute mutated its receiver: %+v", p)
	}

	// Same chaos, moved nodes: the permuted profile's loss, burst and
	// Prob-jammer coins at forward[a] are the original's at a — also
	// after a second Permute composes onto the first.
	const n = 64
	coins := &Profile{
		Seed:    11,
		Loss:    0.2,
		Burst:   &Burst{PBad: 0.3, Window: 8, LossGood: 0.05},
		Jammers: []Jammer{{From: 0, Prob: 0.4}, {Nodes: []int{5, 9, 40}, From: 3, Prob: 0.7}},
	}
	rev := make([]int32, n)
	for v := range rev {
		rev[v] = int32(n - 1 - v)
	}
	perm := rand.New(rand.NewSource(3)).Perm(n)
	fwd := make([]int32, n)
	for v, f := range perm {
		fwd[v] = int32(f)
	}
	both := make([]int32, n) // rev, then fwd
	for v := range both {
		both[v] = fwd[rev[v]]
	}
	orig, err := coins.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		prof *Profile
		fwd  []int32
	}{
		{"once", coins.Permute(fwd), fwd},
		{"composed", coins.Permute(rev).Permute(fwd), both},
	} {
		moved, err := c.prof.Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		lost, jammed := 0, 0
		for s := int64(0); s < 200; s++ {
			for a := int32(0); a < n; a++ {
				if moved.Jammed(s, c.fwd[a]) != orig.Jammed(s, a) {
					t.Fatalf("%s: Jammed(%d, %d) differs from the original's at node %d", c.name, s, c.fwd[a], a)
				}
				if orig.Jammed(s, a) {
					jammed++
				}
				b := (a*7 + int32(s)) % n
				if moved.Lost(s, c.fwd[a], c.fwd[b]) != orig.Lost(s, a, b) {
					t.Fatalf("%s: Lost(%d, %d, %d) differs from the original's on link %d→%d", c.name, s, c.fwd[a], c.fwd[b], a, b)
				}
				if orig.Lost(s, a, b) {
					lost++
				}
			}
		}
		if lost == 0 || jammed == 0 {
			t.Fatalf("%s: coins never fired (lost %d, jammed %d)", c.name, lost, jammed)
		}
	}
	if _, err := coins.Permute(fwd).Compile(n + 1); err == nil {
		t.Fatal("a profile permuted over n nodes compiled for n+1")
	}
}
