package churn

import (
	"reflect"
	"strings"
	"testing"

	"radiocolor/internal/geom"
	"radiocolor/internal/graph"
)

// path builds the path graph 0-1-2-...-(n-1).
func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}

func TestValidateAlternation(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
		ok   bool
	}{
		{"empty", Schedule{}, true},
		{"leave then join", Schedule{Leaves: []Event{{1, 10}}, Joins: []Event{{1, 20}}}, true},
		{"join then leave", Schedule{Joins: []Event{{1, 10}}, Leaves: []Event{{1, 20}}}, true},
		{"double leave", Schedule{Leaves: []Event{{1, 10}, {1, 20}}}, false},
		{"double join", Schedule{Joins: []Event{{1, 10}, {1, 20}}}, false},
		{"same slot", Schedule{Leaves: []Event{{1, 10}}, Joins: []Event{{1, 10}}}, false},
		{"negative slot", Schedule{Leaves: []Event{{1, -1}}}, false},
		{"negative node", Schedule{Leaves: []Event{{-1, 5}}}, false},
		{"waypoints out of order", Schedule{Waypoints: []Waypoint{{1, 20, 0, 0}, {1, 10, 1, 1}}}, false},
	}
	for _, tc := range cases {
		err := tc.s.Validate(100)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestCompileLeaveRemovesEdges(t *testing.T) {
	g := path(4) // 0-1-2-3
	s := &Schedule{Leaves: []Event{{Node: 1, At: 50}}}
	p, err := s.Compile(Env{G: g})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Batches) != 1 || p.Batches[0].Slot != 50 {
		t.Fatalf("want one batch at slot 50, got %+v", p.Batches)
	}
	b := p.Batches[0]
	if len(b.Leaves) != 1 || b.Leaves[0].Node != 1 || !b.Leaves[0].Final {
		t.Fatalf("want final leave of node 1, got %+v", b.Leaves)
	}
	wantDels := [][2]int32{{0, 1}, {1, 2}}
	if !reflect.DeepEqual(b.Delta.Dels, wantDels) {
		t.Fatalf("dels %v, want %v", b.Delta.Dels, wantDels)
	}
	if len(p.InitialAbsent) != 0 {
		t.Fatalf("nobody should be initially absent: %v", p.InitialAbsent)
	}
}

func TestCompileLateJoinInitiallyAbsent(t *testing.T) {
	g := path(4)
	s := &Schedule{Joins: []Event{{Node: 2, At: 100}}}
	p, err := s.Compile(Env{G: g})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.InitialAbsent, []int32{2}) {
		t.Fatalf("InitialAbsent %v, want [2]", p.InitialAbsent)
	}
	wantInit := [][2]int32{{1, 2}, {2, 3}}
	if !reflect.DeepEqual(p.InitialDelta.Dels, wantInit) {
		t.Fatalf("initial dels %v, want %v", p.InitialDelta.Dels, wantInit)
	}
	b := p.Batches[0]
	if b.Slot != 100 || !reflect.DeepEqual(b.Joins, []int32{2}) {
		t.Fatalf("want join of 2 at 100, got %+v", b)
	}
	if !reflect.DeepEqual(b.Delta.Adds, wantInit) {
		t.Fatalf("join adds %v, want %v", b.Delta.Adds, wantInit)
	}
}

func TestCompileRejoinSkipsAbsentNeighbors(t *testing.T) {
	g := path(3) // 0-1-2
	s := &Schedule{
		Leaves: []Event{{Node: 0, At: 10}, {Node: 1, At: 20}},
		Joins:  []Event{{Node: 1, At: 30}},
	}
	p, err := s.Compile(Env{G: g})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Batches) != 3 {
		t.Fatalf("want 3 batches, got %d", len(p.Batches))
	}
	// Node 1 rejoins at 30 while 0 is still gone: only edge (1,2) returns.
	b := p.Batches[2]
	if !reflect.DeepEqual(b.Delta.Adds, [][2]int32{{1, 2}}) {
		t.Fatalf("rejoin adds %v, want [[1 2]]", b.Delta.Adds)
	}
	// Node 1's leave at 20 is not final (it rejoins); node 0's is.
	if p.Batches[0].Leaves[0].Final != true {
		t.Fatal("node 0's leave should be final")
	}
	if p.Batches[1].Leaves[0].Final != false {
		t.Fatal("node 1's leave should not be final (it rejoins)")
	}
}

func TestCompileMobilityRewiresEdges(t *testing.T) {
	// Three collinear nodes at distance 1; radius 1.2 connects only
	// adjacent pairs. Node 2 moves next to node 0, so the edge set
	// flips from {0-1, 1-2} to {0-1, 0-2, 1-2}? No: after the move,
	// node 2 sits at (0.5, 0.5): distance to 0 ≈ 0.71 (in range),
	// to 1 ≈ 0.71 (in range) — both edges present.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	s := &Schedule{
		Waypoints: []Waypoint{{Node: 2, At: 64, X: 0.5, Y: 0.5}},
		Every:     64,
	}
	p, err := s.Compile(Env{G: g, Points: pts, Radius: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Batches) == 0 {
		t.Fatal("mobility produced no batches")
	}
	last := p.Batches[len(p.Batches)-1]
	var sawAdd bool
	for _, e := range last.Delta.Adds {
		if e == [2]int32{0, 2} {
			sawAdd = true
		}
	}
	// Across all batches the final edge set must contain (0,2).
	if !sawAdd {
		// The add may have landed in an earlier eval tick; replay the
		// deltas to check the final edge set instead.
		d := graph.NewDyn(g)
		d.Apply(p.InitialDelta, nil)
		for _, bt := range p.Batches {
			d.Apply(bt.Delta, nil)
		}
		if !d.Has(0, 2) {
			t.Fatal("edge (0,2) missing after mobility")
		}
	}
}

func TestCompileMobilityNeedsGeometry(t *testing.T) {
	s := &Schedule{Waypoints: []Waypoint{{Node: 0, At: 10, X: 1, Y: 1}}}
	if _, err := s.Compile(Env{G: path(3)}); err == nil {
		t.Fatal("waypoints without points should fail to compile")
	}
}

func TestCompileInactive(t *testing.T) {
	p, err := (&Schedule{}).Compile(Env{G: path(3)})
	if err != nil || p != nil {
		t.Fatalf("inactive schedule: plan %v err %v", p, err)
	}
}

func TestPermuteMovesNodes(t *testing.T) {
	s := &Schedule{
		Joins:  []Event{{Node: 0, At: 5}, {Node: 3, At: 9}},
		Leaves: []Event{{Node: 1, At: 2}, {Node: 3, At: 4}},
	}
	// On K5 every join adds several edges; the reversal below turns
	// their compiled (ascending) order into a descending one.
	b := graph.NewBuilder(5)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(u, v)
		}
	}
	k5 := b.Build()
	p, err := s.Compile(Env{G: k5})
	if err != nil {
		t.Fatal(err)
	}
	forward := []int32{4, 3, 2, 1, 0}
	m := p.Permute(forward)
	mv := func(e [2]int32) [2]int32 { return [2]int32{forward[e[0]], forward[e[1]]} }
	if !reflect.DeepEqual(m.InitialAbsent, []int32{4}) || len(m.InitialDelta.Dels) != len(p.InitialDelta.Dels) {
		t.Fatalf("initial absence not moved: %+v", m)
	}
	for j, e := range p.InitialDelta.Dels {
		if m.InitialDelta.Dels[j] != mv(e) {
			t.Fatalf("initial del %d: %v, want %v", j, m.InitialDelta.Dels[j], mv(e))
		}
	}
	if len(m.Batches) != len(p.Batches) {
		t.Fatalf("batches: %d, want %d", len(m.Batches), len(p.Batches))
	}
	for i, b := range p.Batches {
		mb := m.Batches[i]
		if mb.Slot != b.Slot || len(mb.Joins) != len(b.Joins) || len(mb.Leaves) != len(b.Leaves) ||
			len(mb.Delta.Adds) != len(b.Delta.Adds) || len(mb.Delta.Dels) != len(b.Delta.Dels) {
			t.Fatalf("batch %d reshaped: %+v vs %+v", i, mb, b)
		}
		for j, v := range b.Joins {
			if mb.Joins[j] != forward[v] {
				t.Fatalf("batch %d join %d: %d, want %d", i, j, mb.Joins[j], forward[v])
			}
		}
		for j, lv := range b.Leaves {
			if mb.Leaves[j] != (Leave{Node: forward[lv.Node], Final: lv.Final}) {
				t.Fatalf("batch %d leave %d: %+v, want node %d", i, j, mb.Leaves[j], forward[lv.Node])
			}
		}
		// Order and orientation carry over: the repair scan and its
		// tie-break see the caller's edge list.
		for j, e := range b.Delta.Adds {
			if mb.Delta.Adds[j] != mv(e) {
				t.Fatalf("batch %d add %d: %v, want %v", i, j, mb.Delta.Adds[j], mv(e))
			}
		}
		for j, e := range b.Delta.Dels {
			if mb.Delta.Dels[j] != mv(e) {
				t.Fatalf("batch %d del %d: %v, want %v", i, j, mb.Delta.Dels[j], mv(e))
			}
		}
	}
	// The relabeled final graph is the original's, relabeled.
	perm := graph.Permutation{Forward: forward, Inverse: forward}
	if got, want := m.FinalGraph(perm.Apply(k5)), perm.Apply(p.FinalGraph(k5)); !reflect.DeepEqual(got.CSR(), want.CSR()) {
		t.Fatal("permuted plan's final graph is not the relabeled original's")
	}
	// Original untouched.
	if p.InitialAbsent[0] != 0 || p.Batches[0].Leaves[0].Node != 1 {
		t.Fatal("permute mutated the original")
	}
	if (*Plan)(nil).Permute(forward) != nil {
		t.Fatal("nil plan must permute to nil")
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"leave=3@500",
		"join=12@200,leave=12@900",
		"join=1@5,leave=2@3,move=7@1000:2.5:3.5,move=7@2000:0:0,every=32,repair=none,seed=9",
	}
	for _, src := range cases {
		s, err := ParseSchedule(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		rendered := s.String()
		s2, err := ParseSchedule(rendered)
		if err != nil {
			t.Fatalf("reparse %q: %v", rendered, err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip %q -> %q: %+v vs %+v", src, rendered, s, s2)
		}
	}
}

func TestParseRejects(t *testing.T) {
	cases := []string{
		"bogus=1",
		"join=1",
		"join=@5",
		"leave=1@x",
		"move=1@5:1",
		"move=1@5:NaN:2",
		"repair=fix",
		"every=x",
		"leave=1@5,leave=1@9", // consecutive leaves
	}
	for _, src := range cases {
		if _, err := ParseSchedule(src); err == nil {
			t.Errorf("ParseSchedule(%q) should fail", src)
		}
	}
}

func TestParseErrorsNameTheTerm(t *testing.T) {
	_, err := ParseSchedule("join=1@5,move=2@7:bad:0")
	if err == nil || !strings.Contains(err.Error(), "move=2@7:bad:0") {
		t.Fatalf("error should quote the offending term: %v", err)
	}
}
