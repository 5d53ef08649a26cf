package radiocolor

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"radiocolor/internal/rng"
)

// eventDigest folds every Observer and PhaseObserver event into an
// order-free summary: a count per event kind and a sum of well-mixed
// event hashes, each hash covering the slot and every node id the event
// carries (OnDeliver's sender included). Two runs have equal digests
// exactly when their per-slot event multisets are equal, up to 64-bit
// hash collisions — the comparison the tiled kernel's tile-grouped
// event order allows.
type eventDigest struct {
	counts [7]atomic.Int64
	sum    atomic.Uint64
}

func (d *eventDigest) add(kind int, slot int64, ids ...int) {
	h := rng.Mix(uint64(slot) ^ uint64(kind)<<56)
	for _, id := range ids {
		h = rng.Mix(h ^ uint64(id))
	}
	d.counts[kind].Add(1)
	d.sum.Add(h)
}

func (d *eventDigest) equal(o *eventDigest) bool {
	for k := range d.counts {
		if d.counts[k].Load() != o.counts[k].Load() {
			return false
		}
	}
	return d.sum.Load() == o.sum.Load()
}

func (d *eventDigest) OnSlot(slot int64)              { d.add(0, slot) }
func (d *eventDigest) OnWake(slot int64, v int)       { d.add(1, slot, v) }
func (d *eventDigest) OnTransmit(slot int64, v int)   { d.add(2, slot, v) }
func (d *eventDigest) OnDeliver(slot int64, f, v int) { d.add(3, slot, f, v) }
func (d *eventDigest) OnCollision(slot int64, v, k int) {
	d.add(4, slot, v, k)
}
func (d *eventDigest) OnDecide(slot int64, v int) { d.add(5, slot, v) }
func (d *eventDigest) OnPhase(slot int64, v int, from, to string) {
	d.add(6, slot, v, nameID(from), nameID(to))
}

func nameID(s string) int {
	h := 0
	for i := 0; i < len(s); i++ {
		h = h*31 + int(s[i])
	}
	return h
}

// TestTilingInvisible pins Options.Tiling as a speed-only choice: a
// node's wire id, random stream, wake slot, fault coins and churn
// events all key on its caller label, so storing the nodes along a
// locality order changes nothing a caller can see. Every case runs
// untiled and then at Tiling 4 and -1 (auto), at Workers 1 and 2,
// through both entry points (ColorGraph relabels in BFS order,
// ColorUnitDisk along the Hilbert curve), and requires a DeepEqual
// Outcome (Stats minus the wall-clock fields) and equal per-slot
// Observer/PhaseObserver event multisets.
func TestTilingInvisible(t *testing.T) {
	const n, radius, side = 64, 1.0, 4.5 // mean degree ~10
	r := rand.New(rand.NewSource(11))
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{r.Float64() * side, r.Float64() * side}
	}
	adj := make([][]int, n)
	for u := range pts {
		for v := u + 1; v < n; v++ {
			dx, dy := pts[u][0]-pts[v][0], pts[u][1]-pts[v][1]
			if dx*dx+dy*dy <= radius*radius {
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
			}
		}
	}
	// Measure Δ and κ once: the per-call measurement runs on the
	// caller's graph before any relabeling, and dominates small runs.
	probe, err := ColorGraph(adj, Options{MaxSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	measured := &Measured{Delta: probe.Delta, Kappa1: probe.Kappa1, Kappa2: probe.Kappa2}
	entries := []struct {
		name string
		run  func(Options) (*Outcome, error)
	}{
		{"graph", func(o Options) (*Outcome, error) { return ColorGraph(adj, o) }},
		{"unitdisk", func(o Options) (*Outcome, error) { return ColorUnitDisk(pts, radius, o) }},
	}
	chaos := &FaultConfig{
		Loss:    0.05,
		Burst:   &BurstLoss{PBad: 0.1, Window: 16, LossBad: 0.8},
		Jammers: []Jam{{Nodes: []int{1, 2, 3, 30, 31, 60}, From: 100, Until: 4000, Prob: 0.3}},
	}
	crashes := &FaultConfig{Crashes: []NodeCrash{{Node: 5, At: 40, Restart: 2500}, {Node: 47, At: 900}}}
	joinLeave := &ChurnConfig{
		Leaves: []ChurnEvent{{Node: 10, At: 500}, {Node: 11, At: 700}},
		Joins:  []ChurnEvent{{Node: 10, At: 3000}, {Node: 12, At: 1500}},
	}
	// Movers hold still until the static run has colored (~8.5k slots),
	// then cross into colored neighborhoods, so the retract repair and
	// its tie-break run under relabeling (TestPermuteMovesNodes in
	// internal/churn pins the order of its edge scan).
	moves := &ChurnConfig{Every: 8}
	for i := 0; i < 16; i++ {
		v := 4 * i
		moves.Waypoints = append(moves.Waypoints,
			ChurnWaypoint{Node: v, At: 9000, X: pts[v][0], Y: pts[v][1]},
			ChurnWaypoint{Node: v, At: 10000 + int64(i)*40, X: r.Float64() * side, Y: r.Float64() * side})
	}
	cases := []struct {
		name      string
		opt       Options
		geometric bool // waypoints need positions
		observe   bool // attach an eventDigest (the observer-free path otherwise)
		check     func(*testing.T, *Outcome)
	}{
		{"plain", Options{Seed: 3}, false, false, func(t *testing.T, o *Outcome) {
			if !o.OK() {
				t.Fatalf("not a complete proper coloring: %+v", o)
			}
		}},
		{"metrics", Options{Seed: 3, Metrics: true}, false, false, nil},
		{"loss-burst-jam", Options{Seed: 4, Wakeup: WakeupUniform, Faults: chaos}, false, true, func(t *testing.T, o *Outcome) {
			if o.Faults.Lost == 0 || o.Faults.Jammed == 0 {
				t.Fatalf("coins never fired: %+v", o.Faults)
			}
		}},
		{"crash-restart", Options{Seed: 5, Faults: crashes, Metrics: true}, false, true, func(t *testing.T, o *Outcome) {
			if f := o.Faults; f.Crashes != 2 || f.Restarts != 1 || !reflect.DeepEqual(f.Down, []int{47}) {
				t.Fatalf("fault report not in caller ids: %+v", f)
			}
		}},
		{"churn", Options{Seed: 6, Churn: joinLeave}, false, true, func(t *testing.T, o *Outcome) {
			if !reflect.DeepEqual(o.Churn.Left, []int{11}) {
				t.Fatalf("departures not in caller ids: %+v", o.Churn)
			}
		}},
		{"waypoints", Options{Seed: 7, Churn: moves}, true, true, func(t *testing.T, o *Outcome) {
			if o.Churn.ConflictsRepaired == 0 {
				t.Fatalf("no conflict repaired; the case no longer covers repair: %+v", o.Churn)
			}
		}},
	}
	for _, c := range cases {
		for _, e := range entries {
			if c.geometric && e.name != "unitdisk" {
				continue
			}
			t.Run(c.name+"/"+e.name, func(t *testing.T) {
				run := func(tiling, workers int) (*Outcome, *eventDigest) {
					t.Helper()
					d := &eventDigest{}
					opt := c.opt
					opt.Tiling, opt.Workers, opt.Measured = tiling, workers, measured
					if c.observe {
						opt.Observer = d
					}
					out, err := e.run(opt)
					if err != nil {
						t.Fatalf("Tiling %d Workers %d: %v", tiling, workers, err)
					}
					if s := out.Stats; s != nil {
						s.Wall, s.SlotsPerSec = 0, 0
					}
					return out, d
				}
				want, wantEv := run(0, 1)
				if c.check != nil {
					c.check(t, want)
				}
				for _, workers := range []int{1, 2} {
					for _, tiling := range []int{4, -1} {
						got, gotEv := run(tiling, workers)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("Tiling %d Workers %d changed the outcome:\n tiled   %+v\n untiled %+v", tiling, workers, got, want)
						}
						if !gotEv.equal(wantEv) {
							t.Fatalf("Tiling %d Workers %d changed the event multisets", tiling, workers)
						}
					}
				}
			})
		}
	}

	// Invalid Tiling is a validation error, caught before any work.
	if _, err := ColorGraph(adj, Options{Tiling: -2}); err == nil {
		t.Error("Tiling=-2 accepted")
	}
}
