package radiocolor

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"radiocolor/internal/radio"
)

// perNodeProto forwards one protocol node without its batch membership,
// so the engine drives it through the generic per-node adapter: one
// Send, Recv and Done interface call per node instead of one batch call
// per list.
type perNodeProto struct{ p radio.Protocol }

func (w perNodeProto) Start(slot int64)                 { w.p.Start(slot) }
func (w perNodeProto) Send(slot int64) radio.Message    { return w.p.Send(slot) }
func (w perNodeProto) Recv(slot int64, m radio.Message) { w.p.Recv(slot, m) }
func (w perNodeProto) Done() bool                       { return w.p.Done() }
func (w perNodeProto) Reset()                           { w.p.(radio.Restartable).Reset() }
func (w perNodeProto) Color() int32                     { return w.p.(radio.Colored).Color() }
func perNodeProtocols(ps []radio.Protocol) []radio.Protocol {
	out := make([]radio.Protocol, len(ps))
	for i, p := range ps {
		out[i] = perNodeProto{p}
	}
	return out
}

// TestBatchMatchesPerNode pins the flat batch path to the per-node
// adapter over the same node handles: every wake schedule, Workers
// {1, 4} × Tiling {0, 4}, and a plain run, metrics with phase hooks,
// loss with crash/restart, clock skew (the half-slot rule), churn with
// retract repairs, and a multichannel medium must give DeepEqual
// Outcomes (colors, latencies, stats minus wall clock) and equal
// per-slot event multisets. Under -short only the synchronous schedule
// runs, untiled sequential and tiled parallel.
func TestBatchMatchesPerNode(t *testing.T) {
	const n, radius, side = 64, 1.0, 4.5 // mean degree ~10
	r := rand.New(rand.NewSource(11))
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{r.Float64() * side, r.Float64() * side}
	}
	probe, err := ColorUnitDisk(pts, radius, Options{MaxSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	measured := &Measured{Delta: probe.Delta, Kappa1: probe.Kappa1, Kappa2: probe.Kappa2}
	// Movers hold still until the static run has colored, then cross
	// into colored neighborhoods (as in TestTilingInvisible).
	moves := &ChurnConfig{Every: 8}
	for i := 0; i < 16; i++ {
		v := 4 * i
		moves.Waypoints = append(moves.Waypoints,
			ChurnWaypoint{Node: v, At: 9000, X: pts[v][0], Y: pts[v][1]},
			ChurnWaypoint{Node: v, At: 10000 + int64(i)*40, X: r.Float64() * side, Y: r.Float64() * side})
	}
	cases := []struct {
		name    string
		opt     Options
		observe bool // attach an eventDigest, which also installs phase hooks
	}{
		{"plain", Options{Seed: 3}, false},
		{"metrics-phase", Options{Seed: 3, Metrics: true}, true},
		{"loss-crash-restart", Options{Seed: 5, Metrics: true, Faults: &FaultConfig{
			Loss: 0.05, Crashes: []NodeCrash{{Node: 5, At: 40, Restart: 2500}, {Node: 47, At: 900}},
		}}, true},
		{"skew", Options{Seed: 4, Faults: &FaultConfig{SkewProb: 0.25, Loss: 0.02}}, true},
		// A repair can leave a mover undecided for good, so the window is
		// capped a few thousand slots past the last move.
		{"churn-repair", Options{Seed: 7, Churn: moves, MaxSlots: 14000}, true},
		{"medium", Options{Seed: 8, Medium: &MediumConfig{Kind: "multichannel", Channels: 2}}, true},
	}
	wakes := []Wakeup{WakeupSynchronous, WakeupUniform, WakeupSequential, WakeupBursty, WakeupAdversarial}
	grid := [][2]int{{1, 0}, {1, 4}, {4, 0}, {4, 4}} // Workers, Tiling
	if testing.Short() {
		wakes, grid = wakes[:1], [][2]int{{1, 0}, {4, 4}}
	}
	repaired := int64(0)
	for _, c := range cases {
		for _, wake := range wakes {
			for _, wt := range grid {
				name := fmt.Sprintf("%s/%v/workers%d-tiling%d", c.name, wake, wt[0], wt[1])
				t.Run(name, func(t *testing.T) {
					run := func(perNode bool) (*Outcome, *eventDigest) {
						t.Helper()
						d := &eventDigest{}
						opt := c.opt
						opt.Wakeup, opt.Workers, opt.Tiling, opt.Measured = wake, wt[0], wt[1], measured
						if c.observe {
							opt.Observer = d
						}
						if perNode {
							opt.wrapProtocols = perNodeProtocols
						}
						out, err := ColorUnitDisk(pts, radius, opt)
						if err != nil {
							t.Fatalf("perNode=%v: %v", perNode, err)
						}
						if s := out.Stats; s != nil {
							s.Wall, s.SlotsPerSec = 0, 0
						}
						return out, d
					}
					want, wantEv := run(true)
					got, gotEv := run(false)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("batch and per-node outcomes differ:\n batch    %+v\n per-node %+v", got, want)
					}
					if !gotEv.equal(wantEv) {
						t.Fatal("batch and per-node event multisets differ")
					}
					if got.Churn != nil {
						repaired += got.Churn.ConflictsRepaired
					}
				})
			}
		}
	}
	if repaired == 0 {
		t.Error("no churn run repaired a conflict; the churn case no longer covers retraction")
	}
}
