package verify_test

import (
	"fmt"
	"math/rand"
	"testing"

	"radiocolor/internal/churn"
	"radiocolor/internal/core"
	"radiocolor/internal/fault"
	"radiocolor/internal/graph"
	"radiocolor/internal/radio"
	"radiocolor/internal/verify"
)

// Chaos property test for the dynamic-topology layer: under a random
// join/leave schedule composed with link loss, across every wakeup
// schedule, the run may leave departed nodes uncolored, and two
// PRESENT adjacent nodes sharing a color in the topology the run ended
// with must be no more common than in the same run without churn. The
// verdict graph is Plan.FinalGraph, not the base graph: permanent
// departures change which edges are in scope.
//
// The comparison is paired rather than absolute because the protocol
// itself misses at practical constants: on this n=60 graph, over the
// five wake patterns and seeds 1–60 without loss, 4 of 300 runs end
// with a hard violation without churn and 4 of 300 with it. A churn
// bug shows as an excess over the churn-free runs of the same seeds.

// randomChurn makes ~10% of the nodes leave at random slots; half of
// the victims rejoin later and re-contend (retract-repair semantics).
// Deterministic in seed.
func randomChurn(n int, budget int64, seed int64) *churn.Schedule {
	rng := rand.New(rand.NewSource(seed))
	victims := rng.Perm(n)[:n/10+1]
	s := &churn.Schedule{Seed: seed}
	for i, v := range victims {
		at := 1 + rng.Int63n(budget/2)
		s.Leaves = append(s.Leaves, churn.Event{Node: v, At: at})
		if i%2 == 1 {
			s.Joins = append(s.Joins, churn.Event{Node: v, At: at + 1 + rng.Int63n(budget/4)})
		}
	}
	return s
}

// churnSeeds are the seeds each (pattern, loss) case runs with and
// without churn; churnMargin is how many more hard violations the churn
// runs may have than the churn-free runs of the same seeds.
const (
	churnSeeds  = 60
	churnMargin = 2
)

func TestPresentProperlyColoredUnderChurn(t *testing.T) {
	g := propertyGraph(t)
	par := propertyParams(g)
	const budget = 120_000
	rates := []float64{0, 0.10}
	if testing.Short() {
		rates = rates[1:]
	}
	for _, pat := range radio.WakePatterns {
		for _, loss := range rates {
			pat, loss := pat, loss
			t.Run(fmt.Sprintf("%s/loss%g", pat.Name, loss), func(t *testing.T) {
				t.Parallel()
				var withChurn, without int
				for seed := int64(1); seed <= churnSeeds; seed++ {
					if churnRunHard(t, g, par, pat.Make, loss, seed, budget, true) {
						withChurn++
					}
					if churnRunHard(t, g, par, pat.Make, loss, seed, budget, false) {
						without++
					}
				}
				t.Logf("hard violations over %d seeds: %d with churn, %d without", churnSeeds, withChurn, without)
				if withChurn > without+churnMargin {
					t.Errorf("loss=%g: %d of %d churn runs end with present adjacent nodes sharing a color, "+
						"against %d of the same seeds without churn (margin %d)",
						loss, withChurn, churnSeeds, without, churnMargin)
				}
			})
		}
	}
}

// churnRunHard runs the protocol on g for one seed, with the random
// churn schedule of that seed or without churn, and reports whether two
// present adjacent nodes ended with the same color. It fails the test
// if the run is vacuous: no churn fired, no loss was injected, the
// permanent leavers are not the nodes out of scope, or under half the
// present nodes hold colors.
func churnRunHard(t *testing.T, g *graph.Graph, par core.Params, wake func(n int, phaseLen, seed int64) []int64,
	loss float64, seed, budget int64, withChurn bool) bool {
	t.Helper()
	var sch *churn.Schedule
	var plan *churn.Plan
	final := g
	if withChurn {
		sch = randomChurn(g.N(), budget/2, seed)
		var err error
		if plan, err = sch.Compile(churn.Env{G: g}); err != nil {
			t.Fatal(err)
		}
		final = plan.FinalGraph(g)
	}
	var inj *fault.Injector
	if loss > 0 {
		// Loss has no per-node victims, so it composes with any churn
		// schedule (crash victims would have to stay disjoint from the
		// churn subjects).
		var err error
		if inj, err = (&fault.Profile{Seed: seed, Loss: loss}).Compile(g.N()); err != nil {
			t.Fatal(err)
		}
	}
	nodes, protos := core.Nodes(g.N(), seed, par, core.Ablation{})
	cfg := radio.Config{
		G: g, Protocols: protos,
		Wake:     wake(g.N(), par.WaitSlots(), seed),
		MaxSlots: budget, NEstimate: par.N,
		Faults: inj,
		Churn:  plan,
	}
	res, err := radio.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	colors := make([]int32, len(nodes))
	for i, v := range nodes {
		colors[i] = v.Color()
	}
	rep := verify.CheckSurvivorsScoped(final, colors,
		verify.DownSet(g.N(), res.Down), verify.DownSet(g.N(), res.Left))
	if withChurn {
		if res.Leaves == 0 || res.Joins == 0 {
			t.Fatalf("seed %d loss=%g: no churn applied (leaves=%d joins=%d); test is vacuous",
				seed, loss, res.Leaves, res.Joins)
		}
		if want := len(sch.Leaves) - len(sch.Joins); rep.LeftNodes != want {
			t.Errorf("seed %d loss=%g: %d nodes out of scope, want the %d permanent leavers",
				seed, loss, rep.LeftNodes, want)
		}
	}
	if loss > 0 && res.Lost == 0 {
		t.Fatalf("seed %d loss=%g: no losses injected; test is vacuous", seed, loss)
	}
	if rep.Survivors == 0 || rep.SurvivorsColored == 0 {
		t.Fatalf("seed %d loss=%g: nobody present/colored (%s); test is vacuous", seed, loss, rep)
	}
	if rep.SurvivorsColored*2 < rep.Survivors {
		t.Errorf("seed %d loss=%g: only %d of %d present nodes colored — degradation is not graceful (%s)",
			seed, loss, rep.SurvivorsColored, rep.Survivors, rep)
	}
	return rep.Hard()
}
