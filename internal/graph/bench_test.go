package graph_test

import (
	"fmt"
	"testing"

	"radiocolor/internal/graph"
	"radiocolor/internal/topology"
)

var kappaSink graph.KappaResult

// BenchmarkKappa times one κ pass with the options ColorGraph uses, on
// mean-degree-12 unit-disk graphs (BENCH_kappa.json).
func BenchmarkKappa(b *testing.B) {
	for _, n := range []int{1000, 20000} {
		g := topology.UDGWithTargetDegree(n, 12, 1).G
		b.Run(fmt.Sprintf("udg-n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kappaSink = g.Kappa(graph.KappaOptions{Budget: 150_000, MaxNeighborhood: 140})
			}
		})
	}
}
