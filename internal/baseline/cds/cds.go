// Package cds implements a decentralized color-fixing baseline in the
// style of Chakrabarty–de Supinski (arXiv:1910.13900): nodes start from
// an ARBITRARY — possibly improper — (Δ+1)-coloring and repair it in
// place. Each round every node broadcasts its current color; a node
// that sees a neighbor holding its own color becomes conflicted and,
// with probability ½ (the lazy rule that breaks symmetry between two
// conflicted neighbors), redraws uniformly from {0..Δ} minus all
// neighbor colors it can see. Because a redraw excludes every visible
// neighbor color, a conflict-free node can never be made conflicted by
// its neighbors' repairs — "conflict-free" is a stable predicate, which
// is what makes the algorithm self-stabilizing and lets Done() report
// it safely.
//
// It is the principled comparator for the churn engine's retract-and-
// re-contend repair (radio engine, churn.RepairRetract): identical
// recover-from-conflict task, but in the synchronous message-passing
// model with free neighbor knowledge and no MAC layer — the same role
// package luby plays for cold-start coloring.
package cds

import (
	"fmt"

	"radiocolor/internal/graph"
	"radiocolor/internal/msgpass"
	"radiocolor/internal/rng"
)

// Node is one color-fixing participant. It implements msgpass.Protocol.
type Node struct {
	rng   rng.Rand
	delta int
	color int32
	quiet bool // no conflict observed in the last completed round

	taken []bool // scratch: colors held by neighbors this round
}

// New creates a node holding the (possibly conflicting) initial color,
// with palette {0..delta}.
func New(delta int, initial int32, r rng.Rand) *Node {
	if initial < 0 || int(initial) > delta {
		panic(fmt.Sprintf("cds: initial color %d outside palette {0..%d}", initial, delta))
	}
	return &Node{rng: r, delta: delta, color: initial, taken: make([]bool, delta+1)}
}

// Color returns the node's current color; final once Done().
func (v *Node) Color() int32 { return v.color }

// Done reports whether the node observed a conflict-free neighborhood.
// Stable: neighbors' redraws exclude this node's color, so once true it
// stays true.
func (v *Node) Done() bool { return v.quiet }

// Round implements msgpass.Protocol.
func (v *Node) Round(round int, inbox map[int32]any) any {
	if round == 0 {
		// Nothing observed yet; announce the initial color.
		return v.color
	}
	for i := range v.taken {
		v.taken[i] = false
	}
	conflict := false
	for _, m := range inbox {
		c, ok := m.(int32)
		if !ok {
			continue
		}
		if int(c) <= v.delta {
			v.taken[c] = true
		}
		if c == v.color {
			conflict = true
		}
	}
	if !conflict {
		v.quiet = true
		return v.color // keep the last word visible to late repairers
	}
	if v.rng.Intn(2) == 0 {
		// Lazy round: keep the conflicted color, try again next round.
		return v.color
	}
	// Redraw uniformly from the free colors. With ≤ Δ neighbors at
	// least one of the Δ+1 palette entries is free.
	free := 0
	for _, t := range v.taken {
		if !t {
			free++
		}
	}
	k := v.rng.Intn(free)
	for c, t := range v.taken {
		if t {
			continue
		}
		if k == 0 {
			v.color = int32(c)
			break
		}
		k--
	}
	return v.color
}

// Nodes builds one node per vertex holding initial[i], with
// deterministic per-node streams.
func Nodes(delta int, initial []int32, seed int64) ([]*Node, []msgpass.Protocol) {
	nodes := make([]*Node, len(initial))
	protos := make([]msgpass.Protocol, len(initial))
	for i := range nodes {
		nodes[i] = New(delta, initial[i], rng.Derive(seed, uint32(i)))
		protos[i] = nodes[i]
	}
	return nodes, protos
}

// Fix repairs initial over g in at most maxRounds rounds and returns
// the run summary plus the repaired coloring. The palette is
// {0..Δ(g)}; initial colors outside it are clamped into range (a
// clamped color just counts as one more conflict to fix).
func Fix(g *graph.Graph, initial []int32, seed int64, maxRounds int) (*msgpass.Result, []int32, error) {
	if len(initial) != g.N() {
		return nil, nil, fmt.Errorf("cds: %d initial colors for %d nodes", len(initial), g.N())
	}
	delta := g.MaxDegree()
	clamped := make([]int32, len(initial))
	for i, c := range initial {
		if c < 0 || int(c) > delta {
			c = 0
		}
		clamped[i] = c
	}
	nodes, protos := Nodes(delta, clamped, seed)
	res, err := msgpass.Run(g, protos, maxRounds)
	if err != nil {
		return nil, nil, err
	}
	colors := make([]int32, len(nodes))
	for i, v := range nodes {
		colors[i] = v.Color()
	}
	return res, colors, nil
}
