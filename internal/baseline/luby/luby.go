// Package luby implements the classic randomized (Δ+1)-coloring in the
// synchronous message-passing model — the family of algorithms the
// paper's related-work section attributes to the Linial reduction and
// Luby's MIS technique [16, 17]. Each round, every uncolored node draws
// a random candidate from its remaining palette and keeps it unless an
// uncolored neighbor drew the same candidate; colored neighbors
// permanently remove their colors from the palette. Expected round
// complexity is O(log n).
//
// It serves as the idealized-model comparator: identical task, but with
// a MAC layer, neighbor knowledge, and synchronous start for free — the
// exact assumptions the unstructured radio network model removes.
package luby

import (
	"sort"

	"radiocolor/internal/msgpass"
	"radiocolor/internal/rng"
)

// payload is a node's broadcast: its tentative or final color.
type payload struct {
	color int32
	final bool
}

// Node is one (Δ+1)-coloring participant. It implements
// msgpass.Protocol.
type Node struct {
	rng     rng.Rand
	palette []int32 // sorted remaining colors
	cand    int32
	color   int32
}

// New creates a node with palette {0..delta} (with Δ the paper-convention
// maximum degree, Δ+1 colors always suffice) and its own random stream.
func New(delta int, r rng.Rand) *Node {
	p := make([]int32, delta+1)
	for c := range p {
		p[c] = int32(c)
	}
	return &Node{rng: r, palette: p, cand: -1, color: -1}
}

// Color returns the decided color, or −1.
func (v *Node) Color() int32 { return v.color }

// Done implements msgpass.Protocol.
func (v *Node) Done() bool { return v.color >= 0 }

// removeFromPalette deletes c from the sorted palette if present.
func (v *Node) removeFromPalette(c int32) {
	i := sort.Search(len(v.palette), func(i int) bool { return v.palette[i] >= c })
	if i < len(v.palette) && v.palette[i] == c {
		v.palette = append(v.palette[:i], v.palette[i+1:]...)
	}
}

// Round implements msgpass.Protocol.
func (v *Node) Round(round int, inbox map[int32]any) any {
	// Process the previous round's candidates and finals. Inbox order
	// does not matter: we only derive a conflict flag and palette
	// deletions, both order-independent.
	conflict := false
	for _, m := range inbox {
		p, ok := m.(payload)
		if !ok {
			continue
		}
		if p.final {
			v.removeFromPalette(p.color)
			if v.cand == p.color {
				conflict = true
			}
		} else if v.cand >= 0 && p.color == v.cand {
			conflict = true
		}
	}
	if v.cand >= 0 && !conflict {
		// Candidate survived: finalize and announce once.
		v.color = v.cand
		return payload{color: v.color, final: true}
	}
	// Draw a fresh candidate uniformly from the remaining palette.
	v.cand = -1
	if len(v.palette) == 0 {
		// Cannot happen with a correct Δ: the palette has Δ+1 entries
		// and at most Δ−1 neighbors can erase one each. Guard anyway.
		return nil
	}
	v.cand = v.palette[v.rng.Intn(len(v.palette))]
	return payload{color: v.cand}
}

// Nodes builds one node per vertex with deterministic per-node streams.
func Nodes(n, delta int, seed int64) ([]*Node, []msgpass.Protocol) {
	nodes := make([]*Node, n)
	protos := make([]msgpass.Protocol, n)
	for i := range nodes {
		nodes[i] = New(delta, rng.Derive(seed, uint32(i)))
		protos[i] = nodes[i]
	}
	return nodes, protos
}
