package core

import "radiocolor/internal/radio"

// Sect. 2 of the paper: "In some papers on wireless sensor networks, it
// is argued that sensor nodes do not feature any kind of unique
// identification … In such a case, each node can randomly choose an ID
// uniformly from the range [1..n³] upon waking up. The probability that
// two nodes in the system end up having the same ID is bounded by
// P_ambIDs ≤ C(n,2)·1/n³ ∈ O(1/n)."
//
// NodesWithRandomIDs implements that scheme: every node draws its wire
// identifier uniformly from [1..idSpace] instead of using its engine
// index. The algorithm performs no arithmetic on identifiers — they only
// let receivers tell senders apart — so it runs unchanged; with
// probability O(1/n) two nodes collide and correctness may silently
// degrade, exactly as the paper computes. Experiment E14 measures the
// empirical failure rate against the analytical bound.

// RandomIDSpace returns the paper's n³ identifier space, clamped to the
// int32 range of radio.NodeID.
func RandomIDSpace(n int) int64 {
	s := int64(n) * int64(n) * int64(n)
	if s < 8 {
		s = 8
	}
	const maxID = int64(1)<<31 - 1
	if s > maxID {
		s = maxID
	}
	return s
}

// NodesWithRandomIDs builds one Node per vertex like Nodes, but each
// node draws its wire identifier uniformly from [1..idSpace]. It returns
// the nodes, the protocol slice, and the drawn identifiers (for
// collision diagnosis by experiments; the nodes themselves never learn
// whether they collided).
func NodesWithRandomIDs(n int, masterSeed int64, par Params, abl Ablation, idSpace int64) ([]*Node, []radio.Protocol, []radio.NodeID) {
	if idSpace < 1 {
		idSpace = RandomIDSpace(n)
	}
	ids := make([]radio.NodeID, n)
	rnd := make([]radio.Rand, n)
	for i := range ids {
		rnd[i] = radio.NodeRand(masterSeed, radio.NodeID(i))
		// Draw the ID from the node's own stream, as the paper's nodes
		// would upon waking up.
		ids[i] = radio.NodeID(rnd[i].Int63n(idSpace) + 1)
	}
	nodes, protos := newFlat(ids, rnd, par, abl).handles()
	return nodes, protos, append([]radio.NodeID(nil), ids...)
}

// CountIDCollisions returns how many nodes share their identifier with
// at least one other node.
func CountIDCollisions(ids []radio.NodeID) int {
	count := make(map[radio.NodeID]int, len(ids))
	for _, id := range ids {
		count[id]++
	}
	colliding := 0
	for _, c := range count {
		if c > 1 {
			colliding += c
		}
	}
	return colliding
}
