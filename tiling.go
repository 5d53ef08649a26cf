package radiocolor

import (
	"slices"

	"radiocolor/internal/graph"
	"radiocolor/internal/radio"
)

// Support for Options.Tiling: the relabeling pass that makes the tiled
// kernel's contiguous-range tiles spatially coherent, and the adapters
// that map engine slots back to the caller's node ids before anyone
// sees an event or an Outcome field. Nodes keep their caller labels as
// identities (colorGraph), so only where a node is stored changes. The
// permutation-differential suite in internal/radio pins the underlying
// identity: a tiled run on the relabeled graph, mapped back through the
// inverse permutation, is byte-identical to an untiled run of the same
// execution.

// tilingPermutation picks the locality order for a tiled run: Hilbert
// curve when node positions are known (geometric entry points), BFS
// order on the bare graph otherwise.
func tilingPermutation(g *graph.Graph, xs, ys []float64) graph.Permutation {
	if xs != nil {
		return graph.HilbertOrder(xs, ys)
	}
	return graph.BFSOrder(g)
}

// invObserver maps the engine slot of every event back through a
// relabeling's inverse before handing it to the inner observer, so
// collectors, tracers and caller observers all speak original ids.
// Messages pass through untouched: a sender's wire id already is its
// caller label.
type invObserver struct {
	inner radio.Observer
	inv   []int32
}

func (o invObserver) node(v radio.NodeID) radio.NodeID { return radio.NodeID(o.inv[v]) }

func (o invObserver) OnSlot(slot int64)                 { o.inner.OnSlot(slot) }
func (o invObserver) OnWake(slot int64, v radio.NodeID) { o.inner.OnWake(slot, o.node(v)) }
func (o invObserver) OnTransmit(slot int64, from radio.NodeID, msg radio.Message) {
	o.inner.OnTransmit(slot, o.node(from), msg)
}
func (o invObserver) OnDeliver(slot int64, to radio.NodeID, msg radio.Message) {
	o.inner.OnDeliver(slot, o.node(to), msg)
}
func (o invObserver) OnCollision(slot int64, at radio.NodeID, transmitters int) {
	o.inner.OnCollision(slot, o.node(at), transmitters)
}
func (o invObserver) OnDecide(slot int64, v radio.NodeID) {
	o.inner.OnDecide(slot, o.node(v))
}

// mapTiledResult rewrites a relabeled run's Result into original node
// ids: per-node arrays gathered through Forward, the down and left
// lists mapped through Inverse (re-sorted ascending), scalar counters
// verbatim.
func mapTiledResult(res *radio.Result, p graph.Permutation) *radio.Result {
	n := len(p.Forward)
	mapped := *res
	mapped.WakeSlot = make([]int64, n)
	mapped.DecideSlot = make([]int64, n)
	mapped.PerNodeTx = make([]int64, n)
	for v := 0; v < n; v++ {
		mapped.WakeSlot[v] = res.WakeSlot[p.Forward[v]]
		mapped.DecideSlot[v] = res.DecideSlot[p.Forward[v]]
		mapped.PerNodeTx[v] = res.PerNodeTx[p.Forward[v]]
	}
	mapped.Down = mapIDs(res.Down, p.Inverse)
	mapped.Left = mapIDs(res.Left, p.Inverse)
	return &mapped
}

// mapIDs maps a list of node ids through m, sorted ascending.
func mapIDs(ids, m []int32) []int32 {
	if len(ids) == 0 {
		return ids
	}
	out := make([]int32, len(ids))
	for i, v := range ids {
		out[i] = m[v]
	}
	slices.Sort(out)
	return out
}
