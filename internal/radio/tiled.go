package radio

import (
	"sync"
	"sync/atomic"
)

// The tile-major slot loop. Streaming four global phases over all n
// nodes per slot — Send, resolve, deliver, decide — re-walks a working
// set far beyond cache at 1M+ nodes and goes memory-bound. Step instead
// partitions node ids into contiguous blocks ("tiles", ~32k nodes) and
// makes two tile-major sweeps:
//
//	sweep 1, per tile: Send every awake node of the tile (one batch call
//	  per list segment), then resolve each transmitter's intra-tile
//	  neighbors against the tile's own receive accumulators; neighbors
//	  outside the tile are bucketed as (receiver, sender) pairs into a
//	  per-(source,destination) exchange bucket instead of touching
//	  remote accumulators.
//	sweep 2, per tile: fold the tile's incoming exchange buckets (the
//	  boundary exchange — only cross-tile edges enter this merge), then
//	  deliver to the tile's touched listeners.
//
// After a locality-preserving relabeling (internal/graph HilbertOrder /
// StripOrder / BFSOrder) almost all edges are intra-tile, so one tile's
// slot work — its protocols, accumulators and list segments, a couple
// of MB — stays cache-resident across fused phases instead of being
// streamed four times. Because every accumulator merge is order-free
// (counts add, the winning sender is a min) and the fault coins are
// pure functions of (seed, slot, link), the result is bit-identical at
// any tile and worker count; the tiled differential suite pins this.
// Tiles are independent, so under Workers > 1 both sweeps distribute
// tiles over goroutines with a barrier between the sweeps (a non-nil
// Observer keeps both sweeps sequential).
//
// An untiled run is one tile: its row spans alias the CSR row bounds,
// and it has no interior flags and no exchange buckets. A medium or
// the half-slot rule resolves a slot over all transmitters at once, so
// under either the tiles only run sweep 1's Send and need no row
// spans either.

// maxTiles bounds the tile count: the boundary exchange keeps a
// tiles×tiles bucket matrix of slice headers, so the cap keeps that
// matrix (24 MiB at 1024²) from dwarfing the state it organizes.
const maxTiles = 1024

// tileNodes is the tile size AutoTiles aims for: big enough that a
// tile's protocols and accumulators amortize the two-sweep overhead,
// small enough (~2 MB of per-tile state) to stay cache-resident.
const tileNodes = 32 << 10

// AutoTiles returns the tile count Config.Tiles < 0 selects for an
// n-node run: one tile per tileNodes nodes, clamped to [1, maxTiles].
func AutoTiles(n int) int {
	t := n / tileNodes
	if t < 1 {
		t = 1
	}
	if t > maxTiles {
		t = maxTiles
	}
	return t
}

// crossRef is one cross-tile reception candidate produced by sweep 1:
// sender from (in the source tile) reaches receiver to (in the
// destination tile). Folded into the destination's accumulators during
// sweep 2's boundary exchange.
type crossRef struct {
	to, from int32
}

// tile is one tile's per-slot scratch: its sweep outputs (this slot's
// transmitters, touched listeners and reported decisions) and its share
// of the order-free counters, folded after sweep 2. The slices are
// high-water reused ([:0] truncation), so the steady state allocates
// nothing.
type tile struct {
	tx, touched, dec []int32
	deliverTally
	maxBits int
}

// tileState is the tile partition of a run and its standing scratch.
type tileState struct {
	tiles int
	size  int32 // nodes per tile; tile of node v is v/size
	t     []tile

	// rowLo/rowHi split node v's sorted CSR row edges[rowStart[v]:
	// rowEnd[v]] into the cross-below, intra-tile and cross-above spans:
	// [rowLo, rowHi) are v's neighbors inside v's own tile. With one
	// tile, or when tiles do not resolve, they alias rowStart/rowEnd.
	rowLo, rowHi []int32

	// interior[v] marks nodes whose whole neighborhood lives in v's own
	// tile. No boundary-exchange bucket can ever target them, so their
	// receive state is final at the end of their tile's first sweep and
	// (on untraced runs) they are delivered to right there, while the
	// tile's accumulators and protocol state are still cache-hot. After
	// a locality relabeling almost every node is interior, leaving
	// sweep 2 only the tile-boundary ring. nil when rowLo/rowHi alias
	// the row bounds.
	interior []bool

	// cross[s*tiles+d] is the boundary-exchange bucket from source tile
	// s to destination tile d; only cross-tile edges enter it. nil
	// together with interior.
	cross [][]crossRef

	// Per-slot segment bounds of the shared activity lists: tile k owns
	// awakeList[aSeg[k]:aSeg[k+1]] and pending[pSeg[k]:pSeg[k+1]].
	aSeg, pSeg []int
}

// newTileState partitions n nodes into at most tiles contiguous tiles
// (clamped to [1, min(n, maxTiles)]). When the tiles resolve their own
// edges (split) and there is more than one, it also precomputes the
// per-node intra-tile row spans. Row bounds come as the engine's
// rowStart/rowEnd view (aliasing either the static offsets array or the
// dynamic CSR's headers); under churn, refreshRows re-derives the spans
// of rows a delta changed.
func newTileState(tiles, n int, rowStart, rowEnd, edges []int32, split bool) *tileState {
	tiles = max(min(tiles, n, maxTiles), 1)
	size := max((n+tiles-1)/tiles, 1)
	tiles = max((n+size-1)/size, 1) // drop empty trailing tiles
	ts := &tileState{
		tiles: tiles,
		size:  int32(size),
		t:     make([]tile, tiles),
		rowLo: rowStart,
		rowHi: rowEnd,
		aSeg:  make([]int, tiles+1),
		pSeg:  make([]int, tiles+1),
	}
	if tiles == 1 || !split {
		return ts
	}
	ts.rowLo = make([]int32, n)
	ts.rowHi = make([]int32, n)
	ts.interior = make([]bool, n)
	ts.cross = make([][]crossRef, tiles*tiles)
	for v := int32(0); v < int32(n); v++ {
		ts.splitRow(v, rowStart, rowEnd, edges)
	}
	return ts
}

// refreshRows re-derives the intra-tile spans and interior flags of
// the given rows after a churn delta changed them. Runs in the slot
// prologue, single-threaded, before any tile sweep reads the spans.
// An added cross-tile edge can demote an interior node to the boundary
// ring, and a removed one promote it back; both directions are exact
// recomputation, so churned runs stay bit-identical at any tile count.
// Aliased spans need no work.
func (ts *tileState) refreshRows(rows []int32, rowStart, rowEnd, edges []int32) {
	if ts.interior == nil {
		return
	}
	for _, v := range rows {
		ts.splitRow(v, rowStart, rowEnd, edges)
	}
}

// splitRow derives node v's intra-tile span and interior flag.
func (ts *tileState) splitRow(v int32, rowStart, rowEnd, edges []int32) {
	lo, hi := rowStart[v], rowEnd[v]
	tile := v / ts.size
	start, end := tile*ts.size, (tile+1)*ts.size
	ts.rowLo[v] = lowerBound32(edges, lo, hi, start)
	ts.rowHi[v] = lowerBound32(edges, ts.rowLo[v], hi, end)
	ts.interior[v] = ts.rowLo[v] == lo && ts.rowHi[v] == hi
}

// lowerBound32 returns the first index in [lo, hi) whose edge value is
// ≥ bound (rows are sorted ascending).
func lowerBound32(edges []int32, lo, hi, bound int32) int32 {
	for lo < hi {
		mid := lo + (hi-lo)/2
		if edges[mid] < bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// segment fills seg with the tile boundaries of the ascending id list:
// seg[k] is the first index whose id belongs to tile ≥ k.
func (ts *tileState) segment(list []int32, seg []int) {
	pos := 0
	seg[0] = 0
	for k := 1; k < ts.tiles; k++ {
		bound := int32(k) * ts.size
		lo, hi := pos, len(list)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if list[mid] < bound {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		pos = lo
		seg[k] = pos
	}
	seg[ts.tiles] = len(list)
}

// sweep runs fn over every tile: in tile order on one goroutine when
// there is one tile, one worker or an Observer (traced event streams
// stay ordered), else on up to Workers goroutines with dynamic
// (work-stealing) tile assignment — tiles near the wake ramp's frontier
// carry most of the load, so static ranges would straggle. Safe because
// fn only touches tile-owned state.
func (e *Engine) sweep(t int64, fn func(*Engine, int, int64)) {
	tiles := e.ts.tiles
	workers := min(e.cfg.Workers, tiles)
	if workers <= 1 || e.cfg.Observer != nil {
		for k := 0; k < tiles; k++ {
			fn(e, k, t)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= tiles {
					return
				}
				fn(e, k, t)
			}
		}()
	}
	wg.Wait()
}

// tileSendResolve is sweep 1 for tile k: tick the tile's awake nodes,
// then (unless a medium or the half-slot rule resolves the slot)
// resolve each transmitter's intra-tile neighbors against the tile's
// own accumulators and bucket cross-tile neighbors for sweep 2. It
// writes only tile-k-owned state (the tile's protocols and outboxes,
// rs entries of tile-k nodes, the tile's lists and the k-th bucket
// row), so tiles are safe to run concurrently.
func (e *Engine) tileSendResolve(k int, t int64) {
	ts := e.ts
	tl := &ts.t[k]
	tx, dec := tl.tx[:0], tl.dec[:0]
	tx, dec = e.b.Send(t, e.awakeList[ts.aSeg[k]:ts.aSeg[k+1]], e.off, e.out, tx, dec)
	tx, dec = e.b.Send(t, e.pending[ts.pSeg[k]:ts.pSeg[k+1]], e.off, e.out, tx, dec)
	tl.tx, tl.dec = tx, dec
	// Counter bookkeeping on tile-owned state; the count sum and max
	// fold after sweep 2, and the OnTransmit/metrics seams run in a
	// sequential pass.
	nEst := e.cfg.NEstimate
	perNodeTx := e.res.PerNodeTx
	for _, i := range tx {
		e.rs[i].count = txMarker
		perNodeTx[i]++
		if bits := e.out[i].Bits(nEst); bits > tl.maxBits {
			tl.maxBits = bits
		}
	}
	if e.med != nil || e.hs != nil {
		return
	}

	touched := tl.touched
	rowLo, rowHi := ts.rowLo, ts.rowHi
	for _, v := range tx {
		for _, u := range e.edges[rowLo[v]:rowHi[v]] {
			r := &e.rs[u]
			if r.count == 0 {
				r.count = 1
				r.from = v
				touched = append(touched, u)
			} else if r.count > 0 {
				r.count++
				if v < r.from {
					r.from = v
				}
			}
			// count < 0: asleep, crashed, or transmitting — not a
			// listener; the entry is left untouched.
		}
	}
	if ts.cross == nil {
		tl.touched = touched
		return
	}
	size, tiles := ts.size, ts.tiles
	for _, v := range tx {
		for _, u := range e.edges[e.rowStart[v]:rowLo[v]] {
			d := int(u / size)
			ts.cross[k*tiles+d] = append(ts.cross[k*tiles+d], crossRef{to: u, from: v})
		}
		for _, u := range e.edges[rowHi[v]:e.rowEnd[v]] {
			d := int(u / size)
			ts.cross[k*tiles+d] = append(ts.cross[k*tiles+d], crossRef{to: u, from: v})
		}
	}

	// Interior fusion (untraced runs only, to preserve event order for
	// observers): an interior listener's accumulator can never be
	// reached by a boundary bucket, so its receive state is already
	// final — deliver it now, while the tile's accumulators and protocol
	// state are cache-hot from the resolve loop, instead of re-streaming
	// them in sweep 2. Every touched state is tile-owned, so the pass is
	// safe under Workers > 1. Boundary listeners are deferred to sweep 2
	// untouched.
	if e.cfg.Observer == nil {
		interior := ts.interior
		w := 0
		for _, u := range touched {
			if interior[u] {
				e.deliverOne(t, u, &tl.deliverTally, nil)
			} else {
				touched[w] = u
				w++
			}
		}
		touched = touched[:w]
	}
	tl.touched = touched
}

// tileDeliver is sweep 2 for tile k: fold the incoming boundary buckets
// (ascending source tile, though any order would merge to the same
// state — counts add, senders min) and deliver to the tile's touched
// listeners. Again only tile-k-owned state is written.
func (e *Engine) tileDeliver(k int, t int64) {
	ts := e.ts
	tl := &ts.t[k]
	touched := tl.touched
	if ts.cross != nil {
		tiles := ts.tiles
		for s := 0; s < tiles; s++ {
			bucket := ts.cross[s*tiles+k]
			if len(bucket) == 0 {
				continue
			}
			for _, c := range bucket {
				r := &e.rs[c.to]
				if r.count == 0 {
					r.count = 1
					r.from = c.from
					touched = append(touched, c.to)
				} else if r.count > 0 {
					r.count++
					if c.from < r.from {
						r.from = c.from
					}
				}
			}
			ts.cross[s*tiles+k] = bucket[:0]
		}
	}
	// On untraced multi-tile runs sweep 1 already delivered the tile's
	// interior listeners, so this walks only the boundary ring plus
	// bucket-fold touches.
	ob := e.cfg.Observer // non-nil only on the sequential path
	for _, u := range touched {
		e.deliverOne(t, u, &tl.deliverTally, ob)
	}
	tl.touched = touched[:0]
}

// deliverOne finishes one touched listener for slot t: read-and-clear
// its accumulator, apply the model's reception rule — the listener
// decodes iff exactly one neighbor transmitted, and no capture — with
// fault suppression, and hand a successful delivery to the protocol.
// It is the built-in rule's only statement, shared by both sweeps; ob
// is nil on the parallel and fused-interior callers (both run
// untraced).
func (e *Engine) deliverOne(t int64, u int32, tl *deliverTally, ob Observer) {
	r := &e.rs[u]
	count, from := r.count, r.from
	r.count = 0
	if count >= 2 {
		tl.collisions++
		if ob != nil {
			ob.OnCollision(t, NodeID(u), int(count))
		}
		return
	}
	if e.fs != nil && e.faultSuppressed(t, from, u, &tl.jammed, &tl.lost) {
		return
	}
	tl.deliveries++
	msg := e.out[from]
	if ob != nil {
		ob.OnDeliver(t, NodeID(u), msg)
	}
	e.b.Recv(t, u, msg)
}
