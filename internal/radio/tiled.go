package radio

import (
	"sync"
	"sync/atomic"

	"radiocolor/internal/obs"
)

// The tiled slot kernel. The untiled loop (engine.go) streams four
// global phases over all n nodes per slot — Send, resolve, deliver,
// decide — so at 1M+ nodes every phase re-walks a working set far
// beyond cache and the kernel goes memory-bound. The tiled loop
// partitions node ids into contiguous blocks ("tiles", ~32k nodes) and
// makes two tile-major sweeps instead:
//
//	sweep 1, per tile: Send every awake node of the tile, then resolve
//	  each transmitter's intra-tile neighbors against the tile's own
//	  receive accumulators; neighbors outside the tile are bucketed as
//	  (receiver, sender) pairs into a per-(source,destination) exchange
//	  bucket instead of touching remote accumulators.
//	sweep 2, per tile: fold the tile's incoming exchange buckets (the
//	  boundary exchange — only cross-tile edges enter this merge), then
//	  deliver to the tile's touched listeners and run decision
//	  detection over the tile's undecided segment.
//
// After a locality-preserving relabeling (internal/graph HilbertOrder /
// StripOrder / BFSOrder) almost all edges are intra-tile, so one tile's
// slot work — its protocols, accumulators and list segments, a couple
// of MB — stays cache-resident across fused phases instead of being
// streamed four times. Because every accumulator merge is order-free
// (counts add, the winning sender is a min) and the fault coins are
// pure functions of (seed, slot, link), the tiled loop is bit-identical
// to the untiled engine at any tile and worker count; the tiled
// differential suite pins this. Tiles are independent, so under
// Workers > 1 both sweeps distribute tiles over goroutines with a
// barrier between the sweeps (a non-nil Observer keeps both sweeps
// sequential, exactly like the untiled deliver phase).
//
// The second ingredient is the Quiescent seam: the synthetic bench
// protocol and many real ones permanently fall silent once they have
// decided, and a long asynchronous deployment therefore spends most
// Send calls ticking nodes that can never transmit again. A protocol
// that declares this lets the tiled engine drop it from the Send sweep
// entirely (deliveries to it are still resolved and counted, so every
// Result field is unchanged).

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

// Quiescent is an optional Protocol extension: a protocol whose
// Quiescent() returns true declares that it has permanently fallen
// silent — every future Send would return nil and its future behavior
// does not depend on further receptions. The tiled engine consults it
// once, in the slot the node's Done() first reports true, and then
// drops the node from the Send sweep and skips its Recv calls; channel
// statistics are unaffected (the node keeps resolving and counting as
// a listener), so results stay bit-identical to an engine that keeps
// ticking the node — which is exactly what the untiled engine does,
// and what the tiled differential suite checks. Fault-injected runs
// ignore the seam (a restart must be able to revive any node).
type Quiescent interface {
	Quiescent() bool
}

// crossRef is one cross-tile reception candidate produced by sweep 1:
// sender from (in the source tile) reaches receiver to (in the
// destination tile). Folded into the destination's accumulators during
// sweep 2's boundary exchange.
type crossRef struct {
	to, from int32
}

// tileTally is one tile's share of the order-free per-slot counters.
type tileTally struct {
	deliverTally
	decisions int64
	silenced  int64
	maxBits   int
}

// tileState is the tiled kernel's standing scratch. All per-tile
// slices are high-water reused ([:0] truncation), so the steady state
// allocates nothing.
type tileState struct {
	tiles int
	size  int32 // nodes per tile; tile of node v is v/size

	// rowLo/rowHi split node v's sorted CSR row edges[offsets[v]:
	// offsets[v+1]] into the cross-below, intra-tile and cross-above
	// spans: [rowLo, rowHi) are v's neighbors inside v's own tile.
	rowLo, rowHi []int32

	// interior[v] marks nodes whose whole neighborhood lives in v's own
	// tile. No boundary-exchange bucket can ever target them, so their
	// receive state is final at the end of their tile's first sweep and
	// (on untraced runs) they are delivered to and decision-polled right
	// there, while the tile's accumulators and protocol state are still
	// cache-hot. After a locality relabeling almost every node is
	// interior, leaving sweep 2 only the tile-boundary ring.
	interior []bool

	// cross[s*tiles+d] is the boundary-exchange bucket from source tile
	// s to destination tile d; only cross-tile edges enter it.
	cross [][]crossRef

	// Per-tile sweep outputs: this slot's transmitters and touched
	// listeners, and the counter tallies folded after sweep 2.
	txs     [][]int32
	touched [][]int32
	tallies []tileTally

	// Per-slot segment bounds of the shared activity lists: tile k owns
	// awakeList[aSeg[k]:aSeg[k+1]], pending[pSeg[k]:pSeg[k+1]] and
	// undecided[uSeg[k]:uSeg[k+1]]. uLen1[k] is the segment length
	// surviving sweep 1's interior decision pass, uLen[k] the final
	// length after sweep 2's boundary pass, used by the sequential
	// squash that re-compacts the list.
	aSeg, pSeg, uSeg []int
	uLen1, uLen      []int
}

// newTileState precomputes the partition for a run: tile bounds and
// the per-node intra-tile row spans. Row bounds come as the engine's
// rowStart/rowEnd view (aliasing either the static offsets array or
// the dynamic CSR's headers); under churn, refreshRows re-derives the
// spans of rows a delta changed.
func newTileState(tiles, n int, rowStart, rowEnd, edges []int32) *tileState {
	size := (n + tiles - 1) / tiles
	tiles = (n + size - 1) / size // drop empty trailing tiles
	ts := &tileState{
		tiles:    tiles,
		size:     int32(size),
		rowLo:    make([]int32, n),
		rowHi:    make([]int32, n),
		interior: make([]bool, n),
		cross:    make([][]crossRef, tiles*tiles),
		txs:      make([][]int32, tiles),
		touched:  make([][]int32, tiles),
		tallies:  make([]tileTally, tiles),
		aSeg:     make([]int, tiles+1),
		pSeg:     make([]int, tiles+1),
		uSeg:     make([]int, tiles+1),
		uLen1:    make([]int, tiles),
		uLen:     make([]int, tiles),
	}
	for v := 0; v < n; v++ {
		lo, hi := rowStart[v], rowEnd[v]
		tile := int32(v) / ts.size
		start, end := tile*ts.size, (tile+1)*ts.size
		ts.rowLo[v] = lowerBound32(edges, lo, hi, start)
		ts.rowHi[v] = lowerBound32(edges, ts.rowLo[v], hi, end)
		ts.interior[v] = ts.rowLo[v] == lo && ts.rowHi[v] == hi
	}
	return ts
}

// refreshRows re-derives the intra-tile spans and interior flags of
// the given rows after a churn delta changed them. Runs in the slot
// prologue, single-threaded, before any tile sweep reads the spans.
// An added cross-tile edge can demote an interior node to the boundary
// ring, and a removed one promote it back; both directions are exact
// recomputation, so tiled and untiled churned runs stay bit-identical.
func (ts *tileState) refreshRows(rows []int32, rowStart, rowEnd, edges []int32) {
	for _, v := range rows {
		lo, hi := rowStart[v], rowEnd[v]
		tile := v / ts.size
		start, end := tile*ts.size, (tile+1)*ts.size
		ts.rowLo[v] = lowerBound32(edges, lo, hi, start)
		ts.rowHi[v] = lowerBound32(edges, ts.rowLo[v], hi, end)
		ts.interior[v] = ts.rowLo[v] == lo && ts.rowHi[v] == hi
	}
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

// stepTiled is the tiled counterpart of Step. Phase structure, seam
// calls and termination logic mirror the untiled loop exactly; only
// the iteration order (tile-major, fused phases) differs, and every
// reordered accumulation is order-free.
func (e *Engine) stepTiled() bool {
	t := e.slot
	ob := e.cfg.Observer
	met := e.cfg.Metrics
	ts := e.ts

	e.wakePhase(t, ob, met)

	// The sweeps walk per-tile segments of the sorted lists, so pending
	// must be sorted every slot it is non-empty. Re-sorting the whole
	// list each slot dominated long wake ramps; instead the sorted
	// prefix length is tracked and only this slot's appended block (one
	// ascending wake run, plus any restart rejoins) is sorted and
	// merged in — O(|pending|) per slot. The list is folded into
	// awakeList under the untiled engine's heuristic, every slot on a
	// traced run (ascending OnTransmit order), or when quiescence
	// compaction rewrites the lists anyway.
	if len(e.pending) > 0 {
		if e.pendingSorted < len(e.pending) {
			suffix := e.pending[e.pendingSorted:]
			if !ascending32(suffix) {
				sortInt32s(suffix)
			}
			if e.pendingSorted > 0 {
				e.pendScratch = append(e.pendScratch[:0], suffix...)
				e.pending = mergeSorted(e.pending[:e.pendingSorted], e.pendScratch)
			}
			e.pendingSorted = len(e.pending)
		}
		if ob != nil || len(e.pending) >= 256 && len(e.pending)*8 >= len(e.awakeList) {
			e.awakeList = mergeSorted(e.awakeList, e.pending)
			e.pending = e.pending[:0]
			e.pendingSorted = 0
		}
	}
	// Quiescence compaction: once a quarter of the awake list is
	// permanently silent, rewrite it without those nodes (silent nodes
	// are never in pending — they quiesced after waking). Amortized
	// O(1) per silenced node; the silent flags stay set (the nodes
	// remain valid listeners for the resolve phase).
	if e.silentCount > 0 && e.silentCount*4 >= len(e.awakeList)+len(e.pending) {
		sil := e.silent
		w := 0
		for _, i := range e.awakeList {
			if !sil[i] {
				e.awakeList[w] = i
				w++
			}
		}
		e.awakeList = e.awakeList[:w]
		e.silentCount = 0
	}

	ts.segment(e.awakeList, ts.aSeg)
	ts.segment(e.pending, ts.pSeg)
	ts.segment(e.undecided, ts.uSeg)

	// Sweep 1: Send + intra-tile resolve + boundary bucketing.
	workers := e.cfg.Workers
	if ob != nil {
		// A traced run keeps both sweeps sequential so event streams
		// stay ordered, exactly like the untiled deliver phase.
		workers = 1
	}
	if workers <= 1 || ts.tiles == 1 {
		for k := 0; k < ts.tiles; k++ {
			e.tileSendResolve(k, t)
		}
	} else {
		e.parallelTiles(workers, t, (*Engine).tileSendResolve)
	}

	// Counter-side transmission bookkeeping (PerNodeTx, message-size
	// max) happened inside sweep 1 on tile-owned state; only the
	// per-event seams need this sequential pass (ascending on the
	// traced path, where pending is always empty).
	if ob != nil || met != nil {
		for k := 0; k < ts.tiles; k++ {
			for _, v := range ts.txs[k] {
				if ob != nil {
					ob.OnTransmit(t, NodeID(v), e.out[v])
				}
				if met != nil {
					met.AddTransmission()
				}
			}
		}
	}

	// Sweep 2: boundary exchange + deliver + decide.
	if workers <= 1 || ts.tiles == 1 {
		for k := 0; k < ts.tiles; k++ {
			e.tileDeliverDecide(k, t)
		}
	} else {
		e.parallelTiles(workers, t, (*Engine).tileDeliverDecide)
	}

	// Fold the per-tile tallies in tile order (sums are order-free).
	for k := 0; k < ts.tiles; k++ {
		tl := &ts.tallies[k]
		e.res.Transmissions += int64(len(ts.txs[k]))
		if tl.maxBits > e.res.MaxMessageBits {
			e.res.MaxMessageBits = tl.maxBits
		}
		tl.deliverTally.addTo(&e.res)
		e.numDone += int(tl.decisions)
		e.silentCount += int(tl.silenced)
		*tl = tileTally{}
	}

	// Squash the per-tile undecided survivors back into one compact
	// list. Tile k's survivors sit at [uSeg[k], uSeg[k]+uLen[k]); the
	// forward copy is safe because the write cursor never passes a
	// tile's own segment start.
	w := ts.uLen[0]
	for k := 1; k < ts.tiles; k++ {
		w += copy(e.undecided[w:], e.undecided[ts.uSeg[k]:ts.uSeg[k]+ts.uLen[k]])
	}
	e.undecided = e.undecided[:w]

	// Transmitter cleanup, identical to the untiled loop. Runs after
	// both sweeps because a remote tile's deliver reads e.out[from]
	// across the tile boundary.
	for k := 0; k < ts.tiles; k++ {
		for _, v := range ts.txs[k] {
			e.out[v] = nil
			e.rs[v].count = 0
		}
	}

	return e.finishSlot(t, ob, met)
}

// parallelTiles runs fn over every tile on the given number of
// goroutines with dynamic (work-stealing) tile assignment: tiles near
// the wake ramp's frontier carry most of the load, so static ranges
// would straggle. Safe because fn only touches tile-owned state.
func (e *Engine) parallelTiles(workers int, t int64, fn func(*Engine, int, int64)) {
	tiles := e.ts.tiles
	if workers > tiles {
		workers = tiles
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
// resolve each transmitter's intra-tile neighbors against the tile's
// own accumulators, and bucket cross-tile neighbors for sweep 2. It
// writes only tile-k-owned state (the tile's protocols and outboxes,
// rs entries of tile-k nodes, the k-th tx/touched lists and the k-th
// bucket row), so tiles are safe to run concurrently.
func (e *Engine) tileSendResolve(k int, t int64) {
	ts := e.ts
	protos := e.cfg.Protocols
	off := e.off
	sil := e.silent

	tl := &ts.tallies[k]
	nEst := e.cfg.NEstimate
	perNodeTx := e.res.PerNodeTx
	txs := ts.txs[k][:0]
	lists := [2][]int32{
		e.awakeList[ts.aSeg[k]:ts.aSeg[k+1]],
		e.pending[ts.pSeg[k]:ts.pSeg[k+1]],
	}
	for _, ids := range lists {
		for _, i := range ids {
			if off != nil && off[i] {
				continue
			}
			if sil != nil && sil[i] {
				continue // permanently silent (Quiescent): Send would return nil
			}
			if msg := protos[i].Send(t); msg != nil {
				e.out[i] = msg
				e.rs[i].count = txMarker
				txs = append(txs, i)
				// Counter bookkeeping, fused here on tile-owned state;
				// the count sum and max fold after sweep 2, and the
				// OnTransmit/metrics seams run in a sequential pass.
				perNodeTx[i]++
				if bits := msg.Bits(nEst); bits > tl.maxBits {
					tl.maxBits = bits
				}
			}
		}
	}
	ts.txs[k] = txs

	touched := ts.touched[k]
	size := ts.size
	tiles := ts.tiles
	for _, v := range txs {
		lo, hi := e.rowStart[v], e.rowEnd[v]
		rlo, rhi := ts.rowLo[v], ts.rowHi[v]
		for _, u := range e.edges[rlo:rhi] {
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
		for _, u := range e.edges[lo:rlo] {
			d := int(u / size)
			ts.cross[k*tiles+d] = append(ts.cross[k*tiles+d], crossRef{to: u, from: v})
		}
		for _, u := range e.edges[rhi:hi] {
			d := int(u / size)
			ts.cross[k*tiles+d] = append(ts.cross[k*tiles+d], crossRef{to: u, from: v})
		}
	}

	// Interior fusion (untraced runs only, to preserve event order for
	// observers): an interior listener's accumulator can never be
	// reached by a boundary bucket, so its receive state is already
	// final — deliver it and poll its decision now, while the tile's
	// accumulators and protocol state are cache-hot from the resolve
	// loop, instead of re-streaming them in sweep 2. Every touched
	// state (rs, protos, sil, decided, DecideSlot, the tile's tally and
	// undecided segment) is tile-owned, so the pass is safe under
	// Workers > 1. Boundary listeners and non-interior undecided nodes
	// are deferred to sweep 2 untouched.
	if e.cfg.Observer == nil {
		met := e.cfg.Metrics
		interior := ts.interior
		w := 0
		for _, u := range touched {
			if interior[u] {
				e.deliverOne(t, u, &tl.deliverTally, nil, met, sil, protos)
			} else {
				touched[w] = u
				w++
			}
		}
		touched = touched[:w]

		lo, hi := ts.uSeg[k], ts.uSeg[k+1]
		wr := lo
		for _, i := range e.undecided[lo:hi] {
			if interior[i] && (off == nil || !off[i]) && protos[i].Done() {
				e.decided[i] = true
				tl.decisions++
				e.res.DecideSlot[i] = t
				if met != nil {
					met.AddDecision()
				}
				if sil != nil {
					if q, ok := protos[i].(Quiescent); ok && q.Quiescent() {
						sil[i] = true
						tl.silenced++
					}
				}
			} else {
				e.undecided[wr] = i
				wr++
			}
		}
		ts.uLen1[k] = wr - lo
	} else {
		ts.uLen1[k] = ts.uSeg[k+1] - ts.uSeg[k]
	}
	ts.touched[k] = touched
}

// tileDeliverDecide is sweep 2 for tile k: fold the incoming boundary
// buckets (ascending source tile, though any order would merge to the
// same state — counts add, senders min), deliver to the tile's touched
// listeners, and run decision detection over the tile's undecided
// segment. Again only tile-k-owned state is written.
func (e *Engine) tileDeliverDecide(k int, t int64) {
	ts := e.ts
	tl := &ts.tallies[k]
	ob := e.cfg.Observer // non-nil only on the sequential path
	met := e.cfg.Metrics
	protos := e.cfg.Protocols
	tiles := ts.tiles
	touched := ts.touched[k]

	// Boundary exchange: only cross-tile edges enter this merge.
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

	// Deliver: the exactly-one rule with fault suppression, exactly as
	// in the untiled deliver phase. On untraced runs sweep 1 already
	// delivered the tile's interior listeners, so this walks only the
	// boundary ring plus bucket-fold touches.
	sil := e.silent
	for _, u := range touched {
		e.deliverOne(t, u, &tl.deliverTally, ob, met, sil, protos)
	}
	ts.touched[k] = touched[:0]

	// Decide over the tile's remaining undecided segment, compacting
	// survivors in place; the sequential squash in stepTiled stitches
	// the segments. When sweep 1 ran the fused interior pass, interior
	// survivors are carried through without a second Done poll (a
	// protocol must see exactly one poll per slot, like untiled).
	off := e.off
	fused := ob == nil
	interior := ts.interior
	lo := ts.uSeg[k]
	hi := lo + ts.uLen1[k]
	w := lo
	for _, i := range e.undecided[lo:hi] {
		if fused && interior[i] {
			e.undecided[w] = i
			w++
			continue
		}
		if (off == nil || !off[i]) && protos[i].Done() {
			e.decided[i] = true
			tl.decisions++
			e.res.DecideSlot[i] = t
			if ob != nil {
				ob.OnDecide(t, NodeID(i))
			}
			if met != nil {
				met.AddDecision()
			}
			if sil != nil {
				if q, ok := protos[i].(Quiescent); ok && q.Quiescent() {
					sil[i] = true
					tl.silenced++
				}
			}
		} else {
			e.undecided[w] = i
			w++
		}
	}
	ts.uLen[k] = w - lo
}

// deliverOne finishes one touched listener for slot t: read-and-clear
// its accumulator, apply the model's reception rule — the listener
// decodes iff exactly one neighbor transmitted, and no capture — with
// fault suppression, and hand a successful delivery to the protocol.
// It is the built-in rule's only statement, shared by the untiled
// sequential and parallel deliver phases and by both tiled sweeps; ob
// is nil on the parallel and fused-interior callers (both run
// untraced).
func (e *Engine) deliverOne(t int64, u int32, tl *deliverTally, ob Observer, met *obs.Metrics, sil []bool, protos []Protocol) {
	r := &e.rs[u]
	count, from := r.count, r.from
	r.count = 0
	if count >= 2 {
		tl.collisions++
		if ob != nil {
			ob.OnCollision(t, NodeID(u), int(count))
		}
		if met != nil {
			met.AddCollision()
		}
		return
	}
	if e.fs != nil && e.faultSuppressed(t, from, u, &tl.jammed, &tl.lost, met) {
		return
	}
	tl.deliveries++
	msg := e.out[from]
	if ob != nil {
		ob.OnDeliver(t, NodeID(u), msg)
	}
	if met != nil {
		met.AddDelivery()
	}
	if sil == nil || !sil[u] {
		// A quiescent node's behavior no longer depends on
		// receptions, so the Recv call is skipped; the delivery
		// itself is counted above exactly as untiled.
		protos[u].Recv(t, msg)
	}
}
