package radio

import (
	"context"
	"errors"
	"fmt"
)

// Non-aligned slot boundaries. Sect. 2 of the paper: "all analytical
// results carry over to the practical non-aligned case with an
// additional small constant factor, since each time slot can overlap
// with at most two time-slots of a neighbor [29]". This engine makes
// that claim testable: every node's local clock is shifted by half a
// slot (offset 0 or 1 half-slots), transmissions occupy two consecutive
// half-slots, receivers listen continuously while not transmitting, and
// a message is received iff no other audible transmission overlaps its
// two half-slots and the receiver transmits in neither.
//
// Protocols run unchanged. Experiment E17 measures the claimed
// small-constant slowdown and the preservation of correctness.

// RunUnaligned executes cfg under half-slot clock offsets. offsets[i] ∈
// {0, 1} is node i's clock shift in half-slots; nil derives a
// deterministic pseudo-random assignment from the node index. The
// parallel Workers option is ignored (the unaligned resolver is
// sequential).
func RunUnaligned(cfg Config, offsets []int8) (*Result, error) {
	return RunUnalignedContext(context.Background(), cfg, offsets)
}

// RunUnalignedContext is RunUnaligned with cancellation, polled every
// 1024 slots like RunContext. This engine is also the home of the
// fault layer's clock-skew profiles: a Config.Faults injector with
// skew supplies the offsets (pass nil to use them), and its loss,
// jam, and crash faults apply here exactly as in the aligned kernel.
func RunUnalignedContext(ctx context.Context, cfg Config, offsets []int8) (*Result, error) {
	if cfg.Medium != nil {
		// The half-slot resolver models overlap between offset slots; a
		// pluggable medium has no notion of half-slots, so the
		// combination is rejected rather than silently ignored.
		return nil, errors.New("radio: RunUnaligned does not support a pluggable medium")
	}
	// The half-slot resolver below is its own sequential loop; the tiled
	// slot kernel does not apply, so drop the knob rather than build
	// unused tile state.
	cfg.Tiles = 0
	e, err := newEngine(cfg, true) // reuse validation and result bookkeeping
	if err != nil {
		return nil, err
	}
	n := e.n
	if offsets == nil && cfg.Faults != nil && cfg.Faults.HasSkew() {
		offsets = cfg.Faults.SkewOffsets(n)
	}
	if offsets == nil {
		offsets = make([]int8, n)
		for i := range offsets {
			r := NodeRand(0x0FF5E7, NodeID(i))
			offsets[i] = int8(r.Intn(2))
		}
	}
	if len(offsets) != n {
		return nil, fmt.Errorf("radio: %d offsets for %d nodes", len(offsets), n)
	}
	for i, off := range offsets {
		if off != 0 && off != 1 {
			return nil, fmt.Errorf("radio: node %d has offset %d, want 0 or 1", i, off)
		}
	}
	u := &unaligned{e: e, offsets: offsets}
	u.init()
	done := ctx.Done()
	for u.step() {
		if done != nil && e.slot&cancelCheckMask == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
	}
	return e.Result(), nil
}

// txRec is one in-flight transmission: initiated by "node", occupying
// half-slots h0 and h0+1.
type txRec struct {
	node NodeID
	msg  Message
	h0   int64
}

type unaligned struct {
	e       *Engine
	offsets []int8

	// occ[u][h&7] counts transmitting neighbors of u in half-slot h;
	// selfTx[u][h&7] marks u transmitting in h. Ring of 8 half-slots (a half is cleared 2–3 slots before it is resolved, so 4 would alias).
	occ    [][8]int16
	selfTx [][8]bool

	// prev holds the transmissions initiated in the previous slot, cur
	// this slot's; the two buffers swap every slot.
	prev, cur []txRec

	// collAt[w] is 1 + the last slot a collision was counted at w, so a
	// listener that several overlapping transmissions reach counts one
	// collision per slot, as Result.Collisions documents.
	collAt []int64
}

func (u *unaligned) init() {
	n := u.e.n
	u.occ = make([][8]int16, n)
	u.selfTx = make([][8]bool, n)
	u.collAt = make([]int64, n)
}

// clearHalf zeroes ring entries for half-slot h across all nodes.
func (u *unaligned) clearHalf(h int64) {
	idx := h & 7
	for i := range u.occ {
		u.occ[i][idx] = 0
		u.selfTx[i][idx] = false
	}
}

func (u *unaligned) step() bool {
	e := u.e
	t := e.slot
	ob := e.cfg.Observer
	met := e.cfg.Metrics

	// Fault events first, then wake-ups, shared with the aligned
	// kernel. Crashed nodes clear e.awake, which the resolve sweep
	// consults, and sit in the off filter the Send calls skip.
	e.wakePhase(t, ob, met)
	// A traced run keeps OnTransmit (and so OnDeliver) in ascending
	// order; untraced, the order of the two lists is immaterial,
	// because each listener hears at most one transmission per slot.
	e.flushPending(ob != nil)

	// This slot's transmissions touch half-slots 2t .. 2t+2. Halves
	// 2t+1 and 2t+2 are first touched now; zero their ring entries.
	u.clearHalf(2*t + 1)
	u.clearHalf(2*t + 2)

	// Send phase.
	e.tx, e.dec = e.b.Send(t, e.awakeList, e.skip, e.out, e.tx, e.dec)
	e.tx, e.dec = e.b.Send(t, e.pending, e.skip, e.out, e.tx, e.dec)
	cur := u.cur[:0]
	for _, i := range e.tx {
		msg := e.out[i]
		e.out[i] = nil
		h0 := 2*t + int64(u.offsets[i])
		cur = append(cur, txRec{node: NodeID(i), msg: msg, h0: h0})
		e.noteTx(t, i, msg, ob, met)
		for _, h := range [2]int64{h0, h0 + 1} {
			u.selfTx[i][h&7] = true
			for _, w := range e.edges[e.rowStart[i]:e.rowEnd[i]] {
				u.occ[w][h&7]++
			}
		}
	}
	e.tx = e.tx[:0]

	// Resolve the previous slot's transmissions: their half-slots
	// (2(t−1) .. 2t) are now finalized.
	for _, tx := range u.prev {
		v := int(tx.node)
		for _, w := range e.edges[e.rowStart[v]:e.rowEnd[v]] {
			if !e.awake[w] {
				continue
			}
			blocked := false
			overlap := int16(0) // peak audible transmitters in one half
			for _, h := range [2]int64{tx.h0, tx.h0 + 1} {
				idx := h & 7
				if u.selfTx[w][idx] {
					blocked = true
				}
				if c := u.occ[w][idx]; c > 1 {
					blocked = true
					overlap = max(overlap, c)
				}
			}
			if blocked {
				if overlap > 0 && u.collAt[w] != t+1 {
					u.collAt[w] = t + 1
					e.res.Collisions++
					if ob != nil {
						ob.OnCollision(t, NodeID(w), int(overlap))
					}
					if met != nil {
						met.AddCollision()
					}
				}
				continue
			}
			if e.fs != nil && e.faultSuppressed(t, int32(v), w, &e.res.Jammed, &e.res.Lost, met) {
				continue
			}
			e.res.Deliveries++
			if ob != nil {
				ob.OnDeliver(t, NodeID(w), tx.msg)
			}
			if met != nil {
				met.AddDelivery()
			}
			e.b.Recv(t, w, tx.msg)
		}
	}
	u.prev, u.cur = cur, u.prev

	e.dec = e.b.Settle(e.off, e.dec)
	decisions, _ := e.decide(t, e.dec, ob, met)
	e.numDone += int(decisions)
	e.dec = e.dec[:0]
	return e.finishSlot(t, ob, met)
}
