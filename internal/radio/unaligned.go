package radio

import (
	"context"
	"fmt"
)

// Non-aligned slot boundaries. Sect. 2 of the paper: "all analytical
// results carry over to the practical non-aligned case with an
// additional small constant factor, since each time slot can overlap
// with at most two time-slots of a neighbor [29]". The half-slot rule
// makes that claim testable: every node's local clock is shifted by
// half a slot (offset 0 or 1 half-slots), transmissions occupy two
// consecutive half-slots, receivers listen continuously while not
// transmitting, and a message is received iff no other audible
// transmission overlaps its two half-slots and the receiver transmits
// in neither. A slot's transmissions are therefore resolved one slot
// late, when all their half-slots are known.
//
// Protocols run unchanged. Experiment E17 measures the claimed
// small-constant slowdown and the preservation of correctness.

// RunUnaligned executes cfg under half-slot clock offsets. offsets[i] ∈
// {0, 1} is node i's clock shift in half-slots; nil takes the offsets
// of cfg's clock-skew fault profile, or without one derives a
// deterministic pseudo-random assignment from the node index. A run
// whose fault profile has clock skew goes through the same rule from
// Run, so RunUnaligned(cfg, nil) then equals Run(cfg).
func RunUnaligned(cfg Config, offsets []int8) (*Result, error) {
	if offsets == nil && !cfg.Faults.HasSkew() && cfg.G != nil {
		offsets = make([]int8, cfg.G.N())
		for i := range offsets {
			r := NodeRand(0x0FF5E7, NodeID(i))
			offsets[i] = int8(r.Intn(2))
		}
	}
	e, err := newEngine(cfg, offsets)
	if err != nil {
		return nil, err
	}
	return e.run(context.Background())
}

// txRec is one in-flight transmission: initiated by "node", occupying
// half-slots h0 and h0+1.
type txRec struct {
	node NodeID
	msg  Message
	h0   int64
}

// halfSlot is the half-slot rule's state.
type halfSlot struct {
	offsets []int8

	// occ[u][h&7] counts transmitting neighbors of u in half-slot h;
	// selfTx[u][h&7] marks u transmitting in h. Ring of 8 half-slots:
	// the entries of up to seven consecutive halves are live at once.
	occ    [][8]int16
	selfTx [][8]bool

	// cur holds the transmissions initiated this slot, prev the previous
	// slot's (resolved this slot) and done the slot before's, whose
	// entries are undone once prev is resolved; the buffers rotate
	// every slot.
	done, prev, cur []txRec

	// collAt[w] is 1 + the last slot a collision was counted at w, so a
	// listener that several overlapping transmissions reach counts one
	// collision per slot, as Result.Collisions documents.
	collAt []int64
}

// newHalfSlot validates the offsets for an n-node run.
func newHalfSlot(offsets []int8, n int) (*halfSlot, error) {
	if len(offsets) != n {
		return nil, fmt.Errorf("radio: %d offsets for %d nodes", len(offsets), n)
	}
	for i, off := range offsets {
		if off != 0 && off != 1 {
			return nil, fmt.Errorf("radio: node %d has offset %d, want 0 or 1", i, off)
		}
	}
	return &halfSlot{
		offsets: offsets,
		occ:     make([][8]int16, n),
		selfTx:  make([][8]bool, n),
		collAt:  make([]int64, n),
	}, nil
}

// book adds (sign +1) or undoes (sign −1) the ring entries of the
// transmission tx: its own two halves and its neighbors' occupancy.
func (e *Engine) book(tx txRec, sign int16) {
	hs := e.hs
	i := tx.node
	for _, h := range [2]int64{tx.h0, tx.h0 + 1} {
		hs.selfTx[i][h&7] = sign > 0
		for _, w := range e.edges[e.rowStart[i]:e.rowEnd[i]] {
			hs.occ[w][h&7] += sign
		}
	}
}

// halfSlotResolveDeliver is the resolve and deliver pass of a run with
// clock offsets: it books this slot's transmissions into the half-slot
// rings, then resolves the previous slot's, whose half-slots are now
// final. The messages stay valid for it through slot t+1, as the
// Protocol.Send contract promises.
func (e *Engine) halfSlotResolveDeliver(t int64, ob Observer) {
	hs := e.hs
	// This slot's transmissions touch half-slots 2t .. 2t+2. The ring
	// holds nothing stale there: what earlier slots booked at the same
	// indices (halves 2t−8 .. 2t−6) was undone two slots after them.
	cur := hs.cur[:0]
	for _, i := range e.tx {
		tx := txRec{node: NodeID(i), msg: e.out[i], h0: 2*t + int64(hs.offsets[i])}
		cur = append(cur, tx)
		e.book(tx, +1)
	}

	// Resolve the previous slot's transmissions: their half-slots
	// (2(t−1) .. 2t) are now finalized. Asleep and crashed listeners
	// hold asleepCount.
	for _, tx := range hs.prev {
		v := int(tx.node)
		for _, w := range e.edges[e.rowStart[v]:e.rowEnd[v]] {
			if e.rs[w].count == asleepCount {
				continue
			}
			blocked := false
			overlap := int16(0) // peak audible transmitters in one half
			for _, h := range [2]int64{tx.h0, tx.h0 + 1} {
				idx := h & 7
				if hs.selfTx[w][idx] {
					blocked = true
				}
				if c := hs.occ[w][idx]; c > 1 {
					blocked = true
					overlap = max(overlap, c)
				}
			}
			if blocked {
				if overlap > 0 && hs.collAt[w] != t+1 {
					hs.collAt[w] = t + 1
					e.res.Collisions++
					if ob != nil {
						ob.OnCollision(t, NodeID(w), int(overlap))
					}
				}
				continue
			}
			if e.fs != nil && e.faultSuppressed(t, int32(v), w, &e.res.Jammed, &e.res.Lost) {
				continue
			}
			e.res.Deliveries++
			if ob != nil {
				ob.OnDeliver(t, NodeID(w), tx.msg)
			}
			e.b.Recv(t, w, tx.msg)
		}
	}
	// Slot t−2's transmissions (done) span halves 2t−4 .. 2t−2; the
	// last of them was read for the last time just now, by an offset-0
	// transmission of slot t−1.
	for _, tx := range hs.done {
		e.book(tx, -1)
	}
	hs.done, hs.prev, hs.cur = hs.prev, cur, hs.done[:0]
}
