package core

import (
	"fmt"
	"math"
	"math/bits"

	"radiocolor/internal/radio"
)

// The four message types of Sect. 4. Payload sizes are accounted
// honestly against the model's O(log n) bits budget: identifiers cost
// ⌈3 log₂ n⌉ bits (IDs are drawn from [1..n³] when nodes lack built-in
// identity), counters cost ⌈log₂(range)⌉+1 bits, and class/color fields
// cost ⌈log₂((Δ+1)(κ₂+1))⌉ bits.

// bitsFor returns the number of bits needed to express non-negative
// values up to v: the bit length of v, and at least 1.
func bitsFor(v int64) int {
	if v <= 1 {
		return 1
	}
	return bits.Len64(uint64(v))
}

// idBits is the identifier cost for network-size estimate n: the least
// k with 2^k ≥ n³, the bit length of n³−1 computed in 128 bits. n is
// clamped to [2, 2^31−1], the range of radio.NodeID.
func idBits(n int) int {
	u := uint64(min(max(n, 2), math.MaxInt32))
	hi, lo := bits.Mul64(u*u, u)
	if lo == 0 {
		hi--
	}
	lo--
	if hi == 0 {
		return bits.Len64(lo)
	}
	return 64 + bits.Len64(hi)
}

// MsgA is M_A^i(v, c_v): a node competing in state A_i reports its
// counter (Algorithm 1, line 22).
type MsgA struct {
	From    radio.NodeID
	Class   int32
	Counter int64
}

// Sender implements radio.Message.
func (m *MsgA) Sender() radio.NodeID { return m.From }

// Bits implements radio.Message: sender id + class + signed counter.
func (m *MsgA) Bits(n int) int {
	c := m.Counter
	if c < 0 {
		c = -c
	}
	return idBits(n) + bitsFor(int64(m.Class)) + bitsFor(c) + 1
}

// String implements fmt.Stringer.
func (m *MsgA) String() string {
	return fmt.Sprintf("M_A^%d(%d, c=%d)", m.Class, m.From, m.Counter)
}

// MsgC is M_C^i(v): a colored node announces its membership in C_i
// (Algorithm 3, line 4, and the leader beacon of line 14 with Class 0).
type MsgC struct {
	From  radio.NodeID
	Class int32
}

// Sender implements radio.Message.
func (m *MsgC) Sender() radio.NodeID { return m.From }

// Bits implements radio.Message.
func (m *MsgC) Bits(n int) int {
	return idBits(n) + bitsFor(int64(m.Class))
}

// String implements fmt.Stringer.
func (m *MsgC) String() string { return fmt.Sprintf("M_C^%d(%d)", m.Class, m.From) }

// MsgAssign is M_C⁰(v, w, tc): leader v assigns intra-cluster color tc
// to node w (Algorithm 3, line 19). It is simultaneously an M_C⁰
// announcement — any A₀ node overhearing it learns a leader is nearby.
type MsgAssign struct {
	From radio.NodeID
	To   radio.NodeID
	TC   int32
}

// Sender implements radio.Message.
func (m *MsgAssign) Sender() radio.NodeID { return m.From }

// Bits implements radio.Message.
func (m *MsgAssign) Bits(n int) int {
	return 2*idBits(n) + bitsFor(int64(m.TC))
}

// String implements fmt.Stringer.
func (m *MsgAssign) String() string {
	return fmt.Sprintf("M_C^0(%d, %d, tc=%d)", m.From, m.To, m.TC)
}

// MsgR is M_R(v, L(v)): node v requests an intra-cluster color from its
// leader (Algorithm 2, line 2).
type MsgR struct {
	From   radio.NodeID
	Leader radio.NodeID
}

// Sender implements radio.Message.
func (m *MsgR) Sender() radio.NodeID { return m.From }

// Bits implements radio.Message.
func (m *MsgR) Bits(n int) int { return 2 * idBits(n) }

// String implements fmt.Stringer.
func (m *MsgR) String() string { return fmt.Sprintf("M_R(%d → %d)", m.From, m.Leader) }
