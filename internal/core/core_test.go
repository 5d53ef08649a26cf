package core

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"radiocolor/internal/radio"
	"radiocolor/internal/rng"
)

func testParams() Params {
	return Params{
		Alpha: 3, Beta: 4, Gamma: 2, Sigma: 6,
		N: 64, Delta: 8, Kappa1: 4, Kappa2: 6,
	}
}

func TestParamsDerived(t *testing.T) {
	p := testParams()
	logN := math.Log2(64)
	if got := p.WaitSlots(); got != int64(math.Ceil(3*8*logN)) {
		t.Errorf("WaitSlots = %d", got)
	}
	if got := p.Threshold(); got != int64(math.Ceil(6*8*logN)) {
		t.Errorf("Threshold = %d", got)
	}
	if got := p.CriticalRange(0); got != int64(math.Ceil(2*logN)) {
		t.Errorf("CriticalRange(0) = %d", got)
	}
	if got := p.CriticalRange(3); got != int64(math.Ceil(2*8*logN)) {
		t.Errorf("CriticalRange(3) = %d", got)
	}
	if got := p.ServeSlots(); got != int64(math.Ceil(4*logN)) {
		t.Errorf("ServeSlots = %d", got)
	}
	if got := p.PSend(); got != 1.0/48 {
		t.Errorf("PSend = %v", got)
	}
	if got := p.PLeader(); got != 1.0/6 {
		t.Errorf("PLeader = %v", got)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{},
		{Alpha: 1, Beta: 1, Gamma: 1, Sigma: 1, N: 0, Delta: 2, Kappa1: 1, Kappa2: 2},
		{Alpha: 1, Beta: 1, Gamma: 1, Sigma: 1, N: 1, Delta: 1, Kappa1: 1, Kappa2: 2},
		{Alpha: 1, Beta: 1, Gamma: 1, Sigma: 1, N: 1, Delta: 2, Kappa1: 3, Kappa2: 2},
		{Alpha: 0, Beta: 1, Gamma: 1, Sigma: 1, N: 1, Delta: 2, Kappa1: 1, Kappa2: 2},
		{Alpha: 1, Beta: 1, Gamma: -1, Sigma: 1, N: 1, Delta: 2, Kappa1: 1, Kappa2: 2},
		// Non-finite constants: NaN slips past a "≤ 0" test.
		{Alpha: math.NaN(), Beta: 1, Gamma: 1, Sigma: 1, N: 1, Delta: 2, Kappa1: 1, Kappa2: 2},
		{Alpha: 1, Beta: math.Inf(1), Gamma: 1, Sigma: 1, N: 1, Delta: 2, Kappa1: 1, Kappa2: 2},
		// Finite constants whose derived counts overflow float64 or 2^62.
		{Alpha: 1, Beta: 1, Gamma: 1, Sigma: 1e308, N: 1, Delta: 2, Kappa1: 1, Kappa2: 2},
		{Alpha: 1, Beta: 1, Gamma: 1, Sigma: 2e18, N: 1, Delta: 2, Kappa1: 1, Kappa2: 2},
		{Alpha: 1, Beta: 1, Gamma: 1e17, Sigma: 1, N: 1 << 20, Delta: 1000, Kappa1: 1, Kappa2: 2},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d: expected error", i)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: NewNode accepted invalid params", i)
				}
			}()
			NewNode(0, radio.NodeRand(1, 0), p, Ablation{})
		}()
	}
	// The largest counts still in range are accepted.
	edge := Params{Alpha: 1, Beta: 1, Gamma: 1, Sigma: 1 << 58, N: 1, Delta: 2, Kappa1: 1, Kappa2: 2}
	if err := edge.Validate(); err != nil || edge.Threshold() != 1<<60 {
		t.Errorf("threshold 2^60: %v, %d", err, edge.Threshold())
	}
}

// TestDerivedMatchesParams pins the constants NewNode precomputes to the
// public Params methods they replace on the hot path.
func TestDerivedMatchesParams(t *testing.T) {
	for _, p := range []Params{testParams(), Practical(1000, 22, 5, 18).Scale(1.5), Theoretical(50, 7, 3, 9)} {
		k, err := p.derive()
		if err != nil {
			t.Fatal(err)
		}
		want := derived{
			waitSlots: p.WaitSlots(), threshold: p.Threshold(), serveSlots: p.ServeSlots(),
			crit: [2]int64{p.CriticalRange(0), p.CriticalRange(5)}, sendCoin: rng.CoinThreshold(p.PSend()), leaderCoin: rng.CoinThreshold(p.PLeader()),
		}
		if k != want {
			t.Errorf("%+v: derived %+v, want %+v", p, k, want)
		}
	}
}

func TestParamsScale(t *testing.T) {
	p := testParams().Scale(0.5)
	if p.Alpha != 1.5 || p.Beta != 2 || p.Gamma != 1 || p.Sigma != 3 {
		t.Errorf("Scale wrong: %+v", p)
	}
	if p.N != 64 || p.Delta != 8 {
		t.Error("Scale must not touch estimates")
	}
}

func TestTheoreticalConstants(t *testing.T) {
	// UDG values: κ₁ = 5, κ₂ = 18. The paper's formulas give γ ≈ 127 and
	// σ ≈ 1409 for large Δ.
	p := Theoretical(1000, 50, 5, 18)
	if p.Gamma < 100 || p.Gamma > 160 {
		t.Errorf("γ = %.1f, expected ≈ 127", p.Gamma)
	}
	if p.Sigma < 1300 || p.Sigma > 1500 {
		t.Errorf("σ = %.1f, expected ≈ 1409", p.Sigma)
	}
	if p.Beta < p.Gamma {
		t.Error("Lemma 8 requires β ≥ γ")
	}
	if p.Alpha <= 2*p.Gamma*float64(p.Kappa2)+p.Sigma+1 {
		t.Error("Lemma 7 requires α > 2γκ₂ + σ + 1")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Degenerate inputs are clamped, not crashed.
	q := Theoretical(10, 1, 0, 1)
	if err := q.Validate(); err != nil {
		t.Errorf("clamped Theoretical invalid: %v", err)
	}
}

func TestPracticalFarBelowTheoretical(t *testing.T) {
	th := Theoretical(500, 20, 5, 18)
	pr := Practical(500, 20, 5, 18)
	if pr.Gamma*5 > th.Gamma || pr.Sigma*10 > th.Sigma || pr.Alpha*100 > th.Alpha {
		t.Errorf("practical constants not ≪ theoretical: %+v vs %+v", pr, th)
	}
	if err := pr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if q := Practical(10, 1, 0, 0); q.Validate() != nil {
		t.Error("clamped Practical invalid")
	}
}

func TestMessageBits(t *testing.T) {
	// All message types must stay within O(log n): for n = 1024 the id
	// budget is 30 bits, so no message should exceed ~100 bits.
	n := 1024
	msgs := []radio.Message{
		&MsgA{From: 5, Class: 40, Counter: -12345},
		&MsgC{From: 5, Class: 40},
		&MsgAssign{From: 5, To: 9, TC: 30},
		&MsgR{From: 5, Leader: 9},
	}
	for _, m := range msgs {
		b := m.Bits(n)
		if b <= 0 || b > 120 {
			t.Errorf("%v: %d bits", m, b)
		}
		if m.Sender() != 5 {
			t.Errorf("%v: Sender = %d", m, m.Sender())
		}
	}
	// Bits grows logarithmically in n: quadrupling n adds O(1) bits.
	a := (&MsgA{From: 1, Class: 1, Counter: 100}).Bits(1 << 10)
	b := (&MsgA{From: 1, Class: 1, Counter: 100}).Bits(1 << 20)
	if b-a != 30 { // 3·log₂(n) id bits: 3·10 more
		t.Errorf("id scaling: %d → %d", a, b)
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}}
	for _, c := range cases {
		if got := bitsFor(c.v); got != c.want {
			t.Errorf("bitsFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestIntegerBitCounts pins the integer bit counts: bitsFor(v) is the
// least k with 2^k > v (at least 1), exact where the float formula
// ⌈log₂(v+1)⌉ under-counts from 2^49 on; idBits(n) is the least k with
// 2^k ≥ n³, equal to ⌈3·log₂ n⌉ for every n below 2^21 (where float
// rounding is still exact enough to serve as the reference).
func TestIntegerBitCounts(t *testing.T) {
	least := func(v uint64) int { // least k ≥ 1 with 2^k > v
		k := 1
		for k < 64 && uint64(1)<<k <= v {
			k++
		}
		return k
	}
	for k := 0; k < 63; k++ {
		for _, v := range []int64{1<<k - 1, 1 << k, 1<<k + 1} {
			if v < 0 {
				continue
			}
			if got, want := bitsFor(v), least(uint64(v)); got != want {
				t.Fatalf("bitsFor(%d) = %d, want %d", v, got, want)
			}
		}
	}
	if got := bitsFor(1 << 49); got != 50 {
		t.Errorf("bitsFor(2^49) = %d, want 50", got)
	}
	for n := 0; n < 1<<21; n++ {
		want := int(math.Ceil(3 * math.Log2(float64(max(n, 2)))))
		if got := idBits(n); got != want {
			t.Fatalf("idBits(%d) = %d, want %d", n, got, want)
		}
	}
	// Large n: 2^k ≥ n³ > 2^(k−1), checked exactly in 128 bits via
	// big-enough powers of two around the cube.
	for _, n := range []int{1<<21 + 1, 1 << 25, 3_000_000_000 / 2, math.MaxInt32} {
		k := idBits(n)
		cube := new(big.Int).Exp(big.NewInt(int64(n)), big.NewInt(3), nil)
		lo, hi := new(big.Int).Lsh(big.NewInt(1), uint(k-1)), new(big.Int).Lsh(big.NewInt(1), uint(k))
		if cube.Cmp(hi) > 0 || cube.Cmp(lo) <= 0 {
			t.Errorf("idBits(%d) = %d: 2^%d does not bound n³ tightly", n, k, k)
		}
	}
}

func TestMessageStrings(t *testing.T) {
	for _, s := range []string{
		(&MsgA{From: 1, Class: 2, Counter: 3}).String(),
		(&MsgC{From: 1, Class: 2}).String(),
		(&MsgAssign{From: 1, To: 2, TC: 3}).String(),
		(&MsgR{From: 1, Leader: 2}).String(),
	} {
		if s == "" {
			t.Error("empty message string")
		}
	}
}

func TestPhaseString(t *testing.T) {
	for p := PhaseAsleep; p <= PhaseColored; p++ {
		if p.String() == "" {
			t.Errorf("phase %d has empty string", p)
		}
	}
	if Phase(99).String() == "" {
		t.Error("unknown phase must still print")
	}
}

// newTestNode builds a node with a fixed stream for white-box tests.
func newTestNode(id radio.NodeID) *Node {
	return NewNode(id, radio.NodeRand(1, id), testParams(), Ablation{})
}

func TestChiAvoidsCriticalRanges(t *testing.T) {
	v := newTestNode(0)
	v.Start(0)
	v.s.class[v.i] = 2
	r := v.s.par.CriticalRange(2)
	// Competitors at counters 0, −3, 100 (all observed at slot 10,
	// queried at slot 10 → d = base).
	v.s.list[v.i] = []competitor{
		{id: 1, base: 0, at: 10},
		{id: 2, base: -3, at: 10},
		{id: 3, base: 100, at: 10},
	}
	x := v.s.chi(10, v.i)
	if x > 0 {
		t.Fatalf("χ = %d > 0", x)
	}
	for _, c := range v.s.list[v.i] {
		d := c.base
		if x >= d-r && x <= d+r {
			t.Fatalf("χ = %d inside critical range of d = %d (r = %d)", x, d, r)
		}
	}
	// With no competitors, χ = 0 (the maximum allowed value).
	v.s.list[v.i] = v.s.list[v.i][:0]
	if got := v.s.chi(10, v.i); got != 0 {
		t.Errorf("χ with empty P_v = %d, want 0", got)
	}
}

func TestChiAccountsForElapsedSlots(t *testing.T) {
	v := newTestNode(0)
	v.Start(0)
	v.s.class[v.i] = 0
	r := v.s.par.CriticalRange(0)
	// A competitor reported counter 5 at slot 0; by slot 40 its local
	// copy is 45.
	v.s.list[v.i] = []competitor{{id: 1, base: 5, at: 0}}
	x := v.s.chi(40, v.i)
	d := int64(45)
	if x >= d-r && x <= d+r {
		t.Fatalf("χ = %d inside range of aged copy d = %d", x, d)
	}
	// 0 is below the aged interval, so χ should be exactly 0.
	if d-r > 0 && x != 0 {
		t.Errorf("χ = %d, want 0 (interval fully positive)", x)
	}
}

// Property: χ is never inside any competitor's critical range and never
// positive, for arbitrary competitor configurations.
func TestQuickChiProperty(t *testing.T) {
	f := func(bases []int16, slotOff uint8) bool {
		v := newTestNode(0)
		v.Start(0)
		v.s.class[v.i] = 1
		slot := int64(slotOff)
		v.s.list[v.i] = v.s.list[v.i][:0]
		for i, b := range bases {
			if i >= 12 {
				break
			}
			v.s.list[v.i] = append(v.s.list[v.i], competitor{id: radio.NodeID(i + 1), base: int64(b), at: 0})
		}
		r := v.s.par.CriticalRange(1)
		x := v.s.chi(slot, v.i)
		if x > 0 {
			return false
		}
		for _, c := range v.s.list[v.i] {
			d := c.base + slot
			if x >= d-r && x <= d+r {
				return false
			}
		}
		// Maximality: x is either 0 or sits exactly one below some
		// interval's lower edge.
		if x != 0 {
			edge := false
			for _, c := range v.s.list[v.i] {
				if x == c.base+slot-r-1 {
					edge = true
				}
			}
			if !edge {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNodeInitialState(t *testing.T) {
	v := newTestNode(7)
	if v.Phase() != PhaseAsleep || v.Done() || v.Color() != -1 || v.TC() != -1 {
		t.Errorf("fresh node state wrong: %v %v %v %v", v.Phase(), v.Done(), v.Color(), v.TC())
	}
	v.Start(5)
	if v.Phase() != PhaseWaiting || v.Class() != 0 {
		t.Errorf("after Start: phase=%v class=%d", v.Phase(), v.Class())
	}
}

func TestNewNodePanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewNode(0, radio.NodeRand(1, 0), Params{}, Ablation{})
}

func TestNodeWaitingIsSilent(t *testing.T) {
	v := newTestNode(0)
	v.Start(0)
	w := v.s.par.WaitSlots()
	for s := int64(0); s < w-1; s++ {
		if msg := v.Send(s); msg != nil {
			t.Fatalf("waiting node transmitted at slot %d", s)
		}
	}
	if v.Phase() != PhaseWaiting {
		t.Fatalf("left waiting phase too early")
	}
	v.Send(w - 1)
	if v.Phase() != PhaseActive {
		t.Fatal("waiting phase did not end after ⌈αΔ log n⌉ slots")
	}
}

func TestLoneNodeBecomesLeader(t *testing.T) {
	v := newTestNode(0)
	v.Start(0)
	want := v.s.par.WaitSlots() + v.s.par.Threshold()
	var slot int64
	for slot = 0; slot < want+10; slot++ {
		v.Send(slot)
		if v.Done() {
			break
		}
	}
	if !v.Done() || !v.IsLeader() {
		t.Fatalf("lone node: done=%v color=%d", v.Done(), v.Color())
	}
	// Decision slot: wait W slots, then counter rises from 0 to the
	// threshold, one increment per slot.
	if slot != want-1 {
		t.Errorf("decided at slot %d, want %d", slot, want-1)
	}
}

func TestCoveredNodeMovesToRequest(t *testing.T) {
	v := newTestNode(0)
	v.Start(0)
	v.Send(0)
	v.Recv(0, &MsgC{From: 9, Class: 0})
	if v.Phase() != PhaseRequest || v.Leader() != 9 {
		t.Fatalf("phase=%v leader=%d", v.Phase(), v.Leader())
	}
	// In R the node transmits M_R eventually.
	sawRequest := false
	for s := int64(1); s < 5000 && !sawRequest; s++ {
		if msg := v.Send(s); msg != nil {
			r, ok := msg.(*MsgR)
			if !ok {
				t.Fatalf("unexpected message %v in R", msg)
			}
			if r.Leader != 9 || r.From != 0 {
				t.Fatalf("bad request %v", r)
			}
			sawRequest = true
		}
	}
	if !sawRequest {
		t.Fatal("requesting node never transmitted")
	}
	// Assignment addressed elsewhere is ignored…
	v.Recv(10, &MsgAssign{From: 9, To: 5, TC: 1})
	if v.Phase() != PhaseRequest {
		t.Fatal("moved on foreign assignment")
	}
	// …from a different leader too…
	v.Recv(11, &MsgAssign{From: 8, To: 0, TC: 2})
	if v.Phase() != PhaseRequest {
		t.Fatal("moved on assignment from foreign leader")
	}
	// …but the addressed one advances to A_{tc(κ₂+1)}.
	v.Recv(12, &MsgAssign{From: 9, To: 0, TC: 3})
	if v.Phase() != PhaseWaiting || v.TC() != 3 {
		t.Fatalf("phase=%v tc=%d", v.Phase(), v.TC())
	}
	wantClass := int32(3 * (6 + 1))
	if v.Class() != wantClass {
		t.Errorf("class = %d, want %d", v.Class(), wantClass)
	}
}

func TestHigherClassCoverageAdvances(t *testing.T) {
	v := newTestNode(0)
	v.Start(0)
	v.s.class[v.i] = 5
	v.s.phase[v.i] = PhaseActive
	v.Recv(0, &MsgC{From: 2, Class: 4}) // wrong class: ignored
	if v.Class() != 5 || v.Phase() != PhaseActive {
		t.Fatal("reacted to foreign class")
	}
	v.Recv(0, &MsgC{From: 2, Class: 5})
	if v.Class() != 6 || v.Phase() != PhaseWaiting {
		t.Fatalf("class=%d phase=%v, want 6 waiting", v.Class(), v.Phase())
	}
	if v.ClassMoves() != 1 {
		t.Errorf("ClassMoves = %d", v.ClassMoves())
	}
}

func TestCriticalRangeReset(t *testing.T) {
	v := newTestNode(0)
	v.Start(0)
	v.s.phase[v.i] = PhaseActive
	v.s.class[v.i] = 0
	v.s.counter[v.i] = 100
	r := v.s.par.CriticalRange(0)
	// Far counter: no reset.
	v.Recv(0, &MsgA{From: 1, Class: 0, Counter: 100 + r + 1})
	if v.s.counter[v.i] != 100 || v.Resets() != 0 {
		t.Fatalf("far counter reset us: counter=%d", v.s.counter[v.i])
	}
	// Within range: reset to χ ≤ 0.
	v.Recv(1, &MsgA{From: 2, Class: 0, Counter: 100 + r})
	if v.s.counter[v.i] > 0 || v.Resets() != 1 {
		t.Fatalf("no reset: counter=%d resets=%d", v.s.counter[v.i], v.Resets())
	}
	// Wrong class: ignored entirely.
	before := v.s.counter[v.i]
	v.Recv(2, &MsgA{From: 3, Class: 7, Counter: before})
	if v.s.counter[v.i] != before || len(v.s.list[v.i]) != 3 {
		// comp has senders 1, 2 (class 0); sender 3 must not appear.
		for _, c := range v.s.list[v.i] {
			if c.id == 3 {
				t.Fatal("foreign-class competitor recorded")
			}
		}
	}
}

func TestNaiveResetAblation(t *testing.T) {
	v := NewNode(0, radio.NodeRand(1, 0), testParams(), Ablation{NaiveReset: true})
	v.Start(0)
	v.s.phase[v.i] = PhaseActive
	v.s.counter[v.i] = 50
	v.Recv(0, &MsgA{From: 1, Class: 0, Counter: 60})
	if v.s.counter[v.i] != 0 {
		t.Errorf("naive reset → 0, got %d", v.s.counter[v.i])
	}
	v.s.counter[v.i] = 50
	v.Recv(1, &MsgA{From: 1, Class: 0, Counter: 40})
	if v.s.counter[v.i] != 50 {
		t.Errorf("naive scheme must ignore smaller counters, got %d", v.s.counter[v.i])
	}
}

func TestNoCompetitorListAblation(t *testing.T) {
	v := NewNode(0, radio.NodeRand(1, 0), testParams(), Ablation{NoCompetitorList: true})
	v.Start(0)
	v.s.phase[v.i] = PhaseActive
	v.s.class[v.i] = 0
	v.s.counter[v.i] = 10
	v.Recv(0, &MsgA{From: 1, Class: 0, Counter: 12})
	if v.s.counter[v.i] != 0 {
		t.Errorf("ablated χ must be 0, got %d", v.s.counter[v.i])
	}
}

func TestLeaderQueueService(t *testing.T) {
	v := newTestNode(0)
	v.Start(0)
	v.s.class[v.i] = 0
	v.s.becomeColored(0, v.i)
	if !v.IsLeader() || v.Color() != 0 {
		t.Fatal("becomeColored(0) broken")
	}
	// Request from node 5 addressed to us: queued once.
	v.Recv(0, &MsgR{From: 5, Leader: 0})
	v.Recv(1, &MsgR{From: 5, Leader: 0})
	v.Recv(2, &MsgR{From: 6, Leader: 0})
	v.Recv(3, &MsgR{From: 7, Leader: 3}) // foreign leader: ignored
	if len(v.s.list[v.i]) != 2 {
		t.Fatalf("queue = %v", v.s.list[v.i])
	}
	// Drive the service loop; we must observe assignments tc=1 to node 5
	// then tc=2 to node 6, each within a serve window.
	assigns := make(map[radio.NodeID]int32)
	serve := v.s.par.ServeSlots()
	for s := int64(0); s < 40*serve; s++ {
		if msg := v.s.coloredSend(s, v.i); msg != nil {
			if a, ok := msg.(*MsgAssign); ok {
				if prev, seen := assigns[a.To]; seen && prev != a.TC {
					t.Fatalf("node %d assigned twice: %d then %d", a.To, prev, a.TC)
				}
				assigns[a.To] = a.TC
			}
		}
		if len(v.s.list[v.i]) == 0 && v.s.serve[v.i].left == 0 {
			break
		}
	}
	if assigns[5] != 1 || assigns[6] != 2 {
		t.Fatalf("assignments = %v, want 5→1, 6→2", assigns)
	}
	// Re-request after service: re-queued with a fresh tc (faithful to
	// the pseudocode).
	v.Recv(100, &MsgR{From: 5, Leader: 0})
	if len(v.s.list[v.i]) != 1 {
		t.Fatal("served node not re-queued on re-request")
	}
}

func TestLeaderBeaconsWhenIdle(t *testing.T) {
	v := newTestNode(0)
	v.Start(0)
	v.s.class[v.i] = 0
	v.s.becomeColored(0, v.i)
	saw := false
	for s := 0; s < 200 && !saw; s++ {
		if msg := v.s.coloredSend(int64(s), v.i); msg != nil {
			c, ok := msg.(*MsgC)
			if !ok || c.Class != 0 {
				t.Fatalf("idle leader sent %v", msg)
			}
			saw = true
		}
	}
	if !saw {
		t.Fatal("idle leader never beaconed")
	}
}

func TestColoredNonLeaderAnnounces(t *testing.T) {
	v := newTestNode(0)
	v.Start(0)
	v.s.class[v.i] = 9
	v.s.becomeColored(0, v.i)
	if v.Color() != 9 || v.IsLeader() {
		t.Fatal("becomeColored(9) broken")
	}
	saw := false
	for s := int64(0); s < 5000 && !saw; s++ {
		if msg := v.Send(s); msg != nil {
			c, ok := msg.(*MsgC)
			if !ok || c.Class != 9 {
				t.Fatalf("colored node sent %v", msg)
			}
			saw = true
		}
	}
	if !saw {
		t.Fatal("colored node never announced")
	}
}

func TestNodesBuilder(t *testing.T) {
	nodes, protos := Nodes(5, 42, testParams(), Ablation{})
	if len(nodes) != 5 || len(protos) != 5 {
		t.Fatal("wrong lengths")
	}
	for i := range nodes {
		if protos[i] != radio.Protocol(nodes[i]) {
			t.Fatal("protocol slice mismatched")
		}
	}
}

// TestFact1 numerically validates the paper's Fact 1, which every
// probability bound in Sect. 5 leans on:
//
//	e^t (1 − t²/n) ≤ (1 + t/n)^n ≤ e^t   for n ≥ 1, |t| ≤ n.
func TestFact1(t *testing.T) {
	f := func(nRaw uint16, tRaw int16) bool {
		n := float64(nRaw%1000) + 1
		tv := float64(tRaw) / 32768 * n // |t| ≤ n
		mid := math.Pow(1+tv/n, n)
		hi := math.Exp(tv)
		lo := math.Exp(tv) * (1 - tv*tv/n)
		const eps = 1e-9
		return lo <= mid*(1+eps)+eps && mid <= hi*(1+eps)+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLeaderAssignmentMemory(t *testing.T) {
	// Faithful pseudocode: re-request after removal gets a FRESH tc.
	// Memory ablation: the original tc is re-served.
	for _, memory := range []bool{false, true} {
		v := NewNode(0, radio.NodeRand(1, 0), testParams(), Ablation{LeaderAssignmentMemory: memory})
		v.Start(0)
		v.s.class[v.i] = 0
		v.s.becomeColored(0, v.i)
		serve := func(w radio.NodeID) int32 {
			v.Recv(0, &MsgR{From: w, Leader: 0})
			var tc int32 = -1
			for s := int64(0); s < 50*v.s.par.ServeSlots(); s++ {
				if msg := v.s.coloredSend(s, v.i); msg != nil {
					if a, ok := msg.(*MsgAssign); ok && a.To == w {
						tc = a.TC
					}
				}
				if len(v.s.list[v.i]) == 0 && v.s.serve[v.i].left == 0 {
					break
				}
			}
			if tc < 0 {
				t.Fatalf("memory=%v: node %d never served", memory, w)
			}
			return tc
		}
		first := serve(5)
		serve(6) // interleave another node
		second := serve(5)
		if memory && second != first {
			t.Errorf("memory variant reassigned %d → %d", first, second)
		}
		if !memory && second == first {
			t.Errorf("faithful variant reused tc %d", first)
		}
	}
}

func TestLeaderAssignmentMemoryEndToEnd(t *testing.T) {
	// Under heavy loss (drops force re-requests), the memory variant
	// still produces a correct coloring (exercised via the ids path in
	// the integration tests; here the point is it does not regress).
	par := testParams()
	v := NewNode(0, radio.NodeRand(2, 0), par, Ablation{LeaderAssignmentMemory: true})
	v.Start(0)
	v.s.class[v.i] = 0
	v.s.becomeColored(0, v.i)
	if v.s.assigned[v.i] == nil {
		t.Fatal("assignment memory not initialized")
	}
}
