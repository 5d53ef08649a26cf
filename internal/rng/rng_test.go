package rng

import (
	"math"
	"testing"
)

// SplitMix64 from state 0: the reference outputs of the published
// algorithm, so a change to the mixer constants or the step order fails
// here before it moves every stream in the simulator.
func TestKnownAnswers(t *testing.T) {
	var r Rand
	want := []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("draw %d = %#x, want %#x", i, got, w)
		}
	}
}

// Mix is the stateless form of one step: Mix(s) is the first draw of
// the generator at state s.
func TestMixIsOneStep(t *testing.T) {
	for _, s := range []uint64{0, 1, 42, math.MaxUint64} {
		r := Rand{s: s}
		if got, want := Mix(s), r.Uint64(); got != want {
			t.Errorf("Mix(%d) = %#x, first draw = %#x", s, got, want)
		}
	}
}

func TestReproducible(t *testing.T) {
	a, b := Derive(7, 3), Derive(7, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Derive(7, 3) diverged at draw %d", i)
		}
	}
	// A copy forks an identical stream.
	c := a
	for i := 0; i < 10; i++ {
		if a.Int63() != c.Int63() {
			t.Fatal("copied generator diverged")
		}
	}
}

func TestNodeRandStreamsDiffer(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for id := uint32(0); id < 64; id++ {
			a, b := Derive(seed, id), Derive(seed, id+1)
			same := 0
			for i := 0; i < 10; i++ {
				if a.Int63() == b.Int63() {
					same++
				}
			}
			if same > 0 {
				t.Fatalf("seed %d: streams %d and %d agree on %d of 10 draws", seed, id, id+1, same)
			}
		}
	}
	// Adjacent seeds give different streams for the same id.
	a, b := Derive(1, 0), Derive(2, 0)
	if a.Uint64() == b.Uint64() {
		t.Error("adjacent seeds start identically")
	}
}

// chiSquare returns Pearson's statistic of counts against a uniform
// expectation.
func chiSquare(counts []int, total int) float64 {
	exp := float64(total) / float64(len(counts))
	var x2 float64
	for _, c := range counts {
		d := float64(c) - exp
		x2 += d * d / exp
	}
	return x2
}

func TestFloat64UniformInUnitInterval(t *testing.T) {
	const bins, draws = 100, 200_000
	r := Derive(1, 0)
	counts := make([]int, bins)
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v outside [0, 1)", f)
		}
		counts[int(f*bins)]++
	}
	// 99 degrees of freedom: the 0.999 quantile is 148.2.
	if x2 := chiSquare(counts, draws); x2 > 148.2 {
		t.Errorf("chi-square %.1f over %d bins exceeds the 0.999 quantile", x2, bins)
	}
	// The extremes map inside the interval.
	if f := float64(uint64(math.MaxUint64)>>11) * 0x1p-53; f >= 1 {
		t.Errorf("largest draw maps to %v", f)
	}
}

func TestInt63nUnbiased(t *testing.T) {
	// Small non-power-of-two n: every residue equally likely.
	for _, n := range []int64{3, 7, 10} {
		const draws = 90_000
		r := Derive(2, uint32(n))
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			v := r.Int63n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d", n, v)
			}
			counts[v]++
		}
		// The 0.999 quantile for at most 9 degrees of freedom is 27.9.
		if x2 := chiSquare(counts, draws); x2 > 27.9 {
			t.Errorf("Int63n(%d): chi-square %.1f, counts %v", n, x2, counts)
		}
	}
	// n = 3·2^61: a plain Uint64() % n would put 3/4 of the mass in the
	// lowest third of the range (2^64 mod n = 2^62 values get an extra
	// preimage). The rejection step must keep each third at 1/3.
	const n = 3 << 61
	const draws = 60_000
	r := Derive(3, 0)
	var thirds [3]int
	for i := 0; i < draws; i++ {
		v := r.Int63n(n)
		if v < 0 || v >= n {
			t.Fatalf("Int63n(3<<61) = %d", v)
		}
		thirds[v/(1<<61)]++
	}
	// Two degrees of freedom: the 0.999 quantile is 13.8.
	if x2 := chiSquare(thirds[:], draws); x2 > 13.8 {
		t.Errorf("Int63n(3<<61) thirds %v: chi-square %.1f", thirds, x2)
	}
}

func TestIntnMatchesInt63n(t *testing.T) {
	a, b := Derive(4, 4), Derive(4, 4)
	for i := 0; i < 100; i++ {
		if x, y := a.Intn(1000), b.Int63n(1000); int64(x) != y {
			t.Fatalf("draw %d: Intn %d, Int63n %d", i, x, y)
		}
	}
}

func TestNonPositiveBoundPanics(t *testing.T) {
	for _, n := range []int64{0, -1, math.MinInt64} {
		r := Derive(1, 0)
		mustPanic(t, "Int63n", func() { r.Int63n(n) })
		if int64(int(n)) == n {
			mustPanic(t, "Intn", func() { r.Intn(int(n)) })
		}
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

// The integer coin is the float coin: Coin(CoinThreshold(p)) and
// Float64() < p agree on every draw. Pinned at the edge probabilities,
// at the protocol's real 1/(κ₂Δ) and 1/κ₂ values, on draws that land
// exactly on a threshold (and one step either side), and over 10^6
// random (p, draw) pairs.
func TestCoinMatchesFloat64(t *testing.T) {
	agree := func(p float64, m uint64) {
		t.Helper()
		// A state whose next draw's top 53 bits are m is hard to pick, so
		// compare the two decision rules on the draw value directly: the
		// Float64 of a draw is m·2^-53, and Coin compares m itself.
		f := float64(m) * 0x1p-53
		if got, want := m < CoinThreshold(p), f < p; got != want {
			t.Fatalf("p=%v m=%d: Coin %v, Float64() < p %v", p, m, got, want)
		}
	}
	ps := []float64{0, 0x1p-53, 1.0 / 3, 1 - 0x1p-53, 1, -0.5, 2, math.NaN(), math.Inf(1)}
	for _, k2 := range []int{2, 5, 12, 18, 40} {
		ps = append(ps, 1/float64(k2))
		for _, delta := range []int{2, 12, 22, 28, 100} {
			ps = append(ps, 1/(float64(k2)*float64(delta)))
		}
	}
	const top = 1<<53 - 1
	for _, p := range ps {
		th := CoinThreshold(p)
		for _, m := range []uint64{0, 1, top - 1, top, th, th - 1, th + 1} {
			if m <= top {
				agree(p, m)
			}
		}
	}
	// Through the generator: the same stream gives the same coins.
	r := Derive(3, 9)
	for i := 0; i < 1_000_000; i++ {
		p := ps[i%len(ps)]
		if i%3 == 0 {
			p = float64(r.Uint64()>>11) * 0x1p-53 // a random probability
		}
		a, b := r, r
		if got, want := a.Coin(CoinThreshold(p)), b.Float64() < p; got != want {
			t.Fatalf("pair %d: p=%v Coin %v, Float64() < p %v", i, p, got, want)
		}
		r.Uint64()
	}
}

// TestSkipAndScanMatchStepwise holds Skip and Scan to the stepwise
// draws they stand for: Skip(k) equals k calls of Uint64, Scan returns
// the index of the first successful Coin among the next limit draws
// (limit when none succeeds) and leaves the stream where it was. States
// start from random seeds and from just below 2^64, so the stepwise
// states wrap; skips of nearly 2^64 draws must compose back to the
// start, the period of the state walk.
func TestSkipAndScanMatchStepwise(t *testing.T) {
	rnd := Derive(99, 0)
	thresholds := []uint64{0, 1, CoinThreshold(1.0 / 210), CoinThreshold(0.1), 1 << 53}
	for trial := 0; trial < 200; trial++ {
		r := Rand{s: rnd.Uint64()}
		if trial%4 == 0 {
			r.s = math.MaxUint64 - uint64(rnd.Intn(8))*Gamma
		}
		for _, th := range thresholds {
			limit := int64(rnd.Intn(600))
			start := r
			got := r.Scan(th, limit)
			if r != start {
				t.Fatalf("Scan advanced the stream")
			}
			want, c := limit, r
			for j := int64(0); j < limit; j++ {
				if c.Coin(th) {
					want = j
					break
				}
			}
			if got != want {
				t.Fatalf("state %#x threshold %d limit %d: Scan = %d, stepwise %d", r.s, th, limit, got, want)
			}
			if got < limit {
				c := r
				c.Skip(uint64(got))
				if !c.Coin(th) {
					t.Fatalf("Skip(%d) then Coin missed the scanned success", got)
				}
			}
		}
		k := uint64(rnd.Intn(1000))
		a, b := r, r
		a.Skip(k)
		for i := uint64(0); i < k; i++ {
			b.Uint64()
		}
		if a != b {
			t.Fatalf("state %#x: Skip(%d) = %#x, stepwise %#x", r.s, k, a.s, b.s)
		}
		if a.Uint64() != b.Uint64() {
			t.Fatal("streams diverge after Skip")
		}
		// Skips of k and 2^64−k draws compose to the identity.
		w := r
		w.Skip(-k)
		w.Skip(k)
		if w != r {
			t.Fatalf("Skip(2^64−%d) then Skip(%d) did not return to the start", k, k)
		}
		w.Skip(math.MaxUint64)
		w.Uint64()
		if w != r {
			t.Fatal("Skip(2^64−1) then one draw did not return to the start")
		}
	}
}
