package radiocolor

import (
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestLargeUnitDisk is the large end-to-end run behind BENCH_rng.json,
// off unless LARGE_UDG_N is set. It places LARGE_UDG_N points
// uniformly at mean degree 12 (radius 1), colors them through
// ColorUnitDisk with uniform wake-up, Tiling 4 and Workers 2, and
// reports wall time, slots and the process's peak RSS (VmHWM):
//
//	LARGE_UDG_N=100000 go test -run TestLargeUnitDisk -v -timeout 3h .
//	LARGE_UDG_N=1000000 LARGE_UDG_SLOTS=2000 go test -run TestLargeUnitDisk -v -timeout 3h .
//
// Without LARGE_UDG_SLOTS the run goes to full decision and must come
// out verified (Outcome.OK); with it, the run stops at that window and
// must have simulated exactly that many slots.
func TestLargeUnitDisk(t *testing.T) {
	n, _ := strconv.Atoi(os.Getenv("LARGE_UDG_N"))
	if n <= 0 {
		t.Skip("set LARGE_UDG_N to run")
	}
	window, _ := strconv.ParseInt(os.Getenv("LARGE_UDG_SLOTS"), 10, 64)
	side := math.Sqrt(float64(n) * math.Pi / 12)
	r := rand.New(rand.NewSource(1))
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{r.Float64() * side, r.Float64() * side}
	}
	start := time.Now()
	out, err := ColorUnitDisk(pts, 1, Options{
		Seed: 1, Wakeup: WakeupUniform, Tiling: 4, Workers: 2, MaxSlots: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("n=%d Δ=%d κ₂=%d slots=%d ok=%v colors=%d wall=%.1fs peak_rss=%s",
		n, out.Delta, out.Kappa2, out.Slots, out.OK(), out.NumColors,
		time.Since(start).Seconds(), peakRSS())
	switch {
	case window > 0 && out.Slots != window:
		t.Errorf("ran %d slots, want the %d-slot window", out.Slots, window)
	case window == 0 && !out.OK():
		t.Errorf("outcome not verified: proper=%v complete=%v", out.Proper, out.Complete)
	}
}

// peakRSS returns the VmHWM line of /proc/self/status, or "n/a".
func peakRSS() string {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "n/a"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "n/a"
}
