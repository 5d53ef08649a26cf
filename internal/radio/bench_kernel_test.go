package radio_test

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"radiocolor/internal/geom"
	"radiocolor/internal/graph"
	"radiocolor/internal/radio"
	"radiocolor/internal/topology"
)

// Kernel throughput measurement: the engine's slot loop, as one tile
// (Tiles=0, the "csr" column) and as several, versus the retained
// reference (seed) slot loop on identical workloads. The headline
// numbers live in BENCH_kernel.json at the repository root; regenerate
// them with
//
//	go test ./internal/radio -run TestKernelBenchJSON \
//	    -benchkernel-out ../../BENCH_kernel.json -timeout 90m
//
// (the test runs with the package directory as its working directory,
// so the relative path climbs back to the repository root)
//
// and guard against regressions with the CI smoke mode
//
//	KERNEL_BENCH_SMOKE=1 go test ./internal/radio -run TestKernelBenchSmoke
//
// which re-measures the smallest size and compares the csr/reference
// and tiled/reference speedup RATIOS against the committed baseline
// (ratios are much more machine-independent than absolute slots/s).
//
// The workload uses a deliberately lightweight synthetic protocol (an
// LCG transmit coin tuned to ~1.5 transmitting neighbors per
// neighborhood, decisions spread over the run) so the measurement is of
// the ENGINE — wake-up handling, Send dispatch, resolve, deliver,
// decision detection — rather than of the coloring protocol's own
// arithmetic, which is identical in both engines and would otherwise
// mask the kernel difference (Amdahl). Wall time under the real
// protocol is measured end to end by the perfbench module.

var benchKernelOut = flag.String("benchkernel-out", "", "write kernel throughput results (BENCH_kernel.json) to this path")

// kernelMsg is the synthetic protocol's reusable zero-alloc message.
type kernelMsg struct{ from radio.NodeID }

func (m *kernelMsg) Sender() radio.NodeID { return m.from }
func (m *kernelMsg) Bits(n int) int       { return 16 }

// kernelProto is the synthetic kernel-stress protocol: transmit with
// probability ≈1.5/deg (cheap LCG coin), decide and fall silent after a
// per-node deterministic number of local slots. The struct is packed to
// 32 bytes (two per cache line) so per-node state stays cheap to sweep
// and engine costs dominate the measurement.
type kernelProto struct {
	state    uint64 // LCG state
	thresh   uint32 // transmit iff state>>32 < thresh
	decideAt int32  // local slots until Done
	local    int32
	recvs    int32
	msg      kernelMsg
}

func (p *kernelProto) Start(slot int64) {}
func (p *kernelProto) Send(slot int64) radio.Message {
	p.local++
	if p.local > p.decideAt {
		return nil // decided nodes stay silent
	}
	p.state = p.state*2862933555777941757 + 3037000493
	if uint32(p.state>>32) < p.thresh {
		return &p.msg
	}
	return nil
}
func (p *kernelProto) Recv(slot int64, msg radio.Message) { p.recvs++ }
func (p *kernelProto) Done() bool                         { return p.local >= p.decideAt }

func benchSplitmix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// kernelWorkload is one benchmark configuration: a UDG deployment under
// the asynchronous-deployment regime the paper is about — a uniform
// wakeup ramp spanning the whole run (nodes switch on over a long
// deployment window), each node competing for a few hundred slots after
// waking and then falling silent once decided. The measured window thus
// mixes sleeping, contending, and decided nodes in realistic
// proportions instead of lockstep phases.
type kernelWorkload struct {
	n     int
	g     *topology.Deployment
	wake  []int64
	slots int64
}

// spatialRelabel renumbers the deployment's nodes along the shared
// Hilbert-curve relabeling pass (internal/graph) — the exact pass the
// tiled kernel's production path applies, pinned by the 16×16 golden in
// graph/relabel_test.go. Labels only determine memory layout — every
// engine runs the same relabeled graph, so the comparison is unaffected
// — but spatially coherent ids keep the benchmark from measuring the
// cache noise of a random permutation on top of the kernels, and give
// the tiled engine the contiguous spatial blocks its partition assumes.
func spatialRelabel(d *topology.Deployment) {
	n := d.G.N()
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i, pt := range d.Points {
		xs[i], ys[i] = pt.X, pt.Y
	}
	p := graph.HilbertOrder(xs, ys)
	d.G = p.Apply(d.G)
	pts := make([]geom.Point, n)
	for old, nid := range p.Forward {
		pts[nid] = d.Points[old]
	}
	d.Points = pts
}

func makeKernelWorkload(n int) kernelWorkload {
	d := topology.UDGWithTargetDegree(n, 12, 1)
	spatialRelabel(d)
	// Slot budgets grow ~√n: a deployment ramp is as long as the
	// rollout it models, and larger networks take longer to power up,
	// while each node's competition window stays the protocol constant
	// min(slots/5, 900) below. Growth is sublinear — capped by what a
	// reference-engine pass costs at that size — and the 10M budget is a
	// truncated ramp (the densest regime the tiled engine ever sees,
	// its worst case), kept affordable because a single pass is already
	// 6G node-slots.
	var slots int64
	switch {
	case n <= 10_000:
		slots = 6000
	case n <= 100_000:
		slots = 19000
	case n <= 1_000_000:
		slots = 60000
	default:
		slots = 600
	}
	// Deployment-sweep wake ramp: nodes are switched on in id order —
	// after the Hilbert relabeling, spatial order, exactly the order a
	// region-by-region rollout powers nodes up — with per-node jitter
	// of a tenth of the run. The network's active front is therefore a
	// spatially coherent window that slides across the deployment, the
	// regime the ROADMAP's 10M-node runs live in; a run's working set
	// is the front, not the full node array. (WakeUniform instead
	// models spatially uncorrelated activation: every engine slows on
	// it equally, because the active set becomes a random sample of
	// the id space no layout can make cache-resident.)
	jitter := slots / 10
	wake := make([]int64, n)
	for i := range wake {
		wake[i] = int64(i)*(slots-jitter)/int64(n) +
			int64(benchSplitmix(uint64(i)^0x51EE9)%uint64(jitter))
	}
	return kernelWorkload{
		n:     n,
		g:     d,
		wake:  wake,
		slots: slots,
	}
}

func (w kernelWorkload) protocols() []radio.Protocol {
	protos := make([]radio.Protocol, w.n)
	backing := make([]kernelProto, w.n)
	active := w.slots / 5 // competition window after waking
	if active > 900 {
		active = 900
	}
	for i := 0; i < w.n; i++ {
		deg := uint64(w.g.G.Degree(i))
		if deg < 2 {
			deg = 2
		}
		h := benchSplitmix(uint64(i) ^ 0xBE9C4)
		p := &backing[i]
		p.state = h
		p.thresh = uint32(float64(1<<32) * 1.5 / float64(deg))
		p.decideAt = int32(active/2 + int64(benchSplitmix(h)%uint64(active)))
		p.msg.from = radio.NodeID(i)
		protos[i] = p
	}
	return protos
}

// stepper is the common surface of the engines.
type stepper interface{ Step() bool }

// Engine variants measured by the bench: the retained seed loop, the
// engine as one tile (Tiles=0), and the engine over Hilbert-blocked
// tiles. Every variant ticks decided nodes until the budget ends; the
// committed BENCH_kernel.json figures were measured while the engine
// still let a protocol declare itself permanently silent and dropped
// such nodes from its Send sweep, which raised the csr and tiled
// columns.
const (
	benchRef = iota
	benchCSR
	benchTiled
)

// benchTiles is the tile count the tiled column uses: the production
// auto selector, floored at 4 so small sizes (the CI smoke) still
// exercise a real multi-tile partition with a boundary exchange.
func benchTiles(n int) int {
	t := radio.AutoTiles(n)
	if t < 4 {
		t = 4
	}
	return t
}

func (w kernelWorkload) newEngine(mode int) (stepper, error) {
	cfg := radio.Config{
		G: w.g.G, Protocols: w.protocols(), Wake: w.wake,
		MaxSlots: w.slots, NEstimate: w.n,
	}
	switch mode {
	case benchRef:
		return radio.NewReferenceEngine(cfg)
	case benchTiled:
		cfg.Tiles = benchTiles(w.n)
	}
	return radio.NewEngine(cfg)
}

// measure runs the workload to its slot budget and returns slots/second.
func (w kernelWorkload) measure(t testing.TB, mode int) float64 {
	e, err := w.newEngine(mode)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	steps := 0
	for e.Step() {
		steps++
	}
	steps++
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(steps) / elapsed.Seconds()
}

// benchEntry is one size's record in BENCH_kernel.json. Speedup is
// csr/ref, TiledSpeedup tiled/ref — both against the seed loop, so the
// two engine variants are directly comparable.
type benchEntry struct {
	N                int     `json:"n"`
	Edges            int     `json:"edges"`
	Slots            int64   `json:"slots"`
	RefSlotsPerSec   float64 `json:"ref_slots_per_sec"`
	CSRSlotsPerSec   float64 `json:"csr_slots_per_sec"`
	Speedup          float64 `json:"speedup"`
	TiledTiles       int     `json:"tiled_tiles"`
	TiledSlotsPerSec float64 `json:"tiled_slots_per_sec"`
	TiledSpeedup     float64 `json:"tiled_speedup"`
}

type benchFile struct {
	Schema   string       `json:"schema"`
	Workload string       `json:"workload"`
	GOOS     string       `json:"goos"`
	GOARCH   string       `json:"goarch"`
	Entries  []benchEntry `json:"entries"`
}

// measureEntry records one size over the given number of rounds. Each
// round times the three engines back to back, so a slow phase of a
// shared machine hits all of them alike: the speedups are the medians
// of the per-round ratios, and each slots/s figure the median of that
// engine's samples.
func measureEntry(t testing.TB, n, rounds int) benchEntry {
	w := makeKernelWorkload(n)
	var refs, csrs, tiled, csrRatio, tiledRatio []float64
	for r := 0; r < rounds; r++ {
		ref := w.measure(t, benchRef)
		csr := w.measure(t, benchCSR)
		til := w.measure(t, benchTiled)
		refs, csrs, tiled = append(refs, ref), append(csrs, csr), append(tiled, til)
		csrRatio = append(csrRatio, csr/ref)
		tiledRatio = append(tiledRatio, til/ref)
	}
	return benchEntry{
		N:                n,
		Edges:            w.g.G.M(),
		Slots:            w.slots,
		RefSlotsPerSec:   median(refs),
		CSRSlotsPerSec:   median(csrs),
		Speedup:          median(csrRatio),
		TiledTiles:       benchTiles(n),
		TiledSlotsPerSec: median(tiled),
		TiledSpeedup:     median(tiledRatio),
	}
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// benchRounds is the JSON regeneration's rounds per size: single runs
// on a shared machine can swing ±10%, medians keep the committed
// numbers reproducible. smokeRounds is the CI gate's: on a shared
// 2-vCPU host single rounds of the 10k workload read the csr ratio
// anywhere in 1.55–2.06×, so the gate needs the median of several.
const (
	benchRounds = 3
	smokeRounds = 5
)

// TestKernelBenchJSON regenerates BENCH_kernel.json. Skipped unless
// -benchkernel-out is given: the full matrix builds a million-node UDG
// and simulates hundreds of millions of node-slots.
func TestKernelBenchJSON(t *testing.T) {
	if *benchKernelOut == "" {
		t.Skip("pass -benchkernel-out <path> to regenerate BENCH_kernel.json")
	}
	out := benchFile{
		Schema:   "bench-kernel/v1",
		Workload: "udg target-degree 12 with hilbert-order node ids (shared internal/graph relabeling pass), deployment-sweep wake ramp in id order with 10% jitter, slot budgets growing ~sqrt(n) (truncated ramp at n=10M), synthetic kernel-stress protocol (p_tx~1.5/deg, per-node competition window of min(slots/5,900) local slots, quiescent after deciding); 3 interleaved rounds per size, slots/s the median per engine and speedups the median of per-round ratios (single round at n>=1M)",
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
	}
	for _, n := range []int{10_000, 100_000, 1_000_000, 10_000_000} {
		rounds := benchRounds
		if n >= 1_000_000 {
			rounds = 1 // passes this long (12G+ node-slots) self-average
		}
		e := measureEntry(t, n, rounds)
		t.Logf("n=%-8d edges=%-9d slots=%-6d ref=%.0f slots/s  csr=%.0f slots/s (%.2fx)  tiled[%d]=%.0f slots/s (%.2fx)",
			e.N, e.Edges, e.Slots, e.RefSlotsPerSec, e.CSRSlotsPerSec, e.Speedup,
			e.TiledTiles, e.TiledSlotsPerSec, e.TiledSpeedup)
		out.Entries = append(out.Entries, e)
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchKernelOut, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestKernelBenchSmoke is the CI regression gate: it re-measures the
// 10k-node workload over smokeRounds interleaved rounds and fails when
// the median csr/reference or tiled/reference speedup falls more than
// 20% below the committed baseline's. Enabled by KERNEL_BENCH_SMOKE=1.
func TestKernelBenchSmoke(t *testing.T) {
	if os.Getenv("KERNEL_BENCH_SMOKE") == "" {
		t.Skip("set KERNEL_BENCH_SMOKE=1 to run the kernel-bench regression gate")
	}
	raw, err := os.ReadFile("../../BENCH_kernel.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	var baseline benchFile
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatalf("parsing committed baseline: %v", err)
	}
	var base *benchEntry
	for i := range baseline.Entries {
		if baseline.Entries[i].N == 10_000 {
			base = &baseline.Entries[i]
		}
	}
	if base == nil {
		t.Fatal("committed BENCH_kernel.json has no n=10000 entry")
	}
	got := measureEntry(t, 10_000, smokeRounds)
	t.Logf("baseline csr %.2fx tiled %.2fx, measured csr %.2fx tiled %.2fx (ref %.0f, csr %.0f, tiled %.0f slots/s)",
		base.Speedup, base.TiledSpeedup, got.Speedup, got.TiledSpeedup,
		got.RefSlotsPerSec, got.CSRSlotsPerSec, got.TiledSlotsPerSec)
	if got.Speedup < 0.8*base.Speedup {
		t.Fatalf("kernel speedup regressed >20%%: measured %.2fx vs committed baseline %.2fx",
			got.Speedup, base.Speedup)
	}
	if base.TiledSpeedup > 0 && got.TiledSpeedup < 0.8*base.TiledSpeedup {
		t.Fatalf("tiled kernel speedup regressed >20%%: measured %.2fx vs committed baseline %.2fx",
			got.TiledSpeedup, base.TiledSpeedup)
	}
}

// TestTiledAllocationBudget10M is the scale smoke for the 10M-node
// target: the tiled engine's per-tile scratch is high-water reused, so
// after a warm-up its steady state must simulate slots without growing
// the heap. A 10M-node ring (ids already contiguous, so every tile
// boundary is a real boundary exchange) keeps the graph build cheap;
// the budget is a few dozen slots, bounded well under a minute. Gated
// with the kernel-bench smoke (KERNEL_BENCH_SMOKE=1) and skipped under
// -short.
func TestTiledAllocationBudget10M(t *testing.T) {
	if os.Getenv("KERNEL_BENCH_SMOKE") == "" {
		t.Skip("set KERNEL_BENCH_SMOKE=1 to run the 10M-node allocation smoke")
	}
	if testing.Short() {
		t.Skip("10M-node allocation smoke skipped in -short mode")
	}
	const n = 10_000_000
	const slots = 60
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	g := b.Build()
	w := kernelWorkload{
		n: n, g: &topology.Deployment{G: g},
		wake: radio.WakeUniform(n, slots/2, 1), slots: slots,
	}
	cfg := radio.Config{
		G: g, Protocols: w.protocols(), Wake: w.wake,
		MaxSlots: slots, NEstimate: n, Tiles: -1,
	}
	e, err := radio.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := 0
	for ; warm < slots/2 && e.Step(); warm++ {
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steps := 0
	for e.Step() {
		steps++
	}
	runtime.ReadMemStats(&after)
	if steps == 0 {
		t.Fatal("no steady-state slots measured")
	}
	mallocs := int64(after.Mallocs - before.Mallocs)
	perSlot := float64(mallocs) / float64(steps)
	t.Logf("10M-node tiled steady state: %d slots, %d mallocs (%.1f/slot)", steps, mallocs, perSlot)
	// The budget is deliberately loose (list growth past any warm-up
	// high-water mark is legitimate) but catches per-node or per-edge
	// allocations instantly: those would show up millions per slot.
	if perSlot > 1000 {
		t.Fatalf("tiled steady state allocates %.0f objects/slot at n=10M; scratch is not being reused", perSlot)
	}
}

// Plain Go benchmarks over the same workload, for -bench comparisons and
// the CI benchmarks-compile smoke. ReportMetric exposes slots/s.
func benchmarkKernel(b *testing.B, mode int) {
	w := makeKernelWorkload(10_000)
	b.ResetTimer()
	start := time.Now()
	slots := 0
	for i := 0; i < b.N; i++ {
		e, err := w.newEngine(mode)
		if err != nil {
			b.Fatal(err)
		}
		for e.Step() {
			slots++
		}
		slots++
	}
	if d := time.Since(start).Seconds(); d > 0 {
		b.ReportMetric(float64(slots)/d, "slots/s")
	}
}

func BenchmarkKernelCSR(b *testing.B)       { benchmarkKernel(b, benchCSR) }
func BenchmarkKernelTiled(b *testing.B)     { benchmarkKernel(b, benchTiled) }
func BenchmarkKernelReference(b *testing.B) { benchmarkKernel(b, benchRef) }
