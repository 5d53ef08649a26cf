package radio

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"radiocolor/internal/churn"
	"radiocolor/internal/fault"
	"radiocolor/internal/graph"
	"radiocolor/internal/medium"
	"radiocolor/internal/obs"
)

// Config describes one simulation run.
type Config struct {
	// G is the communication graph (required).
	G *graph.Graph
	// Protocols holds one Protocol per node (required, len == G.N()).
	// When the entries are the handles of one Batch in index order
	// (see Member; core.Nodes builds such a slice) the slot loops drive
	// that Batch directly, one call per activity list and phase; any
	// other slice runs through a per-node adapter, with identical
	// results.
	Protocols []Protocol
	// Wake holds each node's wake-up slot (required, len == G.N(),
	// non-negative). Generate with the schedules in wakeup.go.
	Wake []int64
	// MaxSlots aborts the run after this many slots (default 50M).
	MaxSlots int64
	// Observer receives trace events. nil (the default) disables the
	// seam entirely: the engines branch on nil per event and allocate
	// nothing. Combine several observers with Observers. A non-nil
	// Observer runs the tiles sequentially, and with Tiles ≤ 1 as one
	// tile, so that traced event streams stay fully ordered.
	Observer Observer
	// Metrics, when non-nil, receives atomic event counters (see
	// internal/obs). Like Observer, nil costs one branch per event.
	// Metrics is independent of Observer so a shared registry can
	// aggregate across concurrent runs without any fan-out indirection.
	// Being atomic, Metrics does not force sequential tiles.
	Metrics *obs.Metrics
	// NEstimate is the network-size estimate used for message-size
	// accounting (default G.N()).
	NEstimate int
	// Faults, when non-nil, threads the deterministic fault-injection
	// layer through the slot loop: per-link loss and jamming suppress
	// receptions, crash/restart events fail-stop nodes (see
	// internal/fault). nil (the default) disables the seam entirely —
	// the hot path pays one nil check per phase and the output is
	// bit-identical to a fault-free engine. Compile the injector for
	// exactly G.N() nodes. A profile with clock skew supplies half-slot
	// clock offsets and switches reception to the half-slot rule (see
	// RunUnaligned); profiles that schedule restarts require the
	// victims' protocols to implement Restartable.
	Faults *fault.Injector
	// Medium, when non-nil, replaces the built-in reception rule (a
	// listener decodes iff exactly one graph neighbor transmits) with a
	// pluggable physical model — SINR with cumulative interference,
	// multi-channel hopping, or any other medium.Instance bound for
	// exactly G.N() nodes (see internal/medium). nil keeps the seam
	// entirely off the hot path: one check per slot, output bit-identical
	// to the pre-seam kernel. Capture is a medium's own semantics (the
	// built-in rule has none); on the medium path per-listener
	// OnCollision events are not emitted (collisions are counted in
	// aggregate), and fault suppression (jam, loss) applies per reception
	// after the medium resolves, exactly as on the built-in path.
	Medium medium.Instance
	// Churn, when non-nil, threads the dynamic-topology layer through
	// the slot loop: a compiled churn.Plan's batches of node joins,
	// leaves and mobility-derived edge deltas apply incrementally to a
	// dynamic CSR at the start of their slot, before fault events and
	// wake-ups (see internal/churn). nil (the default) disables the
	// seam entirely — the hot path pays one nil check per phase and the
	// output is bit-identical to the static engine. Batches apply
	// single-threaded, so churned runs are bit-identical at any Workers
	// and Tiles setting. Compile the plan for exactly G.N() nodes;
	// churn cannot be combined with a pluggable Medium or with clock
	// skew (the half-slot rule reads a static neighbor view), joining
	// nodes' protocols must implement Restartable, retraction repair
	// additionally needs Colored, and a node cannot be both a fault
	// crash/restart victim and a churn subject.
	Churn *churn.Plan
	// Workers > 1 runs the tiles of a slot (see Tiles) on that many
	// goroutines, with dynamic tile assignment. Tiles are the only
	// parallelism: with Tiles ≤ 1 an untraced run is cut into Workers
	// tiles. Results are bit-identical at any worker count: every node
	// owns an independent random stream and every merge across tiles is
	// order-free.
	Workers int
	// Tiles > 1 cuts node ids into Tiles contiguous blocks and runs the
	// slot loop tile-major (tiled.go): each slot makes two sweeps (Send
	// plus intra-tile resolve, then a boundary-exchange merge of
	// cross-tile edges plus deliver). 0 or 1 is one tile holding every
	// node, which needs no boundary exchange (or Workers tiles, see
	// Workers); Tiles < 0 picks a size-based count (AutoTiles). Results are bit-identical at any tile
	// and worker count, which the tiled differential suite pins. Tiling
	// pays off when ids are spatially coherent (relabel with
	// internal/graph HilbertOrder/StripOrder/BFSOrder first) so that most
	// edges stay inside a tile. Under a Medium or clock skew the tiles
	// only split the Send sweep: the medium or the half-slot rule then
	// resolves the whole slot in one pass over the transmitters. Within a
	// slot a traced multi-tile run emits OnDeliver/OnCollision events
	// grouped by tile; all other event streams, and every Result field,
	// are identical.
	Tiles int
}

// Engine executes a Config slot by slot. Use Run for the common case;
// the step-wise API supports protocols that need outside inspection
// between slots (tests, visualizers).
//
// There is one slot loop (Step), tile-major over the tiles of tiled.go;
// an untiled run is one tile. It works on the graph's CSR view (one
// flat edge array plus offsets) and is zero-alloc in steady state:
// per-slot scratch is kept valid by standing sentinels rather than
// cleared, awake nodes and transmissions are tracked in compact lists
// so no phase scans all n nodes, the protocols are driven through one
// Batch call per list, which reports decisions itself, and a
// transmitter's whole neighborhood is one contiguous read. The original
// slice-chasing slot loop is retained verbatim as the reference engine
// (reference.go); differential tests pin this loop to it bit-for-bit.
type Engine struct {
	cfg     Config
	n       int
	slot    int64
	b       Batch // drives cfg.Protocols (batchOf)
	out     []Message
	order   []int32 // node ids sorted by wake slot
	next    int     // index into order of the next node to wake
	numDone int
	decided []bool
	res     Result

	// CSR view of the topology, hoisted out of the per-edge hot path:
	// node v's neighbors are edges[rowStart[v]:rowEnd[v]]. On a static
	// run rowStart and rowEnd alias the graph's offsets array
	// (rowStart = offsets[:n], rowEnd = offsets[1:]), so every read
	// hits the exact addresses the offsets-based kernel read; under
	// churn they alias the dynamic CSR's headers, which graph.Dyn
	// mutates in place (only the edges array must be re-fetched after
	// a delta, because a row relocation may reallocate it).
	rowStart []int32
	rowEnd   []int32
	edges    []int32

	// Compact activity lists, all in ascending node order. Ascending
	// matters: protocol state and per-node RNG arrays are allocated
	// node-by-node, so an ascending sweep is a regular-stride memory
	// walk the prefetcher can follow, while wake-order iteration is a
	// random permutation that stalls on every node at large n.
	// awakeList holds every awake node; pending the recently woken ones
	// not yet merged into it (its first pendingSorted entries are
	// sorted, pendScratch is the merge buffer); tx this slot's
	// transmitters and dec its decisions, gathered from the tiles.
	awakeList     []int32
	pending       []int32
	pendingSorted int
	pendScratch   []int32
	tx            []int32
	dec           []int32

	// Per-slot receive scratch. The between-slot invariant: count == 0
	// for awake listeners, count == asleepCount for asleep nodes (set at
	// init, flipped at wake). Resolve treats count == 0 as "first touch
	// this slot", accumulates positive counts, and ignores negative ones
	// (asleep, or this slot's transmitters via txMarker) — negative
	// entries are never modified, so only touched listeners and
	// transmitters need a restore, both on lines already in hand.
	// Packing (from, count) into one 8-byte struct makes the resolve
	// phase's random accesses as dense as possible: eight receivers per
	// cache line. A node is awake iff its count is not asleepCount.
	rs []recvSlot

	// The tile partition and per-tile scratch (tiled.go).
	ts *tileState

	// Fault-injection state; nil unless Config.Faults is set (fault.go).
	fs *faultState

	// Dynamic-topology state; nil unless Config.Churn is set (churn.go).
	cs *churnState

	// off is the combined exclusion filter the protocol phases consult:
	// off[v] is true while v is crashed (faults) or absent (churn).
	// nil unless at least one of those seams is active — the plain hot
	// path keeps its single nil check — and the two node sets are
	// validated disjoint, so each seam owns its members' bits.
	off []bool
	// everWoke tracks membership in awakeList∪pending (entries are
	// never removed from those lists), so a fault restart or churn
	// rejoin knows whether the node must be re-inserted or is merely
	// reactivated in place. Allocated with off.
	everWoke []bool
	// rejoin is slot-prologue scratch shared by the fault and churn
	// seams (both run sequentially, each flushing before the other
	// starts): re-inserts into the awake lists.
	rejoin []int32

	// silent marks nodes whose protocols declared permanent quiescence
	// (see the Quiescent interface); the Send sweep skips them and the
	// activity lists compact them away. Allocated only when a protocol
	// implements Quiescent and neither faults nor churn can revive a
	// node.
	silent      []bool
	silentCount int
	// skip is the Send phase's exclusion filter: off, or silent when it
	// exists (the two never coexist).
	skip []bool

	// Reception-medium state; nil unless Config.Medium is set
	// (medium.go). listenFn is the standing listener predicate handed to
	// the medium (built once, so the slot loop allocates no closures) and
	// recs the reusable reception buffer.
	med      medium.Instance
	listenFn func(int32) bool
	recs     []medium.Reception

	// Half-slot reception state; nil unless the run has clock offsets
	// (unaligned.go).
	hs *halfSlot
}

// recvSlot is one receiver's per-slot resolve accumulator. The
// between-slot invariant is count == 0 for awake nodes and
// count == asleepCount for asleep ones, so the resolve phase reads the
// receiver's sleep state from the accumulator it must load anyway and
// never consults a separate awake array.
type recvSlot struct {
	from  int32 // lowest-indexed transmitting neighbor this slot
	count int32 // transmitting neighbors this slot
}

// asleepCount is the standing count of an asleep receiver: negative, so
// the resolve phase skips the node without consulting the awake array.
// The entry is never modified while the node sleeps; a wake-up resets
// it to 0.
const asleepCount = -1 << 30

// txMarker is the count a node's own transmission stamps into its rs
// entry during the Send phase. Negative like asleepCount, it keeps
// transmitting receivers out of touched, so the deliver phase needs no
// outbox check; the per-slot tx sweep restores the entries to 0.
const txMarker = -1 << 28

// NewEngine validates the configuration and prepares a run.
func NewEngine(cfg Config) (*Engine, error) {
	return newEngine(cfg, nil)
}

// newEngine is NewEngine with explicit half-slot clock offsets, the
// form RunUnaligned uses; nil takes them from a skew fault profile, if
// the run has one.
func newEngine(cfg Config, offsets []int8) (*Engine, error) {
	if err := validateConfig(&cfg); err != nil {
		return nil, err
	}
	n := cfg.G.N()
	csr := cfg.G.CSR()
	e := &Engine{
		cfg:       cfg,
		n:         n,
		out:       make([]Message, n),
		decided:   make([]bool, n),
		rowStart:  csr.Offsets[:n],
		rowEnd:    csr.Offsets[1:],
		edges:     csr.Edges,
		awakeList: make([]int32, 0, n),
		rs:        make([]recvSlot, n),
	}
	e.b = batchOf(cfg.Protocols)
	for i := range e.rs {
		e.rs[i].count = asleepCount // everyone starts asleep
	}
	e.order = wakeOrder(cfg.Wake)
	e.res = newResult(cfg.Wake)
	if cfg.Faults != nil || cfg.Churn != nil {
		e.off = make([]bool, n)
		e.everWoke = make([]bool, n)
	}
	if cfg.Faults != nil {
		fs, err := newFaultState(cfg.Faults, &e.cfg, n)
		if err != nil {
			return nil, err
		}
		e.fs = fs
		if offsets == nil && cfg.Faults.HasSkew() {
			offsets = cfg.Faults.SkewOffsets(n)
		}
	}
	if offsets != nil {
		// The half-slot rule decides every reception itself, from the
		// neighbor rows it read when the transmissions began.
		if cfg.Medium != nil {
			return nil, errors.New("radio: clock skew cannot combine with a pluggable medium (the half-slot rule owns reception)")
		}
		if cfg.Churn != nil {
			return nil, errors.New("radio: clock skew cannot combine with churn (the half-slot rule reads a static neighbor view)")
		}
		hs, err := newHalfSlot(offsets, n)
		if err != nil {
			return nil, err
		}
		e.hs = hs
	}
	if cfg.Churn != nil {
		cs, err := newChurnState(cfg.Churn, &e.cfg, n)
		if err != nil {
			return nil, err
		}
		e.cs = cs
		// Re-aim the CSR view at the dynamic graph: the row-bound
		// headers are mutated in place across deltas, and nodes absent
		// at slot 0 are excluded before anything runs.
		e.rowStart, e.rowEnd = cs.dyn.RowBounds()
		e.edges = cs.dyn.EdgeArray()
		for _, v := range cfg.Churn.InitialAbsent {
			cs.absent[v] = true
			e.off[v] = true
		}
	}
	if cfg.Medium != nil {
		if cfg.Medium.N() != n {
			return nil, fmt.Errorf("radio: medium %q bound for %d nodes, graph has %d", cfg.Medium.Name(), cfg.Medium.N(), n)
		}
		e.med = cfg.Medium
		// The between-slot rs invariant makes the listener predicate one
		// load: count == 0 exactly for awake, non-transmitting,
		// non-crashed nodes (asleep and crashed hold asleepCount,
		// transmitters txMarker during the slot).
		e.listenFn = func(i int32) bool { return e.rs[i].count == 0 }
	}
	tiles := cfg.Tiles
	if tiles < 0 {
		tiles = AutoTiles(n)
	}
	if tiles <= 1 && cfg.Observer == nil {
		// Tiles are the only parallelism. A traced run keeps one tile:
		// its sweeps run sequentially anyway, and more tiles would only
		// regroup its deliver events.
		tiles = cfg.Workers
	}
	e.ts = newTileState(tiles, n, e.rowStart, e.rowEnd, e.edges, e.med == nil && e.hs == nil)
	if cfg.Faults == nil && cfg.Churn == nil && anyQuiescent(cfg.Protocols) {
		// Fault and churn profiles disable quiescence: a restart or
		// rejoin must be able to revive any node, and revived nodes
		// re-enter via the pending list only if they never left the
		// activity lists (conflict repair likewise re-contends a
		// silenced node).
		e.silent = make([]bool, n)
	}
	e.skip = e.off
	if e.silent != nil {
		e.skip = e.silent
	}
	return e, nil
}

// anyQuiescent reports whether some protocol implements Quiescent, the
// only case in which the silent flags can ever be set.
func anyQuiescent(protos []Protocol) bool {
	for _, p := range protos {
		if _, ok := p.(Quiescent); ok {
			return true
		}
	}
	return false
}

// validateConfig checks and normalizes a Config in place. Shared with
// the reference engine so both reject exactly the same inputs.
func validateConfig(cfg *Config) error {
	if cfg.G == nil {
		return errors.New("radio: nil graph")
	}
	n := cfg.G.N()
	if len(cfg.Protocols) != n {
		return fmt.Errorf("radio: %d protocols for %d nodes", len(cfg.Protocols), n)
	}
	if len(cfg.Wake) != n {
		return fmt.Errorf("radio: %d wake slots for %d nodes", len(cfg.Wake), n)
	}
	for i, w := range cfg.Wake {
		if w < 0 {
			return fmt.Errorf("radio: node %d has negative wake slot %d", i, w)
		}
	}
	if cfg.MaxSlots <= 0 {
		cfg.MaxSlots = 50_000_000
	}
	if cfg.NEstimate <= 0 {
		cfg.NEstimate = n
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	return nil
}

// wakeOrder returns node ids sorted stably by wake slot (ties keep id
// order, so synchronous schedules wake in ascending id order).
func wakeOrder(wake []int64) []int32 {
	order := make([]int32, len(wake))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return wake[order[a]] < wake[order[b]]
	})
	return order
}

// newResult initializes the per-run Result bookkeeping.
func newResult(wake []int64) Result {
	res := Result{
		WakeSlot:   append([]int64(nil), wake...),
		DecideSlot: make([]int64, len(wake)),
		PerNodeTx:  make([]int64, len(wake)),
	}
	for i := range res.DecideSlot {
		res.DecideSlot[i] = -1
	}
	return res
}

// Step simulates one slot. It returns false when the run is over
// (everyone decided or the slot limit was reached).
//
// The slot runs tile-major: sweep 1 ticks every tile's awake nodes and
// resolves its transmitters' intra-tile edges, sweep 2 folds the
// cross-tile edges and delivers (tiled.go). A medium or the half-slot
// rule instead resolves and delivers the whole slot in one sequential
// pass over the transmitters, in ascending order, after sweep 1's Send.
// Either way the decisions are recorded once every reception is in.
func (e *Engine) Step() bool {
	t := e.slot
	ob := e.cfg.Observer
	met := e.cfg.Metrics
	ts := e.ts

	e.wakePhase(t, ob, met)
	// A traced run keeps OnTransmit in ascending order, and a slot-wide
	// pass (a medium or the half-slot rule) takes the transmitters in
	// ascending order, which keeps float accumulation (SINR) the same at
	// any tile count: these fold pending in every slot.
	e.mergePending(ob != nil || e.med != nil || e.hs != nil)
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

	e.sweep(t, (*Engine).tileSendResolve)
	for k := range ts.t {
		tl := &ts.t[k]
		e.tx = append(e.tx, tl.tx...)
		e.dec = append(e.dec, tl.dec...)
	}
	// Counter-side transmission bookkeeping (PerNodeTx, message-size
	// max) happened in sweep 1 on tile-owned state; only the per-event
	// seams need this sequential pass.
	if ob != nil || met != nil {
		for _, v := range e.tx {
			if ob != nil {
				ob.OnTransmit(t, NodeID(v), e.out[v])
			}
			if met != nil {
				met.AddTransmission()
			}
		}
	}
	switch {
	case e.med != nil:
		e.mediumResolveDeliver(t, ob, met)
	case e.hs != nil:
		e.halfSlotResolveDeliver(t, ob, met)
	default:
		e.sweep(t, (*Engine).tileDeliver)
	}

	// Fold the per-tile tallies in tile order (sums are order-free).
	e.res.Transmissions += int64(len(e.tx))
	for k := range ts.t {
		tl := &ts.t[k]
		if tl.maxBits > e.res.MaxMessageBits {
			e.res.MaxMessageBits = tl.maxBits
		}
		tl.deliverTally.addTo(&e.res)
		tl.deliverTally, tl.maxBits = deliverTally{}, 0
	}
	// Decisions a batch leaves to Settle (the per-node adapter's) join
	// the ones its Send calls reported.
	e.dec = e.b.Settle(t, e.off, e.dec)
	e.decide(t, ob, met)

	// Transmitter cleanup. Runs after every deliver because a remote
	// tile's deliver reads e.out[from] across the tile boundary.
	for _, v := range e.tx {
		e.out[v] = nil
		e.rs[v].count = 0 // transmitters return to the awake-idle state
	}
	e.tx = e.tx[:0]

	return e.finishSlot(t, ob, met)
}

// decide records the decisions the Batch reported in slot t (e.dec)
// and empties the list. On a traced run OnDecide fires in ascending
// node order, as in the reference engine, so the list is sorted then
// if the Send and Settle reports interleave.
func (e *Engine) decide(t int64, ob Observer, met *obs.Metrics) {
	dec := e.dec
	if ob != nil && !ascending32(dec) {
		slices.Sort(dec)
	}
	for _, v := range dec {
		e.decided[v] = true
		e.res.DecideSlot[v] = t
		e.numDone++
		if ob != nil {
			ob.OnDecide(t, NodeID(v))
		}
		if met != nil {
			met.AddDecision()
		}
		if e.silent != nil {
			if q, ok := e.cfg.Protocols[v].(Quiescent); ok && q.Quiescent() {
				e.silent[v] = true
				e.silentCount++
			}
		}
	}
	e.dec = dec[:0]
}

// wakePhase applies the slot's churn batches, fault events and
// wake-ups: the head of the slot loop.
func (e *Engine) wakePhase(t int64, ob Observer, met *obs.Metrics) {
	// Topology batches (joins/leaves/edge deltas) and fault events
	// (crash/restart) take effect at the start of the slot, before any
	// protocol runs.
	if e.cs != nil {
		e.churnBeginSlot(t, ob, met)
	}
	if e.fs != nil {
		e.faultBeginSlot(t, ob, met)
	}

	// Wake-ups scheduled for this slot. The block e.order[prevNext:next]
	// is in ascending id order (wakeOrder sorts stably, so ties keep id
	// order), letting the sorted activity lists absorb it with one
	// backward merge each. Nodes that are crashed or absent at their
	// wake slot are consumed without starting (their restart or join
	// rejoins them); the started ids are compacted over the consumed
	// block, which is never read again, so it stays ascending.
	prevNext, w := e.next, e.next
	off := e.off
	for e.next < e.n && e.cfg.Wake[e.order[e.next]] == t {
		id := e.order[e.next]
		e.next++
		if off != nil {
			if off[id] {
				continue
			}
			e.everWoke[id] = true
		}
		e.rs[id].count = 0 // standing state flips from asleep to awake-idle
		if ob != nil {
			ob.OnWake(t, NodeID(id))
		}
		if met != nil {
			met.AddWakeup()
		}
		e.b.Start(t, id)
		e.order[w] = id
		w++
	}
	if w > prevNext {
		// Newly woken ids go to a small pending list first; merging the
		// whole awake list every slot of a long wake ramp would cost
		// O(awake) per slot (mergePending).
		e.pending = append(e.pending, e.order[prevNext:w]...)
	}
}

// mergePending keeps the pending list sorted and folds it into the
// awake list when force is set or it has outgrown an eighth of it, so
// total merge work stays O(n) over any wake ramp while Send still walks
// ascending ids. The tile sweeps walk per-tile segments of both lists,
// so pending must be sorted every slot it is non-empty. Re-sorting the
// whole list each slot would dominate long wake ramps; instead the
// sorted prefix length is tracked and only this slot's appended block
// (one ascending wake run, plus any restart rejoins) is sorted and
// merged in — O(|pending|) per slot.
func (e *Engine) mergePending(force bool) {
	if len(e.pending) == 0 {
		return
	}
	if e.pendingSorted < len(e.pending) {
		suffix := e.pending[e.pendingSorted:]
		if !ascending32(suffix) {
			slices.Sort(suffix)
		}
		if e.pendingSorted > 0 {
			e.pendScratch = append(e.pendScratch[:0], suffix...)
			e.pending = mergeSorted(e.pending[:e.pendingSorted], e.pendScratch)
		}
		e.pendingSorted = len(e.pending)
	}
	if force || len(e.pending) >= 256 && len(e.pending)*8 >= len(e.awakeList) {
		e.awakeList = mergeSorted(e.awakeList, e.pending)
		e.pending = e.pending[:0]
		e.pendingSorted = 0
	}
}

// finishSlot is the slot epilogue: end-of-slot seams, counters, and
// the termination check.
func (e *Engine) finishSlot(t int64, ob Observer, met *obs.Metrics) bool {
	if ob != nil {
		ob.OnSlot(t)
	}
	if met != nil {
		met.AddSlot()
	}
	e.slot++
	simulatedSlots.Add(1)
	e.res.Slots = e.slot
	if e.cs != nil && e.slot <= e.cs.last {
		// Churn batches remain: a scheduled perturbation (join, leave,
		// or mobility delta) must not be skipped by early termination,
		// even if every currently present node has decided. This is
		// what lets one run measure recolor convergence after a
		// perturbation of an already converged coloring.
		return e.slot < e.cfg.MaxSlots
	}
	if e.numDone == e.n {
		e.res.AllDone = true
		return false
	}
	never := 0
	if e.fs != nil {
		never += e.fs.neverDone
	}
	if e.cs != nil {
		never += e.cs.neverDone
	}
	if never > 0 && e.numDone+never == e.n {
		// Graceful degradation: every node that can still decide has;
		// the remainder are down or gone for good. AllDone stays false
		// so callers see the run as incomplete.
		return false
	}
	return e.slot < e.cfg.MaxSlots
}

// ascending32 reports whether ids is already sorted ascending — true
// for every wake block, so the incremental pending merge only pays for
// a sort when fault restarts interleaved with wakes.
func ascending32(ids []int32) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			return false
		}
	}
	return true
}

// mergeSorted merges the ascending block add into the ascending list
// dst in place (backward merge over the appended tail), preserving
// ascending order. add must not alias dst.
func mergeSorted(dst, add []int32) []int32 {
	old := len(dst)
	dst = append(dst, add...)
	if old == 0 || dst[old-1] < add[0] {
		return dst // already in order (synchronous and sequential wakes)
	}
	i, j := old-1, len(add)-1
	for k := len(dst) - 1; j >= 0; k-- {
		if i >= 0 && dst[i] > add[j] {
			dst[k] = dst[i]
			i--
		} else {
			dst[k] = add[j]
			j--
		}
	}
	return dst
}

// deliverTally is one tile's share of the deliver-phase counters.
type deliverTally struct {
	deliveries, collisions, jammed, lost int64
}

// addTo folds the tally into the run's Result; sums are order-free.
func (tl *deliverTally) addTo(res *Result) {
	res.Deliveries += tl.deliveries
	res.Collisions += tl.collisions
	res.Jammed += tl.jammed
	res.Lost += tl.lost
}

// Result returns the statistics accumulated so far. It is valid after
// the run finishes (Step returned false) and between steps.
func (e *Engine) Result() *Result {
	if e.fs != nil {
		e.res.Down = e.downList(e.res.Down[:0])
	}
	if e.cs != nil {
		e.res.Left = e.cs.leftList(e.res.Left[:0])
	}
	return &e.res
}

// downList appends the currently crashed nodes to dst in ascending
// order: the combined off filter minus the churn layer's absentees
// (the two sets are disjoint by validation).
func (e *Engine) downList(dst []int32) []int32 {
	for i, o := range e.off {
		if o && (e.cs == nil || !e.cs.absent[i]) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// Slot returns the next slot to be simulated.
func (e *Engine) Slot() int64 { return e.slot }

// Run executes the configuration to completion and returns the result.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// cancelCheckMask gates the cancellation poll in the run loop: the
// context is consulted once every 1024 slots, keeping the select off
// the per-slot hot path (a full slot simulates n Send calls, so 1024
// slots bound the cancellation latency to well under a millisecond of
// wall time at realistic sizes).
const cancelCheckMask = 1024 - 1

// RunContext executes the configuration to completion, polling ctx
// every 1024 slots. On cancellation it returns ctx.Err() and no result.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.run(ctx)
}

// run steps the engine to completion, polling ctx every 1024 slots.
func (e *Engine) run(ctx context.Context) (*Result, error) {
	done := ctx.Done()
	for e.Step() {
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
