package radio

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

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
	// Observer also keeps the deliver phase sequential under Workers > 1
	// so that traced event streams stay fully ordered.
	Observer Observer
	// Metrics, when non-nil, receives atomic event counters (see
	// internal/obs). Like Observer, nil costs one branch per event.
	// Metrics is independent of Observer so a shared registry can
	// aggregate across concurrent runs without any fan-out indirection.
	// Being atomic, Metrics does not force the sequential deliver path.
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
	// exactly G.N() nodes; profiles with clock skew must run through
	// RunUnaligned, and profiles that schedule restarts require the
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
	// churn cannot be combined with a pluggable Medium or with
	// RunUnaligned, joining nodes' protocols must implement Restartable,
	// retraction repair additionally needs Colored, and a node cannot be
	// both a fault crash/restart victim and a churn subject.
	Churn *churn.Plan
	// Workers > 1 runs the per-slot Send, resolve and deliver phases on
	// that many goroutines. Results are bit-identical to the sequential
	// engine: every node owns an independent random stream, the resolve
	// phase partitions the transmitters' CSR edge ranges and merges the
	// per-worker (count, lowest sender) accumulators deterministically
	// (sum and min are order-free), and the deliver phase partitions
	// receivers, which never share protocol state.
	Workers int
	// Tiles > 1 runs the cache-aware tiled slot loop (tiled.go): node
	// ids are partitioned into Tiles contiguous blocks, each slot makes
	// two tile-major sweeps (Send + intra-tile resolve, then a
	// boundary-exchange merge of cross-tile edges + deliver + decide),
	// and under Workers > 1 the tiles run on independent goroutines.
	// Results are bit-identical to the untiled engine at any tile and
	// worker count — every merge is order-free — which the tiled
	// differential suite pins. Tiling pays off when ids are spatially
	// coherent (relabel with internal/graph HilbertOrder/StripOrder/
	// BFSOrder first) so that most edges stay inside a tile. Tiles < 0
	// picks a size-based tile count automatically (AutoTiles); 0 or 1
	// keeps the untiled loop. A non-nil Medium replaces the resolve and
	// deliver phases wholesale, so tiled runs with a medium fall back to
	// the untiled loop (same results either way). Within a slot a traced
	// tiled run emits OnDeliver/OnCollision events grouped by tile
	// rather than in the untiled order; all other event streams, and
	// every Result field, are identical.
	Tiles int
}

// Engine executes a Config slot by slot. Use Run for the common case;
// the step-wise API supports protocols that need outside inspection
// between slots (tests, visualizers).
//
// The slot loop works on the graph's CSR view (one flat edge array plus
// offsets) and is zero-alloc in steady state: per-slot scratch is
// kept valid by standing sentinels rather than cleared, awake nodes and
// transmissions are tracked in compact lists so no phase scans all n
// nodes, the protocols are driven through one Batch call per list, which
// reports decisions itself, and a transmitter's whole neighborhood is
// one contiguous read. The original
// slice-chasing slot loop is retained verbatim as the reference engine
// (reference.go); differential tests pin this kernel to it bit-for-bit.
type Engine struct {
	cfg     Config
	n       int
	slot    int64
	b       Batch // drives cfg.Protocols (batchOf)
	awake   []bool
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
	// random permutation that stalls on every node at large n. tx holds
	// this slot's transmitters; awakeList every awake node (newly woken
	// ids are merged in, staying sorted); dec the nodes the Batch
	// reported deciding this slot.
	tx        []int32
	awakeList []int32
	pending   []int32 // recently woken, not yet merged into awakeList
	dec       []int32

	// Per-slot receive scratch. The between-slot invariant: count == 0
	// for awake listeners, count == asleepCount for asleep nodes (set at
	// init, flipped at wake). Resolve treats count == 0 as "first touch
	// this slot", accumulates positive counts, and ignores negative ones
	// (asleep, or this slot's transmitters via txMarker) — negative
	// entries are never modified, so only touched listeners and
	// transmitters need a restore, both on lines already in hand.
	// Packing (from, count) into one 8-byte struct makes the resolve
	// phase's random accesses as dense as possible: eight receivers per
	// cache line.
	rs      []recvSlot
	touched []int32

	// Parallel-phase scratch, allocated on first use when Workers > 1.
	scratch []resolveScratch
	lists   []workerLists

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

	// Tiled-kernel state; nil unless Config.Tiles > 1 selected the tiled
	// slot loop (tiled.go). silent marks nodes whose protocols declared
	// permanent quiescence (see the Quiescent interface); the tiled Send
	// sweep skips them and the activity lists compact them away.
	ts          *tileState
	silent      []bool
	silentCount int
	// skip is the Send phase's exclusion filter: off, or silent on a
	// tiled run that has it (the two never coexist).
	skip []bool
	// pendingSorted is the length of pending's known-sorted prefix and
	// pendScratch the merge buffer; both are tiled-loop-only (the
	// untiled loop sorts pending once, at flush time).
	pendingSorted int
	pendScratch   []int32

	// Reception-medium state; nil unless Config.Medium is set
	// (medium.go). listenFn is the standing listener predicate handed to
	// the medium (built once, so the slot loop allocates no closures) and
	// recs the reusable reception buffer.
	med      medium.Instance
	listenFn func(int32) bool
	recs     []medium.Reception
}

// recvSlot is one receiver's per-slot resolve accumulator. The
// between-slot invariant is count == 0 for awake nodes and
// count == asleepCount for asleep ones, so the resolve phase reads the
// receiver's sleep state from the accumulator it must load anyway and
// never consults the awake array.
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

// workerLists is one worker's private transmitter and decision lists
// for the parallel Send phase, kept across slots.
type workerLists struct {
	tx, dec []int32
}

// resolveScratch is one worker's private accumulator for the parallel
// resolve phase.
type resolveScratch struct {
	rs      []recvSlot
	touched []int32
	cleared []int32
}

// NewEngine validates the configuration and prepares a run.
func NewEngine(cfg Config) (*Engine, error) {
	return newEngine(cfg, false)
}

// newEngine is NewEngine plus the skew escape hatch used by
// RunUnaligned, which is the only engine that models clock offsets.
func newEngine(cfg Config, allowSkew bool) (*Engine, error) {
	if err := validateConfig(&cfg); err != nil {
		return nil, err
	}
	n := cfg.G.N()
	csr := cfg.G.CSR()
	e := &Engine{
		cfg:       cfg,
		n:         n,
		awake:     make([]bool, n),
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
		fs, err := newFaultState(cfg.Faults, &e.cfg, n, allowSkew)
		if err != nil {
			return nil, err
		}
		e.fs = fs
	}
	if cfg.Churn != nil {
		if allowSkew {
			return nil, errors.New("radio: churn cannot run through RunUnaligned (the half-slot resolver has a static neighbor view)")
		}
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
	if cfg.Tiles > 1 && e.med == nil {
		// A pluggable medium replaces the resolve and deliver phases
		// wholesale, so there is nothing left to tile; such runs keep
		// the untiled loop (bit-identical either way).
		e.ts = newTileState(cfg.Tiles, n, e.rowStart, e.rowEnd, e.edges)
		if cfg.Faults == nil && cfg.Churn == nil {
			// The quiescence seam (tiled.go): allocated up front so
			// parallel tile workers never race to create it. Fault and
			// churn profiles disable it — a restart or rejoin must be
			// able to revive any node, and revived nodes re-enter via
			// the pending list only if they never left the activity
			// lists (conflict repair likewise re-contends a silenced
			// node).
			e.silent = make([]bool, n)
		}
	}
	e.skip = e.off
	if e.silent != nil {
		e.skip = e.silent
	}
	return e, nil
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
	if cfg.Tiles < 0 {
		cfg.Tiles = AutoTiles(n)
	}
	if cfg.Tiles > maxTiles {
		cfg.Tiles = maxTiles
	}
	if cfg.Tiles > n {
		cfg.Tiles = n
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
func (e *Engine) Step() bool {
	if e.ts != nil {
		return e.stepTiled()
	}
	t := e.slot
	ob := e.cfg.Observer
	met := e.cfg.Metrics

	e.wakePhase(t, ob, met)
	// A traced run flushes every slot so OnTransmit and OnDecide events
	// keep the reference's ascending-id order; so does the parallel
	// path, whose workers partition one list, and the medium path, which
	// needs the transmitter list in ascending order so float
	// accumulation (SINR) is bit-identical at any worker count.
	e.flushPending(e.cfg.Workers > 1 || ob != nil || e.med != nil)

	// Send phase: one batch call per activity list ticks every awake
	// node in ascending order and collects the transmitters and this
	// slot's decisions. Protocols are independent state machines, so
	// call order within a slot cannot influence results. Crashed and
	// absent nodes stay in the lists (they may restart or rejoin); the
	// off filter skips them. Transmission bookkeeping (counters, max
	// message size, events) is order-free.
	if e.cfg.Workers > 1 {
		e.parallelSend(t)
	} else {
		e.tx, e.dec = e.b.Send(t, e.awakeList, e.skip, e.out, e.tx, e.dec)
		e.tx, e.dec = e.b.Send(t, e.pending, e.skip, e.out, e.tx, e.dec)
	}
	for _, v := range e.tx {
		e.rs[v].count = txMarker
		e.noteTx(t, v, e.out[v], ob, met)
	}

	// Resolve phase: accumulate per-receiver transmitting-neighbor counts
	// and the lowest-indexed transmitter into the per-slot scratch. A
	// pluggable medium replaces both this and the deliver phase below;
	// the cleanup after them is shared.
	if e.med != nil {
		e.mediumResolveDeliver(t, ob, met)
	} else if e.cfg.Workers > 1 && len(e.tx) > 1 {
		e.parallelResolve()
	} else {
		for _, v := range e.tx {
			row := e.edges[e.rowStart[v]:e.rowEnd[v]]
			for _, u := range row {
				r := &e.rs[u]
				if r.count == 0 {
					r.count = 1
					r.from = v
					e.touched = append(e.touched, u)
				} else if r.count > 0 {
					r.count++
					if v < r.from {
						r.from = v
					}
				}
				// count < 0: asleep (standing asleepCount) or
				// transmitting (txMarker) — not a listener; the entry is
				// left untouched, so there is nothing to restore.
			}
		}
	}

	// Deliver phase: exactly-one rule at awake listeners (deliverOne).
	// The delivered message is recovered from the sender's outbox (out
	// is cleared only after this phase), so no per-receiver message
	// scratch exists.
	if e.cfg.Workers > 1 && ob == nil && len(e.touched) > 1 {
		e.parallelDeliver(t)
	} else {
		var tl deliverTally
		for _, u := range e.touched {
			e.deliverOne(t, u, &tl, ob, met, nil)
		}
		tl.addTo(&e.res)
	}
	e.touched = e.touched[:0]
	for _, v := range e.tx {
		e.out[v] = nil
		e.rs[v].count = 0 // transmitters return to the awake-idle state
	}
	e.tx = e.tx[:0]

	e.dec = e.b.Settle(e.off, e.dec)
	decisions, _ := e.decide(t, e.dec, ob, met)
	e.numDone += int(decisions)
	e.dec = e.dec[:0]

	return e.finishSlot(t, ob, met)
}

// decide records the decisions the Batch reported in slot t and
// returns how many it recorded and how many of those nodes fell
// permanently silent (tiled runs only). On a traced run OnDecide fires
// in ascending node order, as in the reference engine, so dec is
// sorted then if the Send and Settle reports interleave. Every write is
// to the reported nodes' own entries, so tiles may call it
// concurrently.
func (e *Engine) decide(t int64, dec []int32, ob Observer, met *obs.Metrics) (decisions, silenced int64) {
	if ob != nil && !ascending32(dec) {
		slices.Sort(dec)
	}
	for _, v := range dec {
		e.decided[v] = true
		e.res.DecideSlot[v] = t
		decisions++
		if ob != nil {
			ob.OnDecide(t, NodeID(v))
		}
		if met != nil {
			met.AddDecision()
		}
		if e.silent != nil {
			if q, ok := e.cfg.Protocols[v].(Quiescent); ok && q.Quiescent() {
				e.silent[v] = true
				silenced++
			}
		}
	}
	return decisions, silenced
}

// wakePhase applies the slot's fault events and wake-ups: the shared
// head of the untiled and tiled slot loops.
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
		e.awake[id] = true
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
		woken := e.order[prevNext:w]
		// Newly woken ids go to a small pending list first; merging the
		// whole awake list every slot of a long wake ramp would cost
		// O(awake) per slot. The pending list is flushed once it exceeds
		// an eighth of the merged list, so total merge work stays O(n)
		// over any ramp while Send still walks mostly-ascending ids.
		e.pending = append(e.pending, woken...)
	}
}

// flushPending merges the pending wake-ups into the awake list when
// force is set or the pending list has outgrown an eighth of it: the
// untiled loops' merge policy (wakePhase explains the pending list).
func (e *Engine) flushPending(force bool) {
	if len(e.pending) > 0 &&
		(force || len(e.pending) >= 256 && len(e.pending)*8 >= len(e.awakeList)) {
		slices.Sort(e.pending)
		e.awakeList = mergeSorted(e.awakeList, e.pending)
		e.pending = e.pending[:0]
	}
}

// finishSlot is the shared slot epilogue: end-of-slot seams, counters,
// and the termination check.
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

// noteTx records one transmission: run counters, the maximum message
// size, and the per-event seams. All of it is order-free (sums, maxes,
// per-node counters), so it may run inside any Send sweep order.
func (e *Engine) noteTx(t int64, v int32, msg Message, ob Observer, met *obs.Metrics) {
	e.res.Transmissions++
	e.res.PerNodeTx[v]++
	if bits := msg.Bits(e.cfg.NEstimate); bits > e.res.MaxMessageBits {
		e.res.MaxMessageBits = bits
	}
	if ob != nil {
		ob.OnTransmit(t, NodeID(v), msg)
	}
	if met != nil {
		met.AddTransmission()
	}
}

// ascending32 reports whether ids is already sorted ascending — true
// for every wake block, so the tiled loop's incremental pending merge
// only pays for a sort when fault restarts interleaved with wakes.
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

// workerRanges splits [0, n) into at most workers contiguous ranges.
func workerRanges(n, workers int) [][2]int {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var out [][2]int
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// parallelSend runs the Send phase over the awake list on Workers
// goroutines, one batch call per contiguous range. Each worker fills
// private lists; they are concatenated in worker order, so tx and dec
// stay ascending.
func (e *Engine) parallelSend(t int64) {
	ranges := workerRanges(len(e.awakeList), e.cfg.Workers)
	for len(e.lists) < len(ranges) {
		e.lists = append(e.lists, workerLists{})
	}
	var wg sync.WaitGroup
	for w, r := range ranges {
		wg.Add(1)
		go func(wl *workerLists, ids []int32) {
			defer wg.Done()
			wl.tx, wl.dec = e.b.Send(t, ids, e.skip, e.out, wl.tx[:0], wl.dec[:0])
		}(&e.lists[w], e.awakeList[r[0]:r[1]])
	}
	wg.Wait()
	for w := range ranges {
		e.tx = append(e.tx, e.lists[w].tx...)
		e.dec = append(e.dec, e.lists[w].dec...)
	}
}

// parallelResolve partitions the transmitters' concatenated CSR rows
// into contiguous ranges of roughly equal edge count, lets each worker
// accumulate (count, lowest sender) into private zero-invariant scratch,
// and merges the partial accumulators sequentially. The merged state is
// independent of the partition because counts add and senders take the
// minimum — both order-free — so the result is bit-identical to the
// sequential resolve for any worker count.
func (e *Engine) parallelResolve() {
	workers := e.cfg.Workers
	if e.scratch == nil {
		e.scratch = make([]resolveScratch, 0, workers)
	}
	for len(e.scratch) < workers {
		e.scratch = append(e.scratch, resolveScratch{
			rs: make([]recvSlot, e.n),
		})
	}

	// Partition tx at row granularity by cumulative edge count.
	total := 0
	for _, v := range e.tx {
		total += int(e.rowEnd[v] - e.rowStart[v])
	}
	target := (total + workers - 1) / workers
	if target < 1 {
		target = 1
	}
	type span struct{ lo, hi int }
	var spans []span
	lo, acc := 0, 0
	for i, v := range e.tx {
		acc += int(e.rowEnd[v] - e.rowStart[v])
		if acc >= target && len(spans) < workers-1 {
			spans = append(spans, span{lo, i + 1})
			lo, acc = i+1, 0
		}
	}
	if lo < len(e.tx) {
		spans = append(spans, span{lo, len(e.tx)})
	}

	var wg sync.WaitGroup
	for w, s := range spans {
		wg.Add(1)
		go func(ws *resolveScratch, txs []int32) {
			defer wg.Done()
			ws.touched = ws.touched[:0]
			for _, v := range txs {
				row := e.edges[e.rowStart[v]:e.rowEnd[v]]
				for _, u := range row {
					r := &ws.rs[u]
					if r.count == 0 {
						if !e.awake[u] {
							r.count = asleepCount
							ws.cleared = append(ws.cleared, u)
							continue
						}
						r.count = 1
						r.from = v
						ws.touched = append(ws.touched, u)
					} else {
						r.count++
						if v < r.from {
							r.from = v
						}
					}
				}
			}
		}(&e.scratch[w], e.tx[s.lo:s.hi])
	}
	wg.Wait()

	// Deterministic merge in worker order; each worker entry is zeroed as
	// it is folded in, restoring the workers' count == 0 invariant.
	for w := range spans {
		ws := &e.scratch[w]
		for _, u := range ws.touched {
			p := &ws.rs[u]
			r := &e.rs[u]
			if r.count == 0 {
				*r = *p
				e.touched = append(e.touched, u)
			} else {
				r.count += p.count
				if p.from < r.from {
					r.from = p.from
				}
			}
			p.count = 0
		}
		for _, u := range ws.cleared {
			ws.rs[u].count = 0
		}
		ws.cleared = ws.cleared[:0]
	}
}

// deliverTally is one worker's (or tile's) share of the deliver-phase
// counters.
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

// parallelDeliver partitions the touched receivers across workers. A
// receiver appears in touched exactly once (the first-touch count
// dedupes), so no two workers ever call the same protocol, and all
// per-receiver inputs (the rs accumulator, out, the fault coins) are
// read-only pure data. Counter partials are summed in worker order;
// sums are order-free, so the totals match the sequential deliver
// exactly. Only taken when Config.Observer is nil: a traced run keeps
// the sequential path so its event stream stays fully ordered.
func (e *Engine) parallelDeliver(t int64) {
	met := e.cfg.Metrics
	ranges := workerRanges(len(e.touched), e.cfg.Workers)
	tallies := make([]deliverTally, len(ranges))
	var wg sync.WaitGroup
	for w, r := range ranges {
		wg.Add(1)
		go func(w int, us []int32) {
			defer wg.Done()
			var tl deliverTally // local, so workers share no cache line
			for _, u := range us {
				e.deliverOne(t, u, &tl, nil, met, nil)
			}
			tallies[w] = tl
		}(w, e.touched[r[0]:r[1]])
	}
	wg.Wait()
	for i := range tallies {
		tallies[i].addTo(&e.res)
	}
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

// cancelCheckMask gates the cancellation poll in the run loops: the
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
