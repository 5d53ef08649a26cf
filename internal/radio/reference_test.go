package radio

import "sync"

// This file retains the pre-CSR slot loop — the seed implementation the
// model semantics were originally validated against — as an executable
// specification. It chases the graph's per-vertex adjacency slices,
// scans all n nodes in every phase, and resets its receive scratch
// through a touched list, exactly as the original engine did. It is
// deliberately NOT optimized: its only jobs are (a) anchoring the
// differential tests that pin the CSR kernel bit-for-bit to the seed
// semantics and (b) serving as the baseline in the kernel throughput
// benchmarks (bench_kernel_test.go, BENCH_kernel.json). Being a test
// file, it is compiled into the package's tests only; the external
// radio_test package reaches it as radio.RunReference.

// ReferenceEngine executes a Config with the original slice-based slot
// loop. Its Result is bit-identical to Engine's on every input.
type ReferenceEngine struct {
	cfg     Config
	n       int
	slot    int64
	awake   []bool
	out     []Message
	order   []int32
	next    int
	numDone int
	decided []bool
	res     Result

	// Per-slot scratch, reset via the touched list.
	recvCount []int32
	recvMsg   []Message
	touched   []int32
}

// NewReferenceEngine validates the configuration and prepares a
// reference run. It accepts what NewEngine accepts, less the Faults,
// Medium and Churn seams, each an *UnsupportedError: the reference
// engine specifies the static, fault-free model on the paper's
// reception rule, so runs with those seams are pinned against the CSR
// kernel instead.
func NewReferenceEngine(cfg Config) (*ReferenceEngine, error) {
	if err := validateConfig(&cfg); err != nil {
		return nil, err
	}
	for _, r := range []struct {
		on           bool
		seam, reason string
	}{
		{cfg.Faults != nil, seamFaults, "it specifies the fault-free model"},
		{cfg.Medium != nil, seamMedium, "it specifies the paper's reception rule"},
		{cfg.Churn != nil, seamChurn, "it specifies the static-graph model"},
	} {
		if r.on {
			return nil, &UnsupportedError{a: "the reference engine", b: r.seam, reason: r.reason}
		}
	}
	n := cfg.G.N()
	e := &ReferenceEngine{
		cfg:       cfg,
		n:         n,
		awake:     make([]bool, n),
		out:       make([]Message, n),
		decided:   make([]bool, n),
		recvCount: make([]int32, n),
		recvMsg:   make([]Message, n),
	}
	e.order = wakeOrder(cfg.Wake)
	e.res = newResult(cfg.Wake)
	return e, nil
}

// Step simulates one slot with the seed loop. It returns false when the
// run is over.
func (e *ReferenceEngine) Step() bool {
	t := e.slot
	ob := e.cfg.Observer
	// Wake-ups scheduled for this slot.
	for e.next < e.n && e.cfg.Wake[e.order[e.next]] == t {
		id := e.order[e.next]
		e.awake[id] = true
		e.res.Wakeups++
		if ob != nil {
			ob.OnWake(t, NodeID(id))
		}
		e.cfg.Protocols[id].Start(t)
		e.next++
	}

	// Send phase: every awake node ticks and chooses transmit/listen.
	if e.cfg.Workers > 1 {
		e.parallelSend(t)
	} else {
		for i := 0; i < e.n; i++ {
			if e.awake[i] {
				e.out[i] = e.cfg.Protocols[i].Send(t)
			}
		}
	}

	// Resolve phase: count transmitting neighbors at each node.
	for i := 0; i < e.n; i++ {
		msg := e.out[i]
		if msg == nil {
			continue
		}
		e.res.Transmissions++
		e.res.PerNodeTx[i]++
		if bits := msg.Bits(e.cfg.NEstimate); bits > e.res.MaxMessageBits {
			e.res.MaxMessageBits = bits
		}
		if ob != nil {
			ob.OnTransmit(t, NodeID(i), msg)
		}
		for _, u := range e.cfg.G.Adj(i) {
			if e.recvCount[u] == 0 {
				e.touched = append(e.touched, u)
				e.recvMsg[u] = msg
			}
			e.recvCount[u]++
		}
	}

	// Deliver phase: exactly-one rule at awake listeners.
	for _, u := range e.touched {
		count := e.recvCount[u]
		e.recvCount[u] = 0
		msg := e.recvMsg[u]
		e.recvMsg[u] = nil
		if !e.awake[u] || e.out[u] != nil {
			continue // asleep, or transmitting: hears nothing
		}
		if count >= 2 {
			e.res.Collisions++
			if ob != nil {
				ob.OnCollision(t, NodeID(u), int(count))
			}
			continue
		}
		e.res.Deliveries++
		if ob != nil {
			ob.OnDeliver(t, NodeID(u), msg)
		}
		e.cfg.Protocols[u].Recv(t, msg)
	}
	e.touched = e.touched[:0]
	for i := 0; i < e.n; i++ {
		e.out[i] = nil
	}

	// Decision detection.
	for i := 0; i < e.n; i++ {
		if !e.decided[i] && e.awake[i] && e.cfg.Protocols[i].Done() {
			e.decided[i] = true
			e.numDone++
			e.res.DecideSlot[i] = t
			e.res.Decisions++
			if ob != nil {
				ob.OnDecide(t, NodeID(i))
			}
		}
	}
	if ob != nil {
		ob.OnSlot(t)
	}
	e.slot++
	simulatedSlots.Add(1)
	e.res.Slots = e.slot
	if e.numDone == e.n {
		e.res.AllDone = true
		return false
	}
	return e.slot < e.cfg.MaxSlots
}

func (e *ReferenceEngine) parallelSend(t int64) {
	workers := e.cfg.Workers
	chunk := (e.n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > e.n {
			hi = e.n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if e.awake[i] {
					e.out[i] = e.cfg.Protocols[i].Send(t)
				}
			}
		}(lo, hi)
	}
	wg.Wait()
}

// Result returns the statistics accumulated so far.
func (e *ReferenceEngine) Result() *Result { return &e.res }

// Slot returns the next slot to be simulated.
func (e *ReferenceEngine) Slot() int64 { return e.slot }

// RunReference executes the configuration to completion on the
// reference engine.
func RunReference(cfg Config) (*Result, error) {
	e, err := NewReferenceEngine(cfg)
	if err != nil {
		return nil, err
	}
	for e.Step() {
	}
	return e.Result(), nil
}
