package radio

import "slices"

// Batch is the engine's view of a whole population of protocol
// instances, indexed by node: every slot loop drives it with one Send
// call per activity list (or tile segment) instead of one interface
// call per node. Calls on disjoint node sets may run concurrently, so an
// implementation must keep no per-call scratch shared between nodes.
type Batch interface {
	// Start wakes node v in slot (Protocol.Start).
	Start(slot int64, v int32)
	// Send ticks every node of ids whose skip entry is unset (skip may
	// be nil), as Protocol.Send would one by one; a node with skip set
	// does not tick in this slot at all. ids is an ascending activity
	// list. A transmitter's message goes to out[v] and v
	// is appended to tx; a node that decides in its tick is appended to
	// dec. Both follow the order of ids, and Send returns them. Messages
	// follow the Protocol.Send validity contract.
	Send(slot int64, ids []int32, skip []bool, out []Message, tx, dec []int32) ([]int32, []int32)
	// Recv hands msg to listener v (Protocol.Recv).
	Recv(slot int64, v int32, msg Message)
	// Settle runs once per slot, after every Send and Recv of the slot,
	// on one goroutine; slot is the slot that just ended. It appends to
	// dec the nodes that decided in the slot without their Send
	// reporting it, skipping nodes with skip set, and returns dec.
	Settle(slot int64, skip []bool, dec []int32) []int32
}

// Member is implemented by per-node handles into a shared Batch. When
// entry v of Config.Protocols is a Member whose Member() returns the
// same Batch for every entry, v as its index and itself as the handle,
// the engine drives that Batch directly; any other Protocols slice runs
// through a per-node adapter. (Returning the handle lets the engine
// tell a handle from a wrapper that embeds one: the wrapper inherits
// Member but is not the handle, so its own methods keep running.)
type Member interface {
	Member() (b Batch, v int32, self Protocol)
}

// batchOf returns the Batch that drives protos: their shared Batch when
// every entry is that Batch's handle at its own index, else the
// per-node adapter.
func batchOf(protos []Protocol) Batch {
	var b Batch
	for v, p := range protos {
		m, ok := p.(Member)
		if !ok {
			return newPerNode(protos)
		}
		mb, i, self := m.Member()
		if v == 0 {
			b = mb
		}
		if mb != b || i != int32(v) || self != p {
			return newPerNode(protos)
		}
	}
	if b == nil {
		return newPerNode(protos)
	}
	return b
}

// perNode adapts a Protocols slice to Batch with one interface call per
// node. Its decisions come from Settle, which polls Done over the
// started nodes that have not decided yet — a compact ascending list,
// so a slot costs one poll per undecided node, not one per awake node.
type perNode struct {
	protos []Protocol
	// undecided holds the started, undecided nodes in ascending order;
	// started collects this slot's Start calls until Settle merges them
	// in, and listed marks membership of either.
	undecided, started []int32
	listed             []bool
}

func newPerNode(protos []Protocol) *perNode {
	return &perNode{
		protos:    protos,
		undecided: make([]int32, 0, len(protos)),
		listed:    make([]bool, len(protos)),
	}
}

// Start wakes v. Starts run in the engine's sequential slot prologue,
// including the restarts that follow a retracted decision.
func (a *perNode) Start(slot int64, v int32) {
	a.protos[v].Start(slot)
	if !a.listed[v] {
		a.listed[v] = true
		a.started = append(a.started, v)
	}
}

func (a *perNode) Send(slot int64, ids []int32, skip []bool, out []Message, tx, dec []int32) ([]int32, []int32) {
	for _, v := range ids {
		if skip != nil && skip[v] {
			continue
		}
		if msg := a.protos[v].Send(slot); msg != nil {
			out[v] = msg
			tx = append(tx, v)
		}
	}
	return tx, dec
}

func (a *perNode) Recv(slot int64, v int32, msg Message) { a.protos[v].Recv(slot, msg) }

func (a *perNode) Settle(_ int64, skip []bool, dec []int32) []int32 {
	if len(a.started) > 0 {
		// Each slot's wake block is ascending already; restarts may not be.
		slices.Sort(a.started)
		a.undecided = mergeSorted(a.undecided, a.started)
		a.started = a.started[:0]
	}
	w := 0
	for _, v := range a.undecided {
		if (skip == nil || !skip[v]) && a.protos[v].Done() {
			a.listed[v] = false
			dec = append(dec, v)
		} else {
			a.undecided[w] = v
			w++
		}
	}
	a.undecided = a.undecided[:w]
	return dec
}
