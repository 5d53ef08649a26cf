package radio_test

import (
	"reflect"
	"testing"

	"radiocolor/internal/churn"
	"radiocolor/internal/fault"
	"radiocolor/internal/medium"
	"radiocolor/internal/radio"
	"radiocolor/internal/topology"
)

// These tests pin the message-lifetime half of the Protocol.Send
// contract: a message returned by Send must stay valid through the
// slot after it, and no longer. outboxProto comes in two twins with
// identical random streams. The poisoning twin reuses a two-buffer
// outbox exactly at that limit and overwrites every expired buffer
// with garbage; the fresh twin allocates every message. A loop or
// observer that reads a message past its window reads garbage, which
// feeds the receiver's state, its send probability and its Done, so
// the twins' Results diverge.

// stampMsg carries the slot of the Send that produced it, or -1 once
// its buffer is poisoned.
type stampMsg struct {
	from  radio.NodeID
	stamp int64
	val   uint32
}

func (m *stampMsg) Sender() radio.NodeID { return m.from }
func (m *stampMsg) Bits(int) int         { return 8 + int(m.val&7) }

var poisoned = stampMsg{from: -1, stamp: -1, val: 0xdeadbeef}

type outboxProto struct {
	id     radio.NodeID
	rng    radio.Rand
	poison bool
	buf    [2]stampMsg

	acc   uint32 // mix of every payload received
	recvs int
	stale int // messages received outside their validity window
}

// expire poisons every buffer whose message's window has closed by
// slot: the message of slot s is valid through s+1.
func (p *outboxProto) expire(slot int64) {
	for i := range p.buf {
		if p.buf[i].stamp < slot-1 {
			p.buf[i] = poisoned
		}
	}
}

func (p *outboxProto) Start(int64) {}

func (p *outboxProto) Send(slot int64) radio.Message {
	if p.poison {
		p.expire(slot)
	}
	if p.rng.Float64() >= 0.06+0.03*float64(p.acc&3) {
		return nil
	}
	m := stampMsg{from: p.id, stamp: slot, val: p.acc ^ uint32(p.id)*2654435761 ^ uint32(slot)}
	if !p.poison {
		return &m
	}
	b := &p.buf[slot&1]
	*b = m
	return b
}

func (p *outboxProto) Recv(slot int64, msg radio.Message) {
	if p.poison {
		p.expire(slot)
	}
	m := msg.(*stampMsg)
	// The half-slot loop delivers slot t's messages during slot t+1.
	if m.stamp != slot && m.stamp != slot-1 {
		p.stale++
	}
	p.acc = p.acc*31 + m.val + uint32(m.from)
	p.recvs++
}

func (p *outboxProto) Done() bool { return p.recvs >= 12 || p.recvs >= 4 && p.acc%3 != 0 }

// Color implements radio.Colored, so churn's retraction repair runs.
func (p *outboxProto) Color() int32 { return int32(p.acc % 5) }

// Reset implements radio.Restartable. The outbox is left alone: a
// message sent before a crash may still be in flight.
func (p *outboxProto) Reset() { p.acc, p.recvs = 0, 0 }

// windowObserver checks every message an observer sees is inside its
// window and hashes the events order-free.
type windowObserver struct {
	radio.NopObserver
	sum   uint64
	stale int
}

func (o *windowObserver) note(slot int64, node radio.NodeID, msg radio.Message, kind uint64) {
	m := msg.(*stampMsg)
	if m.stamp != slot && m.stamp != slot-1 {
		o.stale++
	}
	h := (uint64(slot)<<20 ^ uint64(node)<<8 ^ kind) * 0x9E3779B97F4A7C15
	o.sum += h ^ uint64(m.val)<<1 ^ uint64(uint32(m.Sender()))<<33
}

func (o *windowObserver) OnTransmit(slot int64, from radio.NodeID, msg radio.Message) {
	o.note(slot, from, msg, 1)
}

func (o *windowObserver) OnDeliver(slot int64, to radio.NodeID, msg radio.Message) {
	o.note(slot, to, msg, 2)
}

func TestOutboxContractOnEveryLoop(t *testing.T) {
	d := topology.UDGWithTargetDegree(120, 8, 21)
	g, n := d.G, d.G.N()
	csr := g.CSR()
	wake := radio.WakeUniform(n, 30, 5)
	faults := func(skew float64) *fault.Injector {
		inj, err := (&fault.Profile{
			Seed: 9, Loss: 0.1, SkewProb: skew,
			Crashes: []fault.Crash{{Node: 4, At: 40, Restart: 90}, {Node: 50, At: 70}},
		}).Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	bind := func(m medium.Medium) func() medium.Instance {
		return func() medium.Instance {
			inst, err := m.Bind(medium.Env{N: n, Offsets: csr.Offsets, Edges: csr.Edges, Points: d.Points, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			return inst
		}
	}
	plan := func() *churn.Plan {
		p, err := (&churn.Schedule{
			Leaves: []churn.Event{{Node: 7, At: 50}, {Node: 30, At: 80}},
			Joins:  []churn.Event{{Node: 7, At: 120}, {Node: 99, At: 60}},
		}).Compile(churn.Env{G: g})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	type loop struct {
		name      string
		workers   int
		tiles     int
		faults    func() *fault.Injector
		medium    func() medium.Instance
		churn     func() *churn.Plan
		unaligned bool
		reference bool
	}
	loops := []loop{
		{name: "csr/w1", workers: 1},
		{name: "csr/w4", workers: 4},
		{name: "csr/w1/faults", workers: 1, faults: func() *fault.Injector { return faults(0) }},
		{name: "tiled/w1", workers: 1, tiles: 4},
		{name: "tiled/w4", workers: 4, tiles: 4},
		{name: "tiled/w4/faults", workers: 4, tiles: 4, faults: func() *fault.Injector { return faults(0) }},
		{name: "unaligned", unaligned: true},
		{name: "unaligned/skew-faults", unaligned: true, faults: func() *fault.Injector { return faults(0.5) }},
		{name: "medium/graph-capture", workers: 1, medium: bind(medium.GraphThreshold{Capture: 0.5})},
		{name: "medium/sinr", workers: 4, medium: bind(medium.SINR{Alpha: 4, Beta: 1.5,
			NoiseDBM: medium.MatchedNoiseDBM(0, 1.5, 4, d.Radius)})},
		{name: "medium/multichannel", workers: 1, medium: bind(medium.MultiChannel{K: 2, HopSeed: 3})},
		{name: "churn/w1", workers: 1, churn: plan},
		{name: "churn/tiled-w4", workers: 4, tiles: 4, churn: plan},
		{name: "reference/w1", workers: 1, reference: true},
		{name: "reference/w4", workers: 4, reference: true},
	}

	type outcome struct {
		res    *radio.Result
		state  [][3]int64
		obsSum uint64
	}
	run := func(t *testing.T, l loop, poison, observe bool) outcome {
		protos := make([]radio.Protocol, n)
		nodes := make([]*outboxProto, n)
		for i := range protos {
			nodes[i] = &outboxProto{id: radio.NodeID(i), rng: radio.NodeRand(11, radio.NodeID(i)), poison: poison}
			protos[i] = nodes[i]
		}
		cfg := radio.Config{G: g, Protocols: protos, Wake: wake, MaxSlots: 400, NEstimate: n,
			Workers: l.workers, Tiles: l.tiles}
		var ob *windowObserver
		if observe {
			ob = &windowObserver{}
			cfg.Observer = ob
		}
		if l.faults != nil {
			cfg.Faults = l.faults()
		}
		if l.medium != nil {
			cfg.Medium = l.medium()
		}
		if l.churn != nil {
			cfg.Churn = l.churn()
		}
		var res *radio.Result
		var err error
		switch {
		case l.unaligned:
			res, err = radio.RunUnaligned(cfg, nil)
		case l.reference:
			res, err = radio.RunReference(cfg)
		default:
			res, err = radio.Run(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{res: res, state: make([][3]int64, n)}
		for i, v := range nodes {
			if v.stale != 0 {
				t.Errorf("poison=%v observe=%v: node %d received %d messages outside their window", poison, observe, i, v.stale)
			}
			out.state[i] = [3]int64{int64(v.acc), int64(v.recvs), int64(v.stale)}
		}
		if ob != nil {
			if ob.stale != 0 {
				t.Errorf("poison=%v: the observer saw %d messages outside their window", poison, ob.stale)
			}
			out.obsSum = ob.sum
		}
		return out
	}

	for _, l := range loops {
		t.Run(l.name, func(t *testing.T) {
			for _, observe := range []bool{false, true} {
				fresh := run(t, l, false, observe)
				reused := run(t, l, true, observe)
				if fresh.res.Transmissions == 0 || fresh.res.Deliveries == 0 {
					t.Fatalf("observe=%v: vacuous run: %v", observe, fresh.res)
				}
				if !reflect.DeepEqual(fresh.res, reused.res) {
					t.Errorf("observe=%v: Result differs with a reusing outbox\n fresh:  %v\n reused: %v", observe, fresh.res, reused.res)
				}
				if !reflect.DeepEqual(fresh.state, reused.state) || fresh.obsSum != reused.obsSum {
					t.Errorf("observe=%v: protocol state or observed events differ with a reusing outbox", observe)
				}
			}
		})
	}
}
