package core_test

import (
	"testing"
	"time"

	"radiocolor/internal/core"
	"radiocolor/internal/radio"
	"radiocolor/internal/topology"
)

// perNode hides a Node's batch membership, so the engine drives it one
// interface call per node through its generic adapter.
type perNode struct{ v *core.Node }

func (p perNode) Start(slot int64)                   { p.v.Start(slot) }
func (p perNode) Send(slot int64) radio.Message      { return p.v.Send(slot) }
func (p perNode) Recv(slot int64, msg radio.Message) { p.v.Recv(slot, msg) }
func (p perNode) Done() bool                         { return p.v.Done() }
func (p perNode) Reset()                             { p.v.Reset() }
func (p perNode) Color() int32                       { return p.v.Color() }

// adapted wraps every protocol of a core.Nodes slice in perNode.
func adapted(nodes []*core.Node) []radio.Protocol {
	protos := make([]radio.Protocol, len(nodes))
	for i, v := range nodes {
		protos[i] = perNode{v}
	}
	return protos
}

// BenchmarkSlotLoop times the slot loop at one tile on a full-1k-shaped run
// (n=1000 UDG of target degree 12, practical constants at scale 1.5,
// synchronous wake-up, one worker) to completion, driven by the Flat
// batch and by the per-node adapter over the same handles. It reports
// wall time per node-slot, the unit of the protocol's work.
func BenchmarkSlotLoop(b *testing.B) {
	d := topology.UDGWithTargetDegree(1000, 12, 3)
	par := core.Practical(d.N(), d.G.MaxDegree(), 5, 12).Scale(1.5)
	for _, mode := range []string{"batch", "adapter"} {
		b.Run(mode, func(b *testing.B) {
			var nodeSlots int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				nodes, protos := core.Nodes(d.N(), int64(i), par, core.Ablation{})
				if mode == "adapter" {
					protos = adapted(nodes)
				}
				t0 := time.Now()
				res, err := radio.Run(radio.Config{
					G: d.G, Protocols: protos, Wake: radio.WakeSynchronous(d.N()), NEstimate: par.N,
				})
				elapsed += time.Since(t0)
				if err != nil || !res.AllDone {
					b.Fatalf("run failed: %v", err)
				}
				nodeSlots += res.Slots * int64(d.N())
			}
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(nodeSlots), "ns/node-slot")
		})
	}
}
