package radio

import (
	"radiocolor/internal/obs"
)

// mediumResolveDeliver is the resolve+deliver phase of the pluggable
// medium path (Config.Medium non-nil): the medium computes this slot's
// receptions from the transmitter list and the standing listener
// predicate, then each reception runs through the same fault
// suppression (jam, then loss) as the built-in rule before the
// protocol's Recv.
//
// The division of labor: crash faults act before the Send phase (a
// crashed node is neither a transmitter nor a listener, which the
// medium sees through the predicate), jam and loss act per reception
// here. Collisions, drowned and below-noise losses arrive as aggregate
// per-slot stats — the medium path does not emit per-listener
// OnCollision events (media may not even have a per-listener collision
// notion; SINR's interference is cumulative).
func (e *Engine) mediumResolveDeliver(t int64, ob Observer, met *obs.Metrics) {
	recs, st := e.med.Resolve(t, e.tx, e.listenFn, e.recs[:0])
	e.recs = recs // keep the grown buffer for the next slot
	e.res.Collisions += st.Collisions
	e.res.Drowned += st.Drowned
	e.res.BelowNoise += st.BelowNoise
	if met != nil {
		met.AddCollisions(st.Collisions)
		met.AddDrowned(st.Drowned)
		met.AddBelowNoise(st.BelowNoise)
	}
	for i := range recs {
		r := &recs[i]
		if e.fs != nil && e.faultSuppressed(t, r.From, r.To, &e.res.Jammed, &e.res.Lost, met) {
			continue
		}
		e.res.Deliveries++
		if r.Captured {
			e.res.Captures++
			if met != nil {
				met.AddCapture()
			}
		}
		msg := e.out[r.From]
		if ob != nil {
			ob.OnDeliver(t, NodeID(r.To), msg)
		}
		if met != nil {
			met.AddDelivery()
		}
		e.cfg.Protocols[r.To].Recv(t, msg)
	}
}
