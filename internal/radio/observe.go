package radio

import "radiocolor/internal/obs"

// This file is the bridge between the engines' Observer seam, their only
// event seam, and the observability subsystem (internal/obs); it is the
// only file of the package that imports obs. The run's own counters are
// Result's.

// collectorObserver feeds a Collector's Tracer and Timeline from the
// Observer seam.
type collectorObserver struct {
	tr *obs.Tracer
	tl *obs.Timeline
}

// CollectorObserver adapts c's Tracer and Timeline into an Observer.
// Returns nil (the disabled observer) when c has neither, so callers
// can pass the result straight into Config.Observer.
func CollectorObserver(c *obs.Collector) Observer {
	if c == nil || (c.Tracer == nil && c.Timeline == nil) {
		return nil
	}
	return &collectorObserver{tr: c.Tracer, tl: c.Timeline}
}

// OnSlot implements Observer.
func (o *collectorObserver) OnSlot(slot int64) {
	if o.tl != nil {
		o.tl.OnSlot(slot)
	}
}

// OnWake implements Observer.
func (o *collectorObserver) OnWake(slot int64, node NodeID) {
	if o.tr != nil {
		o.tr.Record(obs.Event{Slot: slot, Kind: obs.KindWake, Node: int32(node), From: -1})
	}
}

// OnTransmit implements Observer.
func (o *collectorObserver) OnTransmit(slot int64, from NodeID, msg Message) {
	if o.tr != nil {
		o.tr.Record(obs.Event{Slot: slot, Kind: obs.KindTransmit, Node: int32(from), From: -1})
	}
	if o.tl != nil {
		o.tl.OnTransmit(slot, int32(from))
	}
}

// OnDeliver implements Observer.
func (o *collectorObserver) OnDeliver(slot int64, to NodeID, msg Message) {
	if o.tr != nil {
		o.tr.Record(obs.Event{Slot: slot, Kind: obs.KindDeliver, Node: int32(to), From: int32(msg.Sender())})
	}
	if o.tl != nil {
		o.tl.OnDeliver(slot, int32(to))
	}
}

// OnCollision implements Observer.
func (o *collectorObserver) OnCollision(slot int64, at NodeID, transmitters int) {
	if o.tr != nil {
		o.tr.Record(obs.Event{Slot: slot, Kind: obs.KindCollision, Node: int32(at), From: -1, Count: int32(transmitters)})
	}
	if o.tl != nil {
		o.tl.OnCollision(slot, int32(at))
	}
}

// OnDecide implements Observer.
func (o *collectorObserver) OnDecide(slot int64, node NodeID) {
	if o.tr != nil {
		o.tr.Record(obs.Event{Slot: slot, Kind: obs.KindDecide, Node: int32(node), From: -1})
	}
	if o.tl != nil {
		o.tl.OnDecide(slot, int32(node))
	}
}

// multiObserver fans events out to several observers in order.
type multiObserver []Observer

// Observers composes observers into one, dropping nils. Returns nil
// when none remain (keeping Config.Observer on the disabled fast path)
// and the observer itself when exactly one remains (no fan-out cost).
func Observers(list ...Observer) Observer {
	var active multiObserver
	for _, o := range list {
		if o != nil {
			active = append(active, o)
		}
	}
	switch len(active) {
	case 0:
		return nil
	case 1:
		return active[0]
	}
	return active
}

// OnSlot implements Observer.
func (m multiObserver) OnSlot(slot int64) {
	for _, o := range m {
		o.OnSlot(slot)
	}
}

// OnWake implements Observer.
func (m multiObserver) OnWake(slot int64, node NodeID) {
	for _, o := range m {
		o.OnWake(slot, node)
	}
}

// OnTransmit implements Observer.
func (m multiObserver) OnTransmit(slot int64, from NodeID, msg Message) {
	for _, o := range m {
		o.OnTransmit(slot, from, msg)
	}
}

// OnDeliver implements Observer.
func (m multiObserver) OnDeliver(slot int64, to NodeID, msg Message) {
	for _, o := range m {
		o.OnDeliver(slot, to, msg)
	}
}

// OnCollision implements Observer.
func (m multiObserver) OnCollision(slot int64, at NodeID, transmitters int) {
	for _, o := range m {
		o.OnCollision(slot, at, transmitters)
	}
}

// OnDecide implements Observer.
func (m multiObserver) OnDecide(slot int64, node NodeID) {
	for _, o := range m {
		o.OnDecide(slot, node)
	}
}
