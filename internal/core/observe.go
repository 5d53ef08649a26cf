package core

import "radiocolor/internal/obs"

// internal/obs mirrors the protocol's phase enum by value so that the
// stdlib-only obs package needs no import of core (core imports radio,
// radio imports obs — an import back into core would cycle). The
// conversion below is therefore a plain integer cast; the pinning test
// in observe_test.go keeps the two enums aligned.

// ObservePhases installs a phase hook on every node that forwards
// transitions into c (trace phase events and the per-phase timeline,
// whichever are present). Call before the run starts. A nil or empty
// collector installs nothing, keeping the nodes on the hook-free fast
// path.
func ObservePhases(nodes []*Node, c *obs.Collector) {
	if c == nil || (c.Tracer == nil && c.Timeline == nil) {
		return
	}
	hook := func(slot int64, node int32, from, to Phase, class int32) {
		c.OnPhase(slot, node, obs.Phase(from), obs.Phase(to), class)
	}
	for _, v := range nodes {
		v.SetPhaseHook(hook)
	}
}
