package main

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"
)

// The host this benchmark is tuned on (a 2-vCPU cloud VM) changes speed
// in episodes: the same CPU-bound work runs up to 1.6–2× slower for
// tens of seconds at a time, longer than a run. Raw wall times of a run
// therefore depend on when it happened more than on the code (see
// README.md). A hostClock measures the host's momentary speed with a
// fixed probe — work of the benchmark's own, which no change to the
// repository can speed up — taken before the first and after every
// timed operation. A probe unit allocates short slices, fills them from
// a math/rand source and sorts them, the kind of work graph generation
// and the protocol's nodes do. Across back-to-back set-ups and solves,
// their times moved in proportion to this probe's (elasticity 0.88–1.0),
// while a probe reading 1000 math/rand sources in turn moved 2.5× more
// than they did (see README.md). Each operation's wall time is then
// rescaled by the probe speed around it to the speed at which one probe
// unit takes refUnit: host-corrected seconds.

const (
	// One probe unit fills and sorts probeSlices slices of probeLen
	// values; probeUnits units are one probe (about 0.1 s in all). The
	// last probeKeep slices stay live, so allocation is not reuse of a
	// just-freed block.
	probeSlices = 20
	probeLen    = 2000
	probeKeep   = 64
	probeUnits  = 32
	// refUnit is the probe unit's duration on the reference host: the
	// fast state of a 2-vCPU Intel Xeon VM, Go 1.24.
	refUnit = 3200 * time.Microsecond
)

type hostClock struct {
	rng  *rand.Rand
	keep [][]float64
	// probes holds each probe's median unit duration in seconds.
	probes []float64
}

// newHostClock takes the probe that precedes the first timed operation.
func newHostClock() *hostClock {
	c := &hostClock{rng: rand.New(rand.NewSource(1))}
	c.probe()
	return c
}

// probe times probeUnits units of the fixed work and records their
// median, which a single preemption cannot move.
func (c *hostClock) probe() {
	units := make([]float64, probeUnits)
	for i := range units {
		t0 := time.Now()
		for k := 0; k < probeSlices; k++ {
			xs := make([]float64, probeLen)
			for j := range xs {
				xs[j] = c.rng.Float64()
			}
			sort.Float64s(xs)
			if c.keep = append(c.keep, xs); len(c.keep) > probeKeep {
				c.keep = c.keep[1:]
			}
		}
		units[i] = time.Since(t0).Seconds()
	}
	c.probes = append(c.probes, median(units))
}

// timing is one operation's wall time and the probe taken before it.
type timing struct {
	d     time.Duration
	probe int
}

// stamp records d as timed since the most recent probe. A probe must
// follow before the timing is corrected.
func (c *hostClock) stamp(d time.Duration) timing { return timing{d: d, probe: len(c.probes) - 1} }

// corrected converts timings to host-corrected seconds: each wall time
// times refUnit over the mean of the probes just before and after it.
func (c *hostClock) corrected(ts []timing) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		around := (c.probes[t.probe] + c.probes[t.probe+1]) / 2
		out[i] = t.d.Seconds() * refUnit.Seconds() / around
	}
	return out
}

// wall is the timings' uncorrected seconds.
func wall(ts []timing) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.d.Seconds()
	}
	return out
}

// logSlowdown reports on the log how much slower than refUnit the
// probes ran, so the correction's size is visible next to the result.
func (c *hostClock) logSlowdown(log io.Writer, name string) {
	ratios := make([]float64, len(c.probes))
	for i, p := range c.probes {
		ratios[i] = p / refUnit.Seconds()
	}
	fmt.Fprintf(log, "perfbench: %s: %d probes, host slowdown median %.3f (range %.3f–%.3f), fastest unit %.4g ms\n",
		name, len(c.probes), median(ratios), quantile(ratios, 0), quantile(ratios, 1), 1000*quantile(c.probes, 0))
}
