package radiocolor

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
)

// goldenPoints places n nodes uniformly in a side×side square; with
// radius 1 and side 10 the mean degree at n=400 is about 12.
func goldenPoints(n int, seed int64) [][2]float64 {
	r := rand.New(rand.NewSource(seed))
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{r.Float64() * 10, r.Float64() * 10}
	}
	return pts
}

// fingerprint hashes the fields of an Outcome that pin the protocol's
// random execution: slot count, colors, per-node latencies, the leader
// set, and (when Stats is attached) the channel event totals.
func fingerprint(o *Outcome) uint64 {
	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(o.Slots)
	put(int64(len(o.Colors)))
	for _, c := range o.Colors {
		put(int64(c))
	}
	for _, l := range o.PerNodeLatency {
		put(l)
	}
	put(int64(len(o.Leaders)))
	for _, v := range o.Leaders {
		put(int64(v))
	}
	if s := o.Stats; s != nil {
		put(s.Transmissions)
		put(s.Deliveries)
		put(s.Collisions)
	}
	return h.Sum64()
}

// TestProtocolGolden pins the protocol's execution across the
// configurations of the slot loop the public API reaches: one tile
// (one worker and four), four tiles, the half-slot rule under loss,
// skew and crash/restart, a pluggable medium, and churn. Every configuration
// runs with Metrics and, unless -short, again without — the two take
// different engine paths — and both runs must agree on every outcome
// field. The fingerprints were recorded when the per-node streams became
// SplitMix64 (internal/rng), the tiled one when nodes kept their caller
// labels under relabeling; a change to any of them means a run's random
// execution changed, which a pure performance change must never do.
// Tiling is a speed-only choice, so a tiled case must also fingerprint
// exactly like the same options with Tiling 0.
func TestProtocolGolden(t *testing.T) {
	pts := goldenPoints(400, 41)
	crashy := &FaultConfig{
		Loss:     0.05,
		SkewProb: 0.25,
		Crashes:  []NodeCrash{{Node: 3, At: 300, Restart: 2000}, {Node: 77, At: 900}},
	}
	cases := []struct {
		name string
		opt  Options
		want uint64
	}{
		{"sync", Options{Seed: 2}, 0xd893579f1922753e},
		{"uniform", Options{Seed: 3, Wakeup: WakeupUniform}, 0xefae6ef104d7de6c},
		{"uniform-loss-skew-crash", Options{Seed: 4, Wakeup: WakeupUniform, Faults: crashy}, 0xe478e90817a4683a},
		{"workers4", Options{Seed: 5, Wakeup: WakeupUniform, Workers: 4}, 0x49133cc222d6b6aa},
		{"tiled4-workers4", Options{Seed: 6, Wakeup: WakeupUniform, Tiling: 4, Workers: 4}, 0x4f558590bb5034ab},
		{"medium-multichannel", Options{Seed: 7, Medium: &MediumConfig{Kind: "multichannel", Channels: 2}}, 0xed725bfca7ebbbe7},
		{"churn", Options{Seed: 8, Churn: &ChurnConfig{
			Leaves: []ChurnEvent{{Node: 10, At: 500}, {Node: 11, At: 700}},
			Joins:  []ChurnEvent{{Node: 10, At: 3000}, {Node: 12, At: 1500}},
		}}, 0xc78e4e061303778c},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			withStats := c.opt
			withStats.Metrics = true
			metered, err := ColorUnitDisk(pts, 1, withStats)
			if err != nil {
				t.Fatal(err)
			}
			if metered.Stats == nil {
				t.Fatal("Metrics run has no Stats")
			}
			if !testing.Short() {
				plain, err := ColorUnitDisk(pts, 1, c.opt)
				if err != nil {
					t.Fatal(err)
				}
				plain.Stats = metered.Stats
				if !reflect.DeepEqual(plain, metered) {
					t.Fatalf("Metrics changed the outcome:\n plain   %+v\n metered %+v", plain, metered)
				}
			}
			if got := fingerprint(metered); got != c.want {
				t.Errorf("fingerprint = %#x, want %#x (slots=%d ok=%v)", got, c.want, metered.Slots, metered.OK())
			}
			if c.opt.Tiling != 0 {
				untiled := withStats
				untiled.Tiling = 0
				ref, err := ColorUnitDisk(pts, 1, untiled)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := fingerprint(metered), fingerprint(ref); got != want {
					t.Errorf("tiled fingerprint %#x differs from the Tiling 0 run's %#x", got, want)
				}
			}
		})
	}
}
