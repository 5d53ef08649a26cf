package radiocolor

import (
	"fmt"

	"radiocolor/internal/medium"
)

// MediumConfig selects the reception model a run simulates — the
// physical layer under the protocol. The default (Options.Medium nil)
// is the paper's rule, hard-coded on the engine's fast path: a listener
// receives iff exactly one graph neighbor transmits. The alternatives
// (see internal/medium for the model definitions):
//
//   - "graph": the same rule through the pluggable seam — semantically
//     identical to nil, useful only for differential testing;
//   - "sinr": the physical model — received power P·d^−α over the
//     nodes' positions, cumulative interference from every concurrent
//     transmitter, decode iff signal ≥ Beta·(noise + interference),
//     capture effect included. Requires a geometric entry point
//     (ColorUnitDisk); positions do not survive the adjacency-only
//     ones. Outcome.Stats then carries the drowned / below-noise loss
//     counters;
//   - "multichannel": Channels independent channels with per-slot
//     uniform random hopping; sender and receiver must coincide.
//
// Fault injection (Options.Faults) composes with every medium — crash
// faults silence nodes before the medium resolves a slot, jam/loss
// suppress individual receptions after — except clock skew, which
// Options.Validate rejects together with a medium (ErrUnsupported).
type MediumConfig struct {
	// Kind is "graph", "sinr" or "multichannel" ("" means "graph").
	Kind string
	// Alpha is the SINR path-loss exponent (0 = default 4).
	Alpha float64
	// Beta is the SINR decode threshold (0 = default 1.5).
	Beta float64
	// NoiseDBM is the SINR noise floor in dBm (0 = default −90; an
	// actual 0 dBm floor is out of the useful range anyway).
	NoiseDBM float64
	// PowerDBM is the uniform transmission power in dBm (default 0).
	PowerDBM float64
	// Channels is the multichannel channel count (0 = default 2).
	Channels int
	// HopSeed drives the multichannel hopping schedule (0 = Options.Seed).
	HopSeed int64
}

// ParseMedium parses the compact medium syntax shared by
// cmd/colorsim -medium and the serve job API's "medium" field:
//
//	graph
//	sinr,alpha=4,beta=1.5,noise=-90,power=0
//	multichannel,k=4,hopseed=21
//
// Omitted keys take the defaults documented on MediumConfig. An empty
// string yields nil (the engine's built-in default path).
func ParseMedium(s string) (*MediumConfig, error) {
	sp, err := medium.ParseSpec(s)
	if err != nil {
		return nil, fmt.Errorf("radiocolor: %w", err)
	}
	if sp == nil {
		return nil, nil
	}
	return &MediumConfig{
		Kind:     sp.Kind,
		Alpha:    sp.Alpha,
		Beta:     sp.Beta,
		NoiseDBM: sp.NoiseDBM,
		PowerDBM: sp.PowerDBM,
		Channels: sp.Channels,
		HopSeed:  sp.HopSeed,
	}, nil
}

// String renders the config in ParseMedium's syntax.
func (m *MediumConfig) String() string { return m.spec().String() }

// spec converts to the internal representation (defaults applied).
func (m *MediumConfig) spec() medium.Spec {
	if m == nil {
		return medium.Spec{}
	}
	return medium.Spec{
		Kind:     m.Kind,
		Alpha:    m.Alpha,
		Beta:     m.Beta,
		NoiseDBM: m.NoiseDBM,
		PowerDBM: m.PowerDBM,
		Channels: m.Channels,
		HopSeed:  m.HopSeed,
	}.Normalized()
}
