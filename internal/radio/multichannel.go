package radio

import (
	"errors"
	"fmt"

	"radiocolor/internal/medium"
)

// RunMultiChannel executes cfg over `channels` independent channels
// with per-slot uniform random hopping (see medium.MultiChannel for the
// model and what experiment E21 measures with it). channels must be
// ≥ 1; channels == 1 reproduces Run exactly. The run goes through the
// engine's slot loop with a medium.MultiChannel instance bound on the
// reception seam, so Workers and Tiles, fault profiles (Config.Faults)
// and the metrics/observer seams all compose with the channel hopping.
// Skew profiles are rejected with an *UnsupportedError (compose.go).
func RunMultiChannel(cfg Config, channels int, hopSeed int64) (*Result, error) {
	if channels < 1 {
		return nil, fmt.Errorf("radio: %d channels", channels)
	}
	if cfg.Medium != nil {
		return nil, errors.New("radio: RunMultiChannel over a Config that already has a Medium")
	}
	if channels == 1 {
		return Run(cfg)
	}
	if cfg.G == nil {
		return nil, errors.New("radio: nil graph")
	}
	csr := cfg.G.CSR()
	inst, err := medium.MultiChannel{K: channels, HopSeed: hopSeed}.Bind(medium.Env{
		N:       cfg.G.N(),
		Offsets: csr.Offsets,
		Edges:   csr.Edges,
		Seed:    hopSeed,
	})
	if err != nil {
		return nil, err
	}
	cfg.Medium = inst
	return Run(cfg)
}
