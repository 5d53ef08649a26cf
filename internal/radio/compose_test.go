package radio

import (
	"errors"
	"strings"
	"testing"

	"radiocolor/internal/churn"
	"radiocolor/internal/fault"
)

// TestReferenceEngineRejectsSeams: the reference engine runs the static,
// fault-free model on the built-in rule, so each of the seams it would
// otherwise ignore is a typed rejection naming the seam. Churn used to
// be ignored silently: the reference engine ran the static graph.
func TestReferenceEngineRejectsSeams(t *testing.T) {
	g := line(4)
	base := func() Config {
		protos := make([]Protocol, 4)
		for i := range protos {
			protos[i] = idleProto{}
		}
		return Config{G: g, Protocols: protos, Wake: WakeSynchronous(4), MaxSlots: 10}
	}
	if _, err := NewReferenceEngine(base()); err != nil {
		t.Fatalf("plain config rejected: %v", err)
	}
	cases := map[string]func(*Config){
		"Churn": func(c *Config) {
			c.Churn = mustPlan(t, &churn.Schedule{Leaves: []churn.Event{{Node: 1, At: 3}}}, g)
		},
		"Faults": func(c *Config) { c.Faults = mustInjector(t, &fault.Profile{Loss: 0.5, Seed: 1}, 4) },
		"Medium": func(c *Config) { bindGraphMedium(t, c) },
	}
	for name, set := range cases {
		cfg := base()
		set(&cfg)
		_, err := NewReferenceEngine(cfg)
		if !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: err = %v, want ErrUnsupported", name, err)
			continue
		}
		var ue *UnsupportedError
		if !errors.As(err, &ue) || !strings.Contains(err.Error(), "the reference engine cannot combine with "+name+" (") {
			t.Errorf("%s: error %q does not name the pair", name, err)
		}
	}
}
