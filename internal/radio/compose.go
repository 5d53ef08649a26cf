package radio

import (
	"errors"
	"fmt"
)

// ErrUnsupported is the sentinel every rejected seam combination
// satisfies: errors.Is(err, ErrUnsupported) holds for each
// *UnsupportedError.
var ErrUnsupported = errors.New("unsupported seam combination")

// UnsupportedError reports a pair of seams the engine does not compose,
// naming each by its Config (and radiocolor.Options) field, with the
// reason from the composition table.
type UnsupportedError struct {
	a, b, reason string
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("radio: %s cannot combine with %s (%s)", e.a, e.b, e.reason)
}

// Is makes every UnsupportedError match ErrUnsupported.
func (e *UnsupportedError) Is(target error) bool { return target == ErrUnsupported }

// The out-of-model seams a run can turn on, each named by the Config
// field that turns it on.
const (
	seamFaults = "Faults"
	seamSkew   = "clock-skew Faults" // a skew fault profile, or RunUnaligned's offsets
	seamMedium = "Medium"
	seamChurn  = "Churn"
)

// unsupported is the composition table: every pair of seams the engine
// rejects, with its reason. Every other pair composes, pinned by the
// composition matrix test against its Workers 1 / Tiles 0 run.
// NewEngine and, through CheckSeams, radiocolor.Options.Validate and
// colorsim ask this table and keep no rules of their own. (The
// reference engine, a test-only oracle, states its own three
// rejections in reference_test.go.)
//
// Two rows change speed only and are therefore not rejected:
//   - an Observer makes the sweeps run on one goroutine, and with
//     Tiles ≤ 1 as one tile, so that traced event streams stay ordered;
//   - under a Medium or clock skew the tiles only split the Send sweep
//     (the medium or the half-slot rule resolves each slot in one pass
//     over the transmitters), and the radiocolor entry points do not
//     relabel those runs for locality.
var unsupported = []struct{ a, b, reason string }{
	{seamMedium, seamSkew, "the half-slot rule owns reception"},
	{seamChurn, seamSkew, "the half-slot rule reads a static neighbor view"},
	{seamChurn, seamMedium, "media bind to a static graph"},
}

// CheckSeams asks the composition table whether one run may turn on
// these seams together: fault injection, clock skew (which implies
// faults), a pluggable medium and churn. It returns an
// *UnsupportedError for the first rejected pair, or nil.
func CheckSeams(faults, skew, medium, churn bool) error {
	on := map[string]bool{
		seamFaults: faults || skew, seamSkew: skew, seamMedium: medium, seamChurn: churn,
	}
	for _, r := range unsupported {
		if on[r.a] && on[r.b] {
			return &UnsupportedError{a: r.a, b: r.b, reason: r.reason}
		}
	}
	return nil
}
