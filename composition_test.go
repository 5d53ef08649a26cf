package radiocolor_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"radiocolor"
	"radiocolor/internal/churn"
	"radiocolor/internal/core"
	"radiocolor/internal/fault"
	"radiocolor/internal/medium"
	"radiocolor/internal/obs"
	"radiocolor/internal/radio"
	"radiocolor/internal/serve"
	"radiocolor/internal/topology"
)

// seamSet is a subset of the seams the composition matrix crosses.
type seamSet uint8

const (
	withFaults   seamSet = 1 << iota // i.i.d. loss plus a crash/restart
	withSkew                         // clock-skew faults
	withMedium                       // multichannel hopping
	withChurn                        // a leave and a rejoin
	withObserver                     // a caller Observer
	numSubsets   = 1 << 5
)

// rejectedPairs is the matrix's own statement of which seams must not
// combine; it is deliberately not read from the engine's table.
var rejectedPairs = []seamSet{
	withSkew | withMedium,
	withSkew | withChurn,
	withMedium | withChurn,
}

func (s seamSet) rejected() bool {
	for _, p := range rejectedPairs {
		if s&p == p {
			return true
		}
	}
	return false
}

func (s seamSet) String() string {
	var parts []string
	for i, name := range []string{"faults", "skew", "medium", "churn", "observer"} {
		if s&(1<<i) != 0 {
			parts = append(parts, name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// The seams' settings, in the string form all three surfaces parse.
// The crash victim (node 3) and the churn subject (node 10) differ, as
// they must.
const (
	mediumSpec = "multichannel,k=4"
	churnSpec  = "leave=10@300,join=10@900"
)

func (s seamSet) faultSpec() string {
	var terms []string
	if s&withFaults != 0 {
		terms = append(terms, "loss=0.1", "crash=3@40:400")
	}
	if s&withSkew != 0 {
		terms = append(terms, "skew=0.25")
	}
	return strings.Join(terms, ",")
}

// The deployment every cell runs on, as colorsim and colord generate it
// from the same parameters.
const (
	matrixN      = 48
	matrixSide   = 4.5
	matrixRadius = 1.0
	matrixSeed   = 3
)

func matrixDeployment() *topology.Deployment {
	return topology.RandomUDG(topology.UDGConfig{N: matrixN, Side: matrixSide, Radius: matrixRadius, Seed: matrixSeed})
}

// countObserver counts the events a run reports to the caller.
type countObserver struct{ events int }

func (o *countObserver) OnSlot(int64)                  { o.events++ }
func (o *countObserver) OnWake(int64, int)             { o.events++ }
func (o *countObserver) OnTransmit(int64, int)         { o.events++ }
func (o *countObserver) OnDeliver(int64, int, int)     { o.events++ }
func (o *countObserver) OnCollision(int64, int, int)   { o.events++ }
func (o *countObserver) OnDecide(slot int64, node int) { o.events++ }

func matrixOptions(t *testing.T, s seamSet, wk radiocolor.Wakeup, workers, tiles int) radiocolor.Options {
	t.Helper()
	opt := radiocolor.Options{Seed: 5, Wakeup: wk, Workers: workers, Tiling: tiles}
	var err error
	if spec := s.faultSpec(); spec != "" {
		if opt.Faults, err = radiocolor.ParseFaults(spec); err != nil {
			t.Fatal(err)
		}
	}
	if s&withMedium != 0 {
		if opt.Medium, err = radiocolor.ParseMedium(mediumSpec); err != nil {
			t.Fatal(err)
		}
	}
	if s&withChurn != 0 {
		if opt.Churn, err = radiocolor.ParseChurn(churnSpec); err != nil {
			t.Fatal(err)
		}
	}
	if s&withObserver != 0 {
		opt.Observer = &countObserver{}
	}
	return opt
}

// matrixConfig builds the engine configuration of a cell directly on
// internal/radio, seams compiled for the deployment.
func matrixConfig(t *testing.T, d *topology.Deployment, s seamSet, wk radiocolor.Wakeup, workers, tiles int) radio.Config {
	t.Helper()
	n := d.N()
	par := core.Practical(n, d.G.MaxDegree(), 3, 9)
	_, protos := core.Nodes(n, 5, par, core.Ablation{})
	cfg := radio.Config{G: d.G, Protocols: protos, Workers: workers, Tiles: tiles}
	for _, p := range radio.WakePatterns {
		if p.Name == wk.String() {
			cfg.Wake = p.Make(n, par.WaitSlots(), 5)
		}
	}
	if spec := s.faultSpec(); spec != "" {
		prof, err := fault.ParseProfile(spec)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Faults, err = prof.Compile(n); err != nil {
			t.Fatal(err)
		}
	}
	if s&withMedium != 0 {
		spec, err := medium.ParseSpec(mediumSpec)
		if err != nil {
			t.Fatal(err)
		}
		model, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		csr := d.G.CSR()
		if cfg.Medium, err = model.Bind(medium.Env{N: n, Offsets: csr.Offsets, Edges: csr.Edges, Seed: 5}); err != nil {
			t.Fatal(err)
		}
	}
	if s&withChurn != 0 {
		sch, err := churn.ParseSchedule(churnSpec)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Churn, err = sch.Compile(churn.Env{G: d.G}); err != nil {
			t.Fatal(err)
		}
	}
	if s&withObserver != 0 {
		cfg.Observer = radio.CollectorObserver(&obs.Collector{Timeline: obs.NewTimeline(n, 0)})
	}
	return cfg
}

// TestCompositionMatrix crosses every subset of {Faults, clock skew,
// Medium, Churn, Observer} with Tiles {0, 4}, Workers {1, 4} and the
// five wake-up schedules (the synchronous one only under -short). A
// supported subset must give the same Outcome as its Workers 1 /
// Tiles 0 run; a rejected one must fail with ErrUnsupported from
// radio.NewEngine and Options.Validate, exit 2 from colorsim and be
// answered 400 by colord.
func TestCompositionMatrix(t *testing.T) {
	d := matrixDeployment()
	pts := make([][2]float64, d.N())
	for i, p := range d.Points {
		pts[i] = [2]float64{p.X, p.Y}
	}
	wakeups := []radiocolor.Wakeup{radiocolor.WakeupSynchronous}
	if !testing.Short() {
		wakeups = append(wakeups, radiocolor.WakeupUniform, radiocolor.WakeupSequential,
			radiocolor.WakeupBursty, radiocolor.WakeupAdversarial)
	}
	cells := []struct{ workers, tiles int }{{1, 0}, {4, 0}, {1, 4}, {4, 4}}

	// The colorsim binary and the colord server outlive the subtests.
	parent := t
	var colorsim string
	var colord *httptest.Server
	for s := seamSet(0); s < numSubsets; s++ {
		if !s.rejected() {
			t.Run("supported/"+s.String(), func(t *testing.T) {
				for _, wk := range wakeups {
					var base *radiocolor.Outcome
					for _, c := range cells {
						opt := matrixOptions(t, s, wk, c.workers, c.tiles)
						out, err := radiocolor.ColorUnitDisk(pts, matrixRadius, opt)
						if err != nil {
							t.Fatalf("%v workers=%d tiles=%d: %v", wk, c.workers, c.tiles, err)
						}
						if ob, ok := opt.Observer.(*countObserver); ok && ob.events == 0 {
							t.Fatalf("%v workers=%d tiles=%d: the Observer saw no events", wk, c.workers, c.tiles)
						}
						if base == nil {
							base = out
							checkSeamsRan(t, s, out)
						} else if !reflect.DeepEqual(out, base) {
							t.Fatalf("%v workers=%d tiles=%d: Outcome differs from the Workers 1 / Tiles 0 run", wk, c.workers, c.tiles)
						}
					}
				}
			})
			continue
		}
		t.Run("rejected/"+s.String(), func(t *testing.T) {
			for _, wk := range wakeups {
				for _, c := range cells {
					if _, err := radio.NewEngine(matrixConfig(t, d, s, wk, c.workers, c.tiles)); !errors.Is(err, radio.ErrUnsupported) {
						t.Errorf("radio.NewEngine workers=%d tiles=%d: err = %v, want ErrUnsupported", c.workers, c.tiles, err)
					}
					if err := matrixOptions(t, s, wk, c.workers, c.tiles).Validate(); !errors.Is(err, radiocolor.ErrUnsupported) {
						t.Errorf("Options.Validate %v workers=%d tiles=%d: err = %v, want ErrUnsupported", wk, c.workers, c.tiles, err)
					}
				}
			}
			if colorsim == "" {
				colorsim = buildColorsim(parent)
			}
			args := []string{"-n", fmt.Sprint(matrixN), "-side", fmt.Sprint(matrixSide),
				"-radius", fmt.Sprint(matrixRadius), "-seed", fmt.Sprint(matrixSeed), "-tile", "4"}
			if spec := s.faultSpec(); spec != "" {
				args = append(args, "-faults", spec)
			}
			if s&withMedium != 0 {
				args = append(args, "-medium", mediumSpec)
			}
			if s&withChurn != 0 {
				args = append(args, "-churn", churnSpec)
			}
			out, err := exec.Command(colorsim, args...).CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), "cannot combine") {
				t.Errorf("colorsim %s: err = %v, want exit 2 naming the pair; output:\n%s", strings.Join(args, " "), err, out)
			}

			if colord == nil {
				colord = startColord(parent)
			}
			req := serve.JobRequest{
				Topology: &serve.TopologySpec{Kind: "udg", N: matrixN, Side: matrixSide, Radius: matrixRadius, Seed: matrixSeed},
				Seed:     5, Workers: 4, Tiling: 4,
				Faults: s.faultSpec(),
			}
			if s&withMedium != 0 {
				req.Medium = mediumSpec
			}
			if s&withChurn != 0 {
				req.Churn = churnSpec
			}
			body, _ := json.Marshal(req)
			resp, err := http.Post(colord.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("colord POST /v1/jobs %s: status %d, want 400", body, resp.StatusCode)
			}
		})
	}
}

// checkSeamsRan guards the matrix against vacuous cells: each seam of a
// supported subset must have acted on the run.
func checkSeamsRan(t *testing.T, s seamSet, out *radiocolor.Outcome) {
	t.Helper()
	if s&withFaults != 0 && (out.Faults == nil || out.Faults.Crashes == 0 || out.Faults.Lost == 0) {
		t.Fatalf("fault seam did not act: %+v", out.Faults)
	}
	if s&withChurn != 0 && (out.Churn == nil || out.Churn.Leaves != 1 || out.Churn.Joins != 1) {
		t.Fatalf("churn seam did not act: %+v", out.Churn)
	}
}

// buildColorsim compiles cmd/colorsim into the test's temporary
// directory.
func buildColorsim(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the colorsim arm needs the go tool: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "colorsim")
	if out, err := exec.Command(goTool, "build", "-o", bin, "./cmd/colorsim").CombinedOutput(); err != nil {
		t.Fatalf("building colorsim: %v\n%s", err, out)
	}
	return bin
}

// startColord serves a colord instance for the rest of the test.
func startColord(t *testing.T) *httptest.Server {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return ts
}
