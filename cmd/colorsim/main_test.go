package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestMakeDeployment(t *testing.T) {
	cases := []struct {
		topo string
		n    int
	}{
		{"udg", 30}, {"big", 30}, {"corridor", 30}, {"clustered", 30},
		{"grid", 25}, {"ring", 12}, {"clique", 8}, {"star", 9}, {"tree", 15},
	}
	for _, c := range cases {
		d, err := makeDeployment(c.topo, c.n, 5, 1.2, 5, 1)
		if err != nil {
			t.Errorf("%s: %v", c.topo, err)
			continue
		}
		if d.N() == 0 {
			t.Errorf("%s: empty deployment", c.topo)
		}
		if err := d.G.Validate(); err != nil {
			t.Errorf("%s: invalid graph: %v", c.topo, err)
		}
	}
	// Grid rounds n down to a square.
	d, err := makeDeployment("grid", 30, 5, 1.2, 0, 1)
	if err != nil || d.N() != 25 {
		t.Errorf("grid sizing: n=%d err=%v", d.N(), err)
	}
	if _, err := makeDeployment("nope", 10, 5, 1, 0, 1); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestSummarizeFloats(t *testing.T) {
	s := summarizeFloats([]float64{1, 2, 3, 4})
	for _, want := range []string{"mean=", "p90=", "max=4"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

// TestBadScaleExitsUsage runs colorsim in a child process: a -scale
// that makes the protocol constants non-finite, negative, or push a
// slot count past 2^62 is a usage error (exit 2), not a run that
// "completes" with an improper coloring.
func TestBadScaleExitsUsage(t *testing.T) {
	if args := os.Getenv("COLORSIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"colorsim"}, strings.Fields(args)...)
		main()
		return
	}
	for _, scale := range []string{"NaN", "+Inf", "1e308", "-1"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadScaleExitsUsage$")
		cmd.Env = append(os.Environ(), "COLORSIM_TEST_ARGS=-n 20 -scale "+scale)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("-scale %s: err = %v, want exit 2; output:\n%s", scale, err, out)
		} else if !strings.Contains(string(out), "-scale") {
			t.Errorf("-scale %s: message does not name the flag:\n%s", scale, out)
		}
	}
}
