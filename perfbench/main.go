// Command perfbench is the repository's end-to-end benchmark: wall time
// to a verified coloring under the paper's protocol, on four workloads
// that each stress a different layer (see README.md). It is run through
// run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload full-1k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it times the public entry points untouched and prints
// the end-to-end metrics; with --trace 1 it decomposes the same solves
// into per-layer spans and counters. Either way the last line of
// standard output is one JSON object:
//
//	{"correct":true,"attempted":9,"failed":0,"metrics":{"setup_s":{"value":0.81,"unit":"s"},...}}
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation: the input seed, the measuring time, and
// the directory the run may write to (traced spans, store files).
type runConfig struct {
	seed    int64
	seconds float64
	outDir  string
	log     io.Writer
}

// workload is one benchmark scenario. procs fixes GOMAXPROCS for the
// whole run; measure and trace produce the untraced and traced reports.
type workload struct {
	name    string
	procs   int
	measure func(runConfig) (*report, error)
	trace   func(runConfig) (*report, error)
}

// workloads lists the scenarios at their benchmark sizes; the smoke
// test builds the same scenarios at tiny sizes.
func workloads() []workload {
	return []workload{
		simWorkload(full1k()),
		simWorkload(tiled20k()),
		simWorkload(skewLoss1k()),
		colordWorkload(colordSmall()),
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measuring time per run")
	trace := fs.Int("trace", 0, "1 runs the traced decomposition and prints per-layer metrics")
	outDir := fs.String("out-dir", ".bench_build", "directory for traced spans and the job store's files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var w *workload
	var names []string
	for _, c := range workloads() {
		c := c
		names = append(names, c.name)
		if c.name == *name {
			w = &c
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	runtime.GOMAXPROCS(w.procs)
	fmt.Fprintf(stderr, "perfbench: workload=%s seed=%d trace=%d gomaxprocs=%d %s\n",
		w.name, *seed, *trace, w.procs, runtime.Version())
	cfg := runConfig{seed: *seed, seconds: *seconds, outDir: *outDir, log: stderr}
	do := w.measure
	if *trace == 1 {
		do = w.trace
	}
	rep, err := do(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := writeReport(stdout, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// writeReport prints the result line, keys sorted for stable diffs.
func writeReport(w io.Writer, rep *report) error {
	if rep.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// metrics collects named values for a report.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
