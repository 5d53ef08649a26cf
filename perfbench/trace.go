package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer: name, start and end relative to
// the tracer's epoch, and the span that caused it (-1 for roots).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory; they are written out once, at the end
// of the traced run.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span ids
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) time.Duration {
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %q closed out of order", t.spans[id].Name))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = t.now()
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	id := t.begin(name)
	fn()
	return t.end(id)
}

// selfTimes fills each span's self time: its duration minus the time
// its direct children cover (children never overlap: spans nest).
func (t *tracer) selfTimes() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// write saves the spans as JSON under dir.
func (t *tracer) write(dir, workload string, seed int64) error {
	t.selfTimes()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

// perLayerNames is every per-layer metric the traced run reports, with
// its unit. A layer a workload does not exercise reports 0.
var perLayerNames = []struct{ name, unit string }{
	{"topology.gen_s", "s"},
	{"graph.build_s", "s"},
	{"graph.kappa_s", "s"},
	{"graph.relabel_s", "s"},
	{"graph.edges", "count"},
	{"core.nodes_s", "s"},
	{"core.send_ns", "ns"},
	{"core.recv_ns", "ns"},
	{"core.send_calls", "count"},
	{"core.recv_calls", "count"},
	{"core.share", "ratio"},
	{"core.allocs_per_node_slot", "count"},
	{"core.bytes_per_node", "B"},
	{"radio.run_s", "s"},
	{"radio.step_ns_per_node_slot", "ns"},
	{"radio.self_ns_per_node_slot", "ns"},
	{"radio.parallel_eff", "ratio"},
	{"radio.slots", "count"},
	{"radio.node_slots", "count"},
	{"radio.tx", "count"},
	{"radio.deliveries", "count"},
	{"radio.collisions", "count"},
	{"fault.lost", "count"},
	{"fault.crashes", "count"},
	{"fault.restarts", "count"},
	{"verify.check_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.poll_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.exec_ms_p50", "ms"},
	{"serve.rejected", "count"},
	{"serve.cache_hit_frac", "ratio"},
	{"store.create_ms_p50", "ms"},
	{"store.claim_ms_p50", "ms"},
	{"store.finish_ms_p50", "ms"},
	{"store.claim_calls", "count"},
	{"store.claim_empty_frac", "ratio"},
	{"store.log_bytes", "B"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// layerMetrics starts a traced report with every per-layer metric at 0.
func layerMetrics() metrics {
	m := metrics{}
	for _, p := range perLayerNames {
		m.set(p.name, 0, p.unit)
	}
	return m
}

// setLayer overwrites a per-layer metric, keeping its declared unit.
func (m metrics) setLayer(name string, v float64) {
	old, ok := m[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	m[name] = metric{Value: v, Unit: old.Unit}
}
