// Package monitor reports live progress of batch executions: jobs
// done and failed, an ETA, and a sampled work rate, as rate-limited
// status lines on a writer (cmd/experiments writes them to stderr).
package monitor

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Progress is a thread-safe live tracker for batch executions (the
// fleet engine's counters): jobs done/failed, an ETA from the
// completion rate, and an optional externally sampled work counter
// (e.g. radio.SimulatedSlots) reported as a rate. Status lines are
// written to w — cmd/experiments points it at stderr so stdout stays a
// byte-exact table stream.
type Progress struct {
	mu        sync.Mutex
	w         io.Writer
	label     string
	every     time.Duration
	now       func() time.Time
	unitsName string
	unitsFunc func() int64

	start      time.Time
	lastPrint  time.Time
	startUnits int64
	total      int
	done       int
	failed     int
}

// Snapshot is a consistent view of a Progress.
type Snapshot struct {
	// Total, Done and Failed are the job counters. Failed jobs are not
	// included in Done.
	Total, Done, Failed int
	// Elapsed is the time since the tracker was created.
	Elapsed time.Duration
	// Units is the sampled work counter delta since creation (0 when no
	// units source is installed).
	Units int64
	// UnitsPerSec is the mean units rate over Elapsed.
	UnitsPerSec float64
	// ETA estimates the remaining wall time from the completion rate;
	// 0 while no job has finished.
	ETA time.Duration
}

// NewProgress creates a tracker writing status lines to w (nil for a
// silent tracker that still serves Snapshot). Lines are rate-limited to
// one per second.
func NewProgress(w io.Writer, label string) *Progress {
	p := &Progress{
		w:     w,
		label: label,
		every: time.Second,
		now:   time.Now,
	}
	p.start = p.now()
	p.lastPrint = p.start
	return p
}

// SetUnits installs a sampled work counter (monotonic, process-wide)
// reported as "<name>/s" in status lines.
func (p *Progress) SetUnits(name string, fn func() int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.unitsName = name
	p.unitsFunc = fn
	if fn != nil {
		p.startUnits = fn()
	}
}

// SetInterval overrides the minimum delay between status lines.
func (p *Progress) SetInterval(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.every = d
}

// AddTotal grows the expected job count by n.
func (p *Progress) AddTotal(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total += n
	p.maybePrint(false)
}

// JobDone records one successfully finished job.
func (p *Progress) JobDone() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	p.maybePrint(false)
}

// JobFailed records one failed job.
func (p *Progress) JobFailed() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed++
	p.maybePrint(false)
}

// Snapshot returns a consistent view of the counters.
func (p *Progress) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotLocked()
}

func (p *Progress) snapshotLocked() Snapshot {
	s := Snapshot{
		Total:   p.total,
		Done:    p.done,
		Failed:  p.failed,
		Elapsed: p.now().Sub(p.start),
	}
	if p.unitsFunc != nil {
		s.Units = p.unitsFunc() - p.startUnits
	}
	if sec := s.Elapsed.Seconds(); sec > 0 {
		s.UnitsPerSec = float64(s.Units) / sec
	}
	if finished := s.Done + s.Failed; finished > 0 && finished < s.Total {
		s.ETA = time.Duration(float64(s.Elapsed) * float64(s.Total-finished) / float64(finished))
	}
	return s
}

// Finish writes a final status line regardless of the rate limit.
func (p *Progress) Finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.maybePrint(true)
}

// maybePrint emits a status line if forced or the interval elapsed.
// Callers hold p.mu.
func (p *Progress) maybePrint(force bool) {
	if p.w == nil {
		return
	}
	now := p.now()
	if !force && now.Sub(p.lastPrint) < p.every {
		return
	}
	p.lastPrint = now
	s := p.snapshotLocked()
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %d/%d jobs", p.label, s.Done, s.Total)
	if s.Failed > 0 {
		fmt.Fprintf(&b, " (%d failed)", s.Failed)
	}
	if p.unitsFunc != nil {
		fmt.Fprintf(&b, " | %s %s | %s %s/s",
			humanCount(float64(s.Units)), p.unitsName,
			humanCount(s.UnitsPerSec), p.unitsName)
	}
	if s.ETA > 0 {
		fmt.Fprintf(&b, " | ETA %s", s.ETA.Round(time.Second))
	}
	fmt.Fprintln(p.w, b.String())
}

// humanCount renders a count with a metric suffix (1234567 → "1.2M").
func humanCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
