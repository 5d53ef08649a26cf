package monitor

import (
	"io"
	"strings"
	"testing"
	"time"
)

// fakeClock drives Progress deterministically through the now hook.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestProgress(w io.Writer, label string) (*Progress, *fakeClock) {
	clock := newFakeClock()
	p := NewProgress(w, label)
	p.now = clock.now
	p.start = clock.t
	p.lastPrint = clock.t
	return p, clock
}

func TestSnapshotCountersAndETA(t *testing.T) {
	p, clock := newTestProgress(nil, "x")
	units := int64(100)
	p.SetUnits("slots", func() int64 { return units })

	p.AddTotal(10)
	for i := 0; i < 4; i++ {
		p.JobDone()
	}
	p.JobFailed()
	units = 600
	clock.advance(10 * time.Second)

	s := p.Snapshot()
	if s.Total != 10 || s.Done != 4 || s.Failed != 1 {
		t.Fatalf("counters: %+v", s)
	}
	if s.Elapsed != 10*time.Second {
		t.Fatalf("elapsed = %v", s.Elapsed)
	}
	if s.Units != 500 {
		t.Fatalf("units = %d, want delta since SetUnits (500)", s.Units)
	}
	if s.UnitsPerSec != 50 {
		t.Fatalf("units/s = %v, want 50", s.UnitsPerSec)
	}
	// 5 finished of 10 in 10s → 5 remaining ≈ 10s more.
	if s.ETA != 10*time.Second {
		t.Fatalf("ETA = %v, want 10s", s.ETA)
	}
}

func TestETAZeroBeforeFirstFinish(t *testing.T) {
	p, clock := newTestProgress(nil, "x")
	p.AddTotal(5)
	clock.advance(time.Minute)
	if eta := p.Snapshot().ETA; eta != 0 {
		t.Fatalf("ETA before any job finished = %v, want 0", eta)
	}
}

func TestStatusLineFormat(t *testing.T) {
	var buf strings.Builder
	p, clock := newTestProgress(&buf, "sweep")
	units := int64(0)
	p.SetUnits("slots", func() int64 { return units })
	units = 1_500_000
	p.AddTotal(8)
	p.JobDone()
	p.JobDone()
	p.JobFailed()
	clock.advance(2 * time.Second)
	p.Finish()

	line := strings.TrimSpace(buf.String())
	for _, want := range []string{
		"[sweep] 2/8 jobs", "(1 failed)",
		"1.5M slots", "750.0k slots/s", "ETA",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("status line %q missing %q", line, want)
		}
	}
}

func TestRateLimiting(t *testing.T) {
	var buf strings.Builder
	p, clock := newTestProgress(&buf, "x")
	p.AddTotal(100)
	for i := 0; i < 50; i++ {
		p.JobDone() // clock frozen: all inside the 1s interval
	}
	if buf.Len() != 0 {
		t.Fatalf("printed %d bytes inside the rate-limit interval", buf.Len())
	}
	clock.advance(1100 * time.Millisecond)
	p.JobDone()
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("want exactly one status line after the interval, got %d: %q", got, buf.String())
	}
}

func TestNilWriterIsSilent(t *testing.T) {
	p, _ := newTestProgress(nil, "x")
	p.AddTotal(3)
	p.JobDone()
	p.Finish() // must not panic
	if s := p.Snapshot(); s.Done != 1 || s.Total != 3 {
		t.Fatalf("silent tracker still counts: %+v", s)
	}
}

func TestHumanCount(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{999, "999"}, {1234, "1.2k"}, {1_234_567, "1.2M"}, {2_500_000_000, "2.5G"}, {0, "0"},
	}
	for _, c := range cases {
		if got := humanCount(c.in); got != c.want {
			t.Errorf("humanCount(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}
