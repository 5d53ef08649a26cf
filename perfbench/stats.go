package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q = 0.5 is the median). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// secondsOf converts timings to float seconds.
func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// msOf converts timings to float milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// perSecond is count per second of busy seconds (0 when nothing was
// timed).
func perSecond(count, busy float64) float64 {
	if busy <= 0 {
		return 0
	}
	return count / busy
}

// peakRSSMB is the process's peak resident set in MiB (getrusage's
// ru_maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// fingerprint hashes a solve's observable result so that repeats of a
// fixed-seed solve can be compared exactly.
type fingerprint struct {
	h   hash.Hash64
	buf [8]byte
}

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

func (f *fingerprint) add(vs ...int64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(f.buf[:], uint64(v))
		f.h.Write(f.buf[:])
	}
}

func (f *fingerprint) addInts(xs []int) {
	for _, x := range xs {
		f.add(int64(x))
	}
}

func (f *fingerprint) sum() uint64 { return f.h.Sum64() }
