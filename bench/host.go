package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// measured is what one timed call cost the host.
type measured struct {
	wall   time.Duration
	allocs uint64 // runtime.MemStats.Mallocs delta
	bytes  uint64 // runtime.MemStats.TotalAlloc delta
}

// measure times fn and brackets it with MemStats reads. ReadMemStats stops
// the world, so the clock is read inside the bracket.
func measure(fn func()) measured {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	fn()
	wall := time.Since(t)
	runtime.ReadMemStats(&after)
	return measured{wall, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc}
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// loadAvg1 is the 1-minute load average, or -1 where /proc has none.
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

var spinSink uint64

// spinNS times a fixed integer loop (best of 5), so a run on a throttled or
// shared host can be recognised after the fact from its own output.
func spinNS() float64 {
	const iters = 1 << 22
	best := time.Duration(math.MaxInt64)
	for r := 0; r < 5; r++ {
		x := uint64(88172645463325252)
		t := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if d := time.Since(t); d < best {
			best = d
		}
		spinSink += x
	}
	return float64(best.Nanoseconds()) / iters
}

// median of a non-empty slice; the input is not modified.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) (exclusive method) gives them — the rule the
// acceptance spread is defined by. Needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(k int) float64 {
		m := len(s)
		pos := float64(k) * float64(m+1) / 4
		j := min(max(int(pos), 1), m-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func durationsSec(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// rng is a splitmix64 stream: the benchmark's only source of randomness, so
// the same -seed gives the same inputs on any Go version.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
