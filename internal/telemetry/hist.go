// Package telemetry is the simulator's cycle-domain metrics layer: a
// near-zero-overhead-when-disabled registry of counters, gauges, and
// log-bucketed latency histograms, sampled on a simulated-cycle interval
// into per-node and per-resource time series.
//
// Design constraints, in order:
//
//  1. Disabled must cost (almost) nothing. Every instrument is nil-safe:
//     a nil *Histogram or *Series absorbs observations as a no-op with
//     zero allocations, so instrumented hot paths carry only a nil check.
//  2. Sampling is driven by the simulation engine, never the wall clock,
//     so a run's time series is a pure function of the run — byte-
//     identical across worker counts, machines, and reruns at a fixed
//     seed. Each tick is folded into the run's digest as it is taken, the
//     value the regression gate compares; the points themselves are kept
//     only for a trace.
//  3. Collection is strictly passive: instruments only read simulation
//     state; enabling metrics never changes a single simulated cycle.
package telemetry

import "math/bits"

// HistBuckets is the number of log₂ buckets a histogram carries: bucket 0
// holds exact zeros and bucket i (i ≥ 1) holds values in [2^(i-1), 2^i).
// 65 buckets cover the full uint64 range.
const HistBuckets = 65

// Histogram is a log₂-bucketed histogram of uint64 samples (cycle
// latencies, queue depths). Buckets are mergeable across histograms, and
// quantiles are estimated by linear interpolation inside the covering
// bucket, clamped to the observed min/max. The zero value is ready to
// use; a nil *Histogram discards observations.
type Histogram struct {
	name     string
	counts   [HistBuckets]uint64
	count    uint64
	sum      uint64
	min, max uint64
}

// NewHistogram returns a named, empty histogram.
func NewHistogram(name string) *Histogram { return &Histogram{name: name} }

// Name returns the histogram's registered name ("" for an anonymous one).
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Observe records one sample. Safe (and free) on a nil receiver.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.counts[bits.Len64(v)]++
	h.count += 1
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest observed sample (0 when empty).
func (h *Histogram) Min() uint64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest observed sample (0 when empty).
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max
}

// bucketBounds returns the value range [lo, hi] covered by bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	lo = uint64(1) << (i - 1)
	if i >= 64 {
		return lo, ^uint64(0)
	}
	return lo, uint64(1)<<i - 1
}

// Quantile estimates the q-quantile (q in [0, 1]) of the observed
// samples: it locates the bucket containing the q·count-th sample and
// interpolates linearly within the bucket's bounds, clamped to the
// observed min/max so small histograms stay tight. An empty histogram
// reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || i == HistBuckets-1 {
			lo, hi := bucketBounds(i)
			pos := 0.0
			if c > 0 {
				pos = (rank - cum) / float64(c)
			}
			v := float64(lo) + pos*float64(hi-lo)
			if v < float64(h.min) {
				v = float64(h.min)
			}
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
		cum = next
	}
	return float64(h.max)
}
