package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the metrics registry: named families of counters,
// gauges, and histograms (optionally labeled, optionally func-backed)
// snapshotted deterministically for exposition.
// It implements just enough of the Prometheus data model to be scraped
// by a real Prometheus — no external dependency, no global state.

// Family kinds, matching the exposition TYPE line.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Registry holds metric families. All registration methods panic on an
// invalid or duplicate name — metric names are program constants, so a
// bad one is a bug, not an input error.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family is one named metric with a fixed label schema.
type family struct {
	name   string
	help   string
	kind   string
	labels []string
	bkts   []float64 // histogram upper bounds (exclusive of +Inf)

	fn func() float64 // func-backed families have exactly one sample

	mu       sync.Mutex
	children map[string]metric
	order    []string // child keys in first-use order; sorted at snapshot
}

type metric interface{ sample() Sample }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

func (r *Registry) register(name, help, kind string, labels []string, bkts []float64, fn func() float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		bkts:   bkts, fn: fn,
		children: make(map[string]metric),
	}
	r.fams[name] = f
	return f
}

// child returns (creating on first use) the family's metric for one
// label-value tuple.
func (f *family) child(lvs []string) metric {
	if len(lvs) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", f.name, len(f.labels), len(lvs)))
	}
	key := labelKey(lvs)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	var m metric
	switch f.kind {
	case KindCounter:
		m = &Counter{labels: zip(f.labels, lvs)}
	case KindGauge:
		m = &Gauge{labels: zip(f.labels, lvs)}
	case KindHistogram:
		m = newHistogram(f.bkts, zip(f.labels, lvs))
	}
	f.children[key] = m
	f.order = append(f.order, key)
	return m
}

// labelKey joins label values unambiguously (values may contain commas).
func labelKey(lvs []string) string {
	out := make([]byte, 0, 32)
	for _, v := range lvs {
		out = append(out, byte(len(v)>>8), byte(len(v)))
		out = append(out, v...)
	}
	return string(out)
}

func zip(names, values []string) []Label {
	out := make([]Label, len(names))
	for i := range names {
		out[i] = Label{Name: names[i], Value: values[i]}
	}
	return out
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, KindCounter, nil, nil, nil).child(nil).(*Counter)
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, labels, nil, nil)}
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, KindGauge, labels, nil, nil)}
}

// GaugeFunc registers a gauge whose value is read at snapshot time —
// the bridge from existing Stats() accessors (pool, bus, store) into
// the exposition without duplicated bookkeeping.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, KindGauge, nil, nil, fn)
}

// CounterFunc registers a counter read at snapshot time. The callback
// must be monotonically non-decreasing (it mirrors an existing
// cumulative counter, e.g. the bus's published total).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, KindCounter, nil, nil, fn)
}

// HistogramVec registers a wall-clock histogram family with the given
// upper bounds (ascending; +Inf is implicit).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, KindHistogram, labels, normBuckets(buckets), nil)}
}

func normBuckets(b []float64) []float64 {
	out := append([]float64(nil), b...)
	sort.Float64s(out)
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			panic("obs: duplicate histogram bucket bound")
		}
	}
	if len(out) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	return out
}

// DefDurationBuckets is the default latency bucket ladder, in seconds:
// sub-millisecond health probes through multi-second report renders.
var DefDurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// --- metric implementations -----------------------------------------

// Counter is a monotonically increasing value. Safe for concurrent use.
type Counter struct {
	labels []Label
	bits   atomic.Uint64 // float64 bits
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v; negative deltas are ignored (counters only go up).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) sample() Sample { return Sample{Labels: c.labels, Value: c.Value()} }

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for one label-value tuple, creating it at
// zero on first use (so families appear in the exposition before the
// first event — a zero "executed" counter is a statement, not absence).
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.child(labelValues).(*Counter)
}

// Gauge is a value that can go up and down. Safe for concurrent use.
type Gauge struct {
	labels []Label
	bits   atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by v (negative deltas allowed).
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Inc adds one; Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) sample() Sample { return Sample{Labels: g.labels, Value: g.Value()} }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for one label-value tuple.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.child(labelValues).(*Gauge)
}

func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Histogram observes a distribution into fixed buckets. Exposed with
// cumulative bucket counts, a sum, and a count, per the Prometheus
// histogram convention.
type Histogram struct {
	labels []Label
	upper  []float64

	mu     sync.Mutex
	counts []uint64 // per-bucket (non-cumulative), +Inf at the end
	sum    float64
	count  uint64
}

func newHistogram(upper []float64, labels []Label) *Histogram {
	return &Histogram{labels: labels, upper: upper, counts: make([]uint64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bound >= v (le semantics)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

func (h *Histogram) sample() Sample {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := Sample{Labels: h.labels, Sum: h.sum, Count: h.count}
	s.Buckets = make([]Bucket, 0, len(h.upper)+1)
	cum := uint64(0)
	for i, ub := range h.upper {
		cum += h.counts[i]
		s.Buckets = append(s.Buckets, Bucket{LE: ub, Count: cum})
	}
	cum += h.counts[len(h.upper)]
	s.Buckets = append(s.Buckets, Bucket{LE: math.Inf(1), Count: cum})
	return s
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for one label-value tuple.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.child(labelValues).(*Histogram)
}

// --- snapshot ---------------------------------------------------------

// Label is one name=value pair on a sample.
type Label struct{ Name, Value string }

// Bucket is one cumulative histogram bucket: observations <= LE.
type Bucket struct {
	LE    float64
	Count uint64
}

// Sample is one exposition sample. Counters and gauges use Value;
// histograms use Buckets/Sum/Count.
type Sample struct {
	Labels  []Label
	Value   float64
	Buckets []Bucket
	Sum     float64
	Count   uint64
}

// Family is one metric family's snapshot.
type Family struct {
	Name    string
	Help    string
	Kind    string
	Samples []Sample
}

// Snapshot captures every family, sorted by name, with samples sorted
// by label values — the deterministic order the exposition writer
// renders from. Func-backed families are evaluated
// here, on the scraper's clock.
func (r *Registry) Snapshot() []Family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]Family, 0, len(fams))
	for _, f := range fams {
		fam := Family{Name: f.name, Help: f.help, Kind: f.kind}
		if f.fn != nil {
			fam.Samples = []Sample{{Value: f.fn()}}
			out = append(out, fam)
			continue
		}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		children := make([]metric, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		for _, m := range children {
			fam.Samples = append(fam.Samples, m.sample())
		}
		out = append(out, fam)
	}
	return out
}
