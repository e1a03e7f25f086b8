package telemetry

import "sort"

// Mode selects how a Series turns its instantaneous value into points.
type Mode uint8

const (
	// Level records the value itself at each sample — queue depths,
	// directory state counts, stalled-processor counts.
	Level Mode = iota
	// Delta records the increase since the previous sample — the right
	// mode for cumulative sources (stall-cycle totals, busy cycles,
	// message counts), turning them into per-interval rates.
	Delta
)

// String returns the mode mnemonic used in the JSONL export.
func (m Mode) String() string {
	if m == Delta {
		return "delta"
	}
	return "level"
}

// Series is one named time series. Sampler callbacks Set (or Add) its
// current value; the registry appends one point per sampling tick. A nil
// *Series discards updates, so sources need no enabled-check of their
// own.
type Series struct {
	name string
	mode Mode
	cur  float64
	prev float64
	// chunks hold the points, oldest first. A full chunk is followed by
	// one of half the points stored so far (firstChunk to maxChunk): earlier
	// points are never copied, a short run holds a short chunk, and at most
	// a third of the storage is vacant.
	chunks [][]float64
	n      int // points
}

const (
	firstChunk = 16
	maxChunk   = 4096
)

// Name returns the series name.
func (s *Series) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Mode returns the series' sampling mode.
func (s *Series) Mode() Mode {
	if s == nil {
		return Level
	}
	return s.mode
}

// Set replaces the series' current value. Free on a nil receiver.
func (s *Series) Set(v float64) {
	if s == nil {
		return
	}
	s.cur = v
}

// Add accumulates into the series' current value. Free on a nil receiver.
func (s *Series) Add(v float64) {
	if s == nil {
		return
	}
	s.cur += v
}

// Points returns a copy of the sampled points (one per registry tick).
func (s *Series) Points() []float64 {
	if s == nil || s.n == 0 {
		return nil
	}
	out := make([]float64, 0, s.n)
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}

// sample appends the tick's point according to the series mode.
func (s *Series) sample() {
	v := s.cur
	if s.mode == Delta {
		v -= s.prev
		s.prev = s.cur
	}
	s.push(v)
}

// push appends one point.
func (s *Series) push(v float64) {
	k := len(s.chunks) - 1
	if k < 0 || len(s.chunks[k]) == cap(s.chunks[k]) {
		s.chunks = append(s.chunks, make([]float64, 0, min(max(s.n/2, firstChunk), maxChunk)))
		k++
	}
	s.chunks[k] = append(s.chunks[k], v)
	s.n++
}

// Registry owns a run's instruments: named series sampled into aligned
// time series on every tick, and named histograms fed continuously by
// instrumented sources. A nil *Registry hands out nil instruments, so a
// source wired to a disabled registry costs only nil checks.
//
// The registry itself never schedules anything: the owner (the machine)
// drives Sample from simulation-engine events, which is what makes the
// series cycle-domain and deterministic.
type Registry struct {
	interval uint64
	meta     map[string]string

	times    []uint64
	series   []*Series
	byName   map[string]*Series
	hists    []*Histogram
	histBy   map[string]*Histogram
	samplers []func()
}

// NewRegistry returns an empty registry sampling every interval cycles
// (the interval is recorded in the export header; the owner enforces it).
func NewRegistry(interval uint64) *Registry {
	return &Registry{
		interval: interval,
		meta:     map[string]string{},
		byName:   map[string]*Series{},
		histBy:   map[string]*Histogram{},
	}
}

// Interval returns the sampling interval in simulated cycles.
func (r *Registry) Interval() uint64 {
	if r == nil {
		return 0
	}
	return r.interval
}

// SetMeta records a run-metadata key (application, protocol, seed...)
// for the export header. Safe on a nil registry.
func (r *Registry) SetMeta(k, v string) {
	if r == nil {
		return
	}
	r.meta[k] = v
}

// Series returns (creating on first use) the named series. Returns nil —
// a working no-op instrument — on a nil registry. Registering the same
// name twice returns the same series; the mode of the first registration
// wins.
func (r *Registry) Series(name string, mode Mode) *Series {
	if r == nil {
		return nil
	}
	if s, ok := r.byName[name]; ok {
		return s
	}
	s := &Series{name: name, mode: mode}
	r.byName[name] = s
	r.series = append(r.series, s)
	return s
}

// Histogram returns (creating on first use) the named histogram. Returns
// nil — a working no-op instrument — on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.histBy[name]; ok {
		return h
	}
	h := NewHistogram(name)
	r.histBy[name] = h
	r.hists = append(r.hists, h)
	return h
}

// OnSample registers a callback run at the start of every sampling tick,
// before series points are recorded — the place to Set gauges from
// simulation state. Safe on a nil registry.
func (r *Registry) OnSample(fn func()) {
	if r == nil {
		return
	}
	r.samplers = append(r.samplers, fn)
}

// Sample records one tick at simulated time now: sampler callbacks run,
// then every series appends its point. A repeated Sample at the same
// timestamp is ignored, so the owner can safely take a closing sample at
// end of run even when the run ended exactly on a tick.
func (r *Registry) Sample(now uint64) {
	if r == nil {
		return
	}
	if n := len(r.times); n > 0 && r.times[n-1] == now {
		return
	}
	for _, fn := range r.samplers {
		fn()
	}
	r.times = append(r.times, now)
	for _, s := range r.series {
		s.sample()
	}
}

// Samples returns the number of ticks recorded.
func (r *Registry) Samples() int {
	if r == nil {
		return 0
	}
	return len(r.times)
}

// Times returns the simulated timestamp of every tick.
func (r *Registry) Times() []uint64 {
	if r == nil {
		return nil
	}
	return r.times
}

// SeriesByName returns the named series, or nil.
func (r *Registry) SeriesByName(name string) *Series {
	if r == nil {
		return nil
	}
	return r.byName[name]
}

// sortedSeries returns the series sorted by name — the canonical export
// order, independent of registration order.
func (r *Registry) sortedSeries() []*Series {
	out := append([]*Series(nil), r.series...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedHists returns the histograms sorted by name.
func (r *Registry) sortedHists() []*Histogram {
	out := append([]*Histogram(nil), r.hists...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// VisitSeries calls fn for every series in canonical (name) order.
func (r *Registry) VisitSeries(fn func(*Series)) {
	if r == nil {
		return
	}
	for _, s := range r.sortedSeries() {
		fn(s)
	}
}

// VisitHistograms calls fn for every histogram in canonical (name) order.
func (r *Registry) VisitHistograms(fn func(*Histogram)) {
	if r == nil {
		return
	}
	for _, h := range r.sortedHists() {
		fn(h)
	}
}
