package telemetry

import (
	"fmt"
	"math"
	"sort"

	"lazyrc/internal/fold"
)

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

// String returns the mode mnemonic, a trace counter's value key.
func (m Mode) String() string {
	if m == Delta {
		return "delta"
	}
	return "level"
}

// Series is one named time series. Sampler callbacks Set (or Add) its
// current value; the registry takes one point per sampling tick, folds it
// into its digest and, when it retains, stores it. A nil *Series discards
// updates, so sources need no enabled-check of their own.
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

// Points returns a copy of the stored points (one per registry tick; none
// unless the registry retains).
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

// point returns the tick's point according to the series mode.
func (s *Series) point() float64 {
	v := s.cur
	if s.mode == Delta {
		v -= s.prev
		s.prev = s.cur
	}
	return v
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
//
// Every tick is folded into the registry's digest as it is taken; the
// tick stamps and points are stored only by a retaining registry (Retain),
// for the one reader that draws them, a trace (causal.WritePerfetto).
type Registry struct {
	interval uint64
	meta     map[string]string

	retain bool
	ticks  int
	last   uint64   // the latest tick's stamp
	fold   fold.Rec // every tick's stamp and points, in registration order
	times  []uint64 // retained tick stamps

	series   []*Series
	byName   map[string]*Series
	hists    []*Histogram
	histBy   map[string]*Histogram
	samplers []func()
}

// NewRegistry returns an empty registry sampling every interval cycles
// (the interval is folded into the digest; the owner enforces it). It
// keeps the digest alone until Retain says otherwise.
func NewRegistry(interval uint64) *Registry {
	return &Registry{
		interval: interval,
		meta:     map[string]string{},
		fold:     fold.Rec(fold.Seed),
		byName:   map[string]*Series{},
		histBy:   map[string]*Histogram{},
	}
}

// Retain sets whether Sample stores each tick's stamp and points besides
// folding them: on for a run whose trace will be written, off (the
// default) for one that keeps only the digest. Call it before the first
// Sample. Safe on a nil registry.
func (r *Registry) Retain(on bool) {
	if r != nil {
		r.retain = on
	}
}

// SetMeta records a run-metadata key (application, protocol, seed...)
// for the digest. Safe on a nil registry.
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
// then the tick's stamp and every series' point, as float64 bits, are
// folded into the digest (and stored, when the registry retains). A
// repeated Sample at the same timestamp is ignored, so the owner can
// safely take a closing sample at end of run even when the run ended
// exactly on a tick.
func (r *Registry) Sample(now uint64) {
	if r == nil || r.ticks > 0 && r.last == now {
		return
	}
	for _, fn := range r.samplers {
		fn()
	}
	r.ticks++
	r.last = now
	r.fold.Word(now)
	if r.retain {
		r.times = append(r.times, now)
	}
	for _, s := range r.series {
		v := s.point()
		r.fold.Word(math.Float64bits(v))
		if r.retain {
			s.push(v)
		}
	}
}

// Samples returns the number of ticks recorded.
func (r *Registry) Samples() int {
	if r == nil {
		return 0
	}
	return r.ticks
}

// Digest returns the run's telemetry fingerprint, "<samples>-<16 hex>":
// the fold Sample kept, finished with what frames it — the meta pairs
// sorted by key, the interval and the tick count, each series' name and
// mode, and each histogram's name, buckets, count, sum, min and max. Two
// runs with identical time series and histograms digest identically; any
// drift in when cycles were spent or where traffic flowed changes it,
// even when end-of-run totals happen to agree. The registry is not
// changed, so Digest may be called again.
func (r *Registry) Digest() string {
	if r == nil {
		return ""
	}
	h := r.fold
	keys := make([]string, 0, len(r.meta))
	for k := range r.meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h.Word(uint64(len(keys)))
	for _, k := range keys {
		foldString(&h, k)
		foldString(&h, r.meta[k])
	}
	h.Word(r.interval)
	h.Word(uint64(r.ticks))
	h.Word(uint64(len(r.series)))
	for _, s := range r.series {
		foldString(&h, s.name)
		h.Word(uint64(s.mode))
	}
	hists := r.sortedHists()
	h.Word(uint64(len(hists)))
	for _, hist := range hists {
		foldString(&h, hist.name)
		for _, c := range hist.counts {
			h.Word(c)
		}
		for _, w := range [...]uint64{hist.count, hist.sum, hist.min, hist.max} {
			h.Word(w)
		}
	}
	return fmt.Sprintf("%d-%016x", r.ticks, h.Sum())
}

// foldString folds s in as its length and then its bytes, eight to a word.
func foldString(h *fold.Rec, s string) {
	h.Word(uint64(len(s)))
	var w uint64
	for i := 0; i < len(s); i++ {
		w = w<<8 | uint64(s[i])
		if i%8 == 7 || i == len(s)-1 {
			h.Word(w)
			w = 0
		}
	}
}

// Times returns the simulated timestamp of every tick (none unless the
// registry retains).
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

// sortedHists returns the histograms sorted by name.
func (r *Registry) sortedHists() []*Histogram {
	out := append([]*Histogram(nil), r.hists...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// VisitSeries calls fn for every series in name order.
func (r *Registry) VisitSeries(fn func(*Series)) {
	if r == nil {
		return
	}
	sorted := append([]*Series(nil), r.series...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, s := range sorted {
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
