// Package perf is the simulator's wall-clock observability plane: a
// sampling phase profiler and throughput accountant measuring how real
// time is spent producing simulated time. It is the strict complement of
// internal/telemetry — telemetry samples the simulated clock and is part
// of a run's result identity, perf samples the host's monotonic clock
// and is pure provenance (excluded from fingerprints, digests, and
// committed baselines, and different on every machine and every rerun).
//
// The profiler follows the same passivity bar as telemetry and causal
// tracing: enabling it schedules no events and mutates no simulated
// state, so a profiled run is bit-identical to an unprofiled one (pinned
// by TestPerfIsPassive).
//
// Attribution model (DESIGN.md §16): the engine times one event in every
// Stride, from before it leaves the queue until its callback returns, and
// every background event. The pop is charged to the queue phase and the
// rest of the event to the phase its kind was registered with; no other
// subsystem reads the clock. End spreads the exact wall time over the
// phases in the proportions the timed events showed: only the split
// between phases is an estimate.
package perf

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Phase names one wall-clock cost center of the simulation loop.
type Phase uint8

// The phase taxonomy. PhaseQueue is the pop of a timed event; the rest of
// it goes to the phase its kind was registered with (sim.Engine.Register):
// PhaseDispatch for a plain func() event — timers, held or faulted sends —
// PhaseFrontend for a resumed processor context (the switch, the
// application, the protocol's CPU side), PhaseMesh for a delivery and the
// receiving node's handler, PhaseProtocol for a protocol continuation, and
// PhaseBackground for the observers' periodic ticks.
const (
	PhaseDispatch Phase = iota
	PhaseQueue
	PhaseFrontend
	PhaseMesh
	PhaseProtocol
	PhaseBackground
	NumPhases
)

var phaseNames = [NumPhases]string{
	"dispatch", "queue", "frontend", "mesh", "protocol", "background",
}

// String returns the phase's stable name (used as JSON keys in
// snapshots, so renames are schema changes).
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Stride is the sampling period: the engine times the events whose
// ordinal is a multiple of it — under 0.1 clock reads per event, ~13 000
// samples from a medium cell. It is prime so the sample cannot lock onto
// the power-of-two rhythms of the machine (every 64th event of 64
// processors resuming together is the same processor doing the same thing).
const Stride = 127

// Profiler estimates wall-clock time per phase from timed events. Begin,
// End and Snapshot are safe on a nil receiver. A Profiler is
// single-threaded, like the engine loop it observes.
type Profiler struct {
	now func() int64 // monotonic ns since Begin; tests substitute a fake clock

	timed  bool  // inside a timed event
	cur    Phase // current phase; meaningful while timed
	lastNS int64 // clock at the last charge

	// ns[0] accumulates the stride's events, a sample; ns[1] the background
	// events, all timed and so exact as measured. exact indexes ns.
	ns     [2][NumPhases]int64
	exact  int
	nTimed uint64

	start runtime.MemStats // allocator baseline, read by Begin
	snap  Snapshot         // fixed by End; its Phases map is nil until then
}

// New returns an idle profiler. Call Begin immediately before the run
// loop and End immediately after.
func New() *Profiler { return &Profiler{} }

// Begin starts the clock and records the allocator baseline.
func (p *Profiler) Begin() {
	if p == nil {
		return
	}
	runtime.ReadMemStats(&p.start)
	if p.now == nil {
		base := time.Now()
		p.now = func() int64 { return int64(time.Since(base)) }
	}
}

// Start begins timing the engine's current event in phase ph or, when it
// is being timed already, charges the time so far to the phase it was in
// and moves it to ph (Engine.step has the sequence). What is measured of a
// PhaseBackground event is exact, not a sample.
func (p *Profiler) Start(ph Phase) {
	if ph == PhaseBackground {
		p.exact = 1
	}
	now := p.now()
	if p.timed {
		p.ns[p.exact][p.cur] += now - p.lastNS
	}
	p.lastNS, p.timed, p.cur = now, true, ph
}

// Stop ends the timing Start began, after the event's callback returned.
func (p *Profiler) Stop() {
	p.ns[p.exact][p.cur] += p.now() - p.lastNS
	p.timed, p.exact = false, 0
	p.nTimed++
}

// End stops the clock and fixes the snapshot. cycles and events are the
// run's final simulated cycle and executed event count (the throughput
// denominators come from them). Of the exact wall time, what the
// background events took is known phase by phase; the rest is divided in
// the proportions of the sampled events' phase times, rounded down, and
// the remainder goes to dispatch, so the phases always sum to WallNS.
func (p *Profiler) End(cycles, events uint64) {
	if p == nil || p.snap.Phases != nil {
		return
	}
	wall := p.now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	s := Snapshot{
		WallNS:      wall,
		Cycles:      cycles,
		Events:      events,
		TimedEvents: p.nTimed,
		Allocs:      ms.Mallocs - p.start.Mallocs,
		AllocBytes:  ms.TotalAlloc - p.start.TotalAlloc,
		GCPauseNS:   ms.PauseTotalNs - p.start.PauseTotalNs,
		GCCycles:    uint64(ms.NumGC - p.start.NumGC),
		Phases:      make(map[string]int64, NumPhases),
	}
	est := p.ns[1]
	rest, sampled := wall, int64(0) // rest: what the background events did not take
	for ph := range est {
		rest -= est[ph]
		sampled += p.ns[0][ph]
	}
	left := rest
	if sampled > 0 {
		for ph, ns := range p.ns[0] {
			hi, lo := bits.Mul64(uint64(rest), uint64(ns))
			q, _ := bits.Div64(hi, lo, uint64(sampled))
			est[ph] += int64(q)
			left -= int64(q)
		}
	}
	est[PhaseDispatch] += left
	for ph, ns := range est {
		if ns != 0 {
			s.Phases[Phase(ph).String()] = ns
		}
	}
	s.setRates()
	p.snap = s
}

// Snapshot returns the profile fixed by End (the zero Snapshot before
// End, or on a nil profiler).
func (p *Profiler) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	return p.snap
}

// Snapshot is one run's (or one aggregation's) wall-clock profile. It is
// provenance, never identity: results embed it under `json:"-"`, reports
// under omitempty fields that Stable() strips, and it never feeds a
// fingerprint or digest.
type Snapshot struct {
	WallNS int64  `json:"wall_ns"`
	Cycles uint64 `json:"cycles"`
	Events uint64 `json:"events"`

	CyclesPerSec float64 `json:"cycles_per_sec"`
	EventsPerSec float64 `json:"events_per_sec"`

	// Phases maps Phase.String() name -> nanoseconds (zero phases omitted),
	// summing to WallNS: an estimate from TimedEvents of the Events (see
	// Profiler.End). Everything else in the snapshot is exact.
	Phases      map[string]int64 `json:"phase_ns,omitempty"`
	TimedEvents uint64           `json:"timed_events"`

	// Allocator deltas over the run: heap objects, heap bytes, total GC
	// stop-the-world pause time, and completed GC cycles.
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	GCPauseNS  uint64 `json:"gc_pause_ns"`
	GCCycles   uint64 `json:"gc_cycles"`
}

// Add folds another run's profile into s (used by the runner's Meta to
// aggregate over a sweep's fresh executions). Throughput is recomputed
// from the summed totals.
func (s *Snapshot) Add(o Snapshot) {
	s.WallNS += o.WallNS
	s.Cycles += o.Cycles
	s.Events += o.Events
	s.TimedEvents += o.TimedEvents
	s.Allocs += o.Allocs
	s.AllocBytes += o.AllocBytes
	s.GCPauseNS += o.GCPauseNS
	s.GCCycles += o.GCCycles
	if len(o.Phases) > 0 && s.Phases == nil {
		s.Phases = make(map[string]int64, len(o.Phases))
	}
	for k, v := range o.Phases {
		s.Phases[k] += v
	}
	s.setRates()
}

// setRates derives the throughput rates from the totals.
func (s *Snapshot) setRates() {
	if s.WallNS > 0 {
		sec := float64(s.WallNS) / 1e9
		s.CyclesPerSec = float64(s.Cycles) / sec
		s.EventsPerSec = float64(s.Events) / sec
	}
}

// Table renders the profile as an aligned text block: throughput
// headline, phase breakdown (largest first, percentages of the wall
// time), allocator deltas.
func (s Snapshot) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wall time            %s\n", time.Duration(s.WallNS))
	fmt.Fprintf(&b, "simulated cycles     %d (%.2f Mcycles/s)\n", s.Cycles, s.CyclesPerSec/1e6)
	fmt.Fprintf(&b, "engine events        %d (%.2f Mevents/s)\n", s.Events, s.EventsPerSec/1e6)
	fmt.Fprintf(&b, "phase shares sampled over %d of %d events\n", s.TimedEvents, s.Events)
	names := make([]string, 0, len(s.Phases))
	for ph := Phase(0); ph < NumPhases; ph++ {
		if _, ok := s.Phases[ph.String()]; ok {
			names = append(names, ph.String())
		}
	}
	sort.SliceStable(names, func(i, j int) bool { return s.Phases[names[i]] > s.Phases[names[j]] })
	for _, name := range names {
		ns := s.Phases[name]
		fmt.Fprintf(&b, "  phase %-12s %14s  %5.1f%%\n", name, time.Duration(ns), 100*float64(ns)/float64(s.WallNS))
	}
	fmt.Fprintf(&b, "heap allocations     %d objects, %d bytes\n", s.Allocs, s.AllocBytes)
	fmt.Fprintf(&b, "gc                   %d cycle(s), %s total pause\n", s.GCCycles, time.Duration(s.GCPauseNS))
	return b.String()
}
