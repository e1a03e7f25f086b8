package machine

import (
	"lazyrc/internal/perf"
)

// EnablePerf attaches a wall-clock phase profiler to the machine. It
// must be called before Run, in any order relative to EnableMetrics and
// EnableSpans. Profiling is strictly passive: it touches only the
// profiler's own state, so an instrumented run is bit-identical —
// cycles, digests, stats — to an uninstrumented one (pinned by
// TestPerfIsPassive). It is also cheap: the engine reads the host clock
// only in one event of perf.Stride and in background events, and charges
// each to the phase its kind was registered with (BenchmarkSimPerf states
// the measured cost). No other subsystem is wired to it.
// Machine.Run brackets the execution with Begin/End; m.Perf.Snapshot()
// has the profile afterwards.
func (m *Machine) EnablePerf() *perf.Profiler {
	m.Perf = perf.New()
	m.Eng.SetProfiler(m.Perf)
	return m.Perf
}
