package machine

import (
	"lazyrc/internal/perf"
)

// EnablePerf attaches a wall-clock phase profiler to the machine. It
// must be called before Run, in any order relative to EnableMetrics and
// EnableSpans: whichever comes later wires itself to the ones already
// attached. Profiling is strictly passive: every hook touches only the
// profiler's own state, so an instrumented run is bit-identical —
// cycles, digests, stats — to an uninstrumented one (pinned by
// TestPerfIsPassive). It is also cheap: the host clock is read only in
// one event of perf.Stride and in background events; everywhere else a
// hook is two tests (BenchmarkSimPerf states the measured cost).
//
// Wired here: the engine run loop (timed-event selection; queue, frontend
// and the dispatch/background residual), the mesh, the protocol Env
// (protocol, membus, directory), every node's directory table, and the
// causal tracer (EnableSpans does the same when it runs second).
// Machine.Run brackets the execution with Begin/End; m.Perf.Snapshot()
// has the profile afterwards.
func (m *Machine) EnablePerf() *perf.Profiler {
	p := perf.New()
	m.Perf = p
	m.Eng.SetProfiler(p)
	m.Net.SetProfiler(p)
	m.Env.Prof = p
	for _, n := range m.Nodes {
		n.Dir.SetProfiler(p)
	}
	m.Causal.SetProfiler(p)
	return p
}
