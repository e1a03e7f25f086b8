package machine

import (
	"io"

	"lazyrc/internal/causal"
	"lazyrc/internal/protocol"
)

// EnableSpans attaches a causal span tracer to the machine. It must be
// called before Run, in any order relative to EnableMetrics and
// EnablePerf. Like telemetry, tracing is strictly passive: the
// tracer only reads cycle stamps the timing model already computed, so
// enabling it leaves every simulated cycle, message, and stat
// bit-identical to an untraced run (pinned by TestSpansArePassive).
//
// Wired here:
//
//   - the engine's task tracer, which threads the current transaction id
//     through every scheduled event chain (Capture at At/Background,
//     Restore around execution) — the TID propagation mechanism;
//   - the mesh, which stamps each message's CT at send time and records
//     one net span per wire flight (port waits split out);
//   - the protocol Env, whose nodes open a root span per coherence
//     transaction and sync episode, bracket every CPU stall charge with
//     a stall span, and record directory / memory / bus / fan-out /
//     notice / ack service occupancy.
//
// retain selects the full span store (export + critical-path analysis);
// digest-only mode keeps just the streaming fingerprint, bounding
// memory for runner sweeps. limit caps retained spans (<=0: default).
func (m *Machine) EnableSpans(retain bool, limit int) *causal.Tracer {
	var tr *causal.Tracer
	if retain {
		tr = causal.New(limit)
	} else {
		tr = causal.NewDigest()
	}
	m.Causal = tr
	m.Eng.SetTaskTracer(tr)
	m.Net.SetCausal(tr)
	m.Env.Causal = tr
	return tr
}

// WritePerfetto writes the run's timeline as trace-event JSON: the
// retained spans and, when metrics are enabled, every telemetry series
// as a counter track on the same cycle axis (causal.WritePerfetto).
func (m *Machine) WritePerfetto(w io.Writer) error {
	return causal.WritePerfetto(w, m.Causal, m.Tel, len(m.Nodes), msgKindName)
}

// msgKindName labels a mesh message kind in traces and telemetry.
func msgKindName(k int) string { return protocol.MsgKind(k).String() }
