package machine_test

import (
	"bytes"
	"testing"

	"lazyrc/internal/apps"
	"lazyrc/internal/causal"
	"lazyrc/internal/config"
	"lazyrc/internal/machine"
	"lazyrc/internal/protocol"
)

var allProtos = protocol.Names()

func runGaussSpans(t *testing.T, proto string, spans bool) *machine.Machine {
	t.Helper()
	cfg := config.Default(8)
	m, err := machine.New(cfg, proto)
	if err != nil {
		t.Fatal(err)
	}
	if spans {
		m.EnableSpans(true, 0)
	}
	app := apps.NewGauss(apps.Tiny)
	app.Setup(m)
	m.Run(app.Worker)
	if err := app.Verify(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSpansArePassive pins the tentpole guarantee: enabling causal
// tracing must not change a single simulated cycle, message, or stat.
// Every hook only reads cycle stamps the timing model already computed.
func TestSpansArePassive(t *testing.T) {
	for _, proto := range allProtos {
		t.Run(proto, func(t *testing.T) {
			off := runGaussSpans(t, proto, false)
			on := runGaussSpans(t, proto, true)
			if got, want := on.Stats.ExecutionTime(), off.Stats.ExecutionTime(); got != want {
				t.Fatalf("spans changed execution time: %d vs %d", got, want)
			}
			mOn, bOn := on.Net.Stats()
			mOff, bOff := off.Net.Stats()
			if mOn != mOff || bOn != bOff {
				t.Fatalf("spans changed traffic: %d/%d vs %d/%d", mOn, bOn, mOff, bOff)
			}
			c1, r1, w1, s1 := on.Stats.Aggregate()
			c2, r2, w2, s2 := off.Stats.Aggregate()
			if c1 != c2 || r1 != r2 || w1 != w2 || s1 != s2 {
				t.Fatalf("spans changed cycle breakdown")
			}
		})
	}
}

// TestSpanAttributionSumsToStalls: the critical-path analyzer must
// account for every stalled cycle. Stall episodes bracket exactly the
// charge sites of the stats breakdown, so the attribution total per
// class equals the stats aggregate per class, and no cycle is counted
// twice.
func TestSpanAttributionSumsToStalls(t *testing.T) {
	for _, proto := range allProtos {
		t.Run(proto, func(t *testing.T) {
			m := runGaussSpans(t, proto, true)
			attr := causal.Analyze(m.Causal)
			_, rd, wr, sy := m.Stats.Aggregate()
			if got, want := attr.ClassTotal(causal.StallRead), rd; got != want {
				t.Errorf("read-stall attribution %d, stats %d", got, want)
			}
			if got, want := attr.ClassTotal(causal.StallWrite), wr; got != want {
				t.Errorf("write-stall attribution %d, stats %d", got, want)
			}
			if got, want := attr.ClassTotal(causal.StallSync), sy; got != want {
				t.Errorf("sync-stall attribution %d, stats %d", got, want)
			}
			if got, want := attr.Total(), rd+wr+sy; got != want {
				t.Errorf("total attribution %d, stats stall total %d", got, want)
			}
			// Each episode's segments must exactly partition its window.
			for i := range attr.Episodes {
				ep := &attr.Episodes[i]
				at := ep.Span.Begin
				for _, seg := range ep.Segments {
					if seg.Begin != at {
						t.Fatalf("episode segments leave a gap at %d (expected %d)", seg.Begin, at)
					}
					at = seg.End
				}
				if at != ep.Span.End {
					t.Fatalf("episode segments end at %d, window ends at %d", at, ep.Span.End)
				}
			}
		})
	}
}

// TestSpanProperties: every span opened is closed by the time the
// machine quiesces, transaction ids are unique per root, and child spans
// begin within their run's bounds, across all protocols on the tiny
// config. The bound is the engine's quiesce time rather than
// ExecutionTime (the last CPU's retirement): a release-class sync
// message is fire-and-forget, so when the last-finishing CPU's final
// instruction is a flag-set or barrier arrival homed elsewhere, the
// home-side notice processing legitimately completes a few cycles after
// that CPU retires.
func TestSpanProperties(t *testing.T) {
	for _, proto := range allProtos {
		t.Run(proto, func(t *testing.T) {
			m := runGaussSpans(t, proto, true)
			tr := m.Causal
			if n := tr.OpenCount(); n != 0 {
				t.Fatalf("%d spans still open at end of run", n)
			}
			if tr.Dropped() != 0 {
				t.Fatalf("%d spans dropped on the tiny config", tr.Dropped())
			}
			end := m.Eng.Now()
			if exec := m.Stats.ExecutionTime(); end < exec {
				t.Fatalf("machine quiesced at %d, before the last CPU retired at %d", end, exec)
			}
			roots := make(map[uint64]*causal.Span)
			for _, s := range tr.Spans() {
				if s.End < s.Begin {
					t.Fatalf("span %d (%v) ends before it begins: [%d,%d]", s.ID, s.Kind, s.Begin, s.End)
				}
				if s.End > end {
					t.Fatalf("span %d (%v) ends at %d, after the run's end %d", s.ID, s.Kind, s.End, end)
				}
				if s.Kind == causal.KindTxn || s.Kind == causal.KindSync {
					if s.TID == 0 {
						t.Fatalf("root span %d has no TID", s.ID)
					}
					if prev, dup := roots[s.TID]; dup {
						t.Fatalf("TID %d used by two roots (spans %d and %d)", s.TID, prev.ID, s.ID)
					}
					sCopy := s
					roots[s.TID] = &sCopy
				}
			}
			if n := len(tr.Spans()); n == 0 || uint64(n) != tr.Count() || len(roots) == 0 {
				t.Fatalf("%d spans retained of %d digested, %d roots", n, tr.Count(), len(roots))
			}
			// Child spans of a transaction begin no earlier than their
			// root: every piece of protocol work on a chain is caused by
			// the request that opened it. (Children may END after the
			// root closes — a fire-and-forget notice can outlive the
			// sync episode that triggered it.)
			for _, s := range tr.Spans() {
				if s.Kind == causal.KindTxn || s.Kind == causal.KindSync {
					continue
				}
				if root, ok := roots[s.TID]; ok && s.Begin < root.Begin {
					t.Fatalf("span %d (%v) begins at %d, before its root txn %d began at %d",
						s.ID, s.Kind, s.Begin, s.TID, root.Begin)
				}
			}
		})
	}
}

// TestSpanDigestDeterministic: the span stream is a pure function of the
// run — repeated seeded runs produce identical digests, and the
// digest-only tracer (runner mode) folds to the same fingerprint as the
// retaining one.
func TestSpanDigestDeterministic(t *testing.T) {
	m1 := runGaussSpans(t, "lrc", true)
	m2 := runGaussSpans(t, "lrc", true)
	d1, d2 := m1.Causal.Digest(), m2.Causal.Digest()
	if d1 == "" || d1 != d2 {
		t.Fatalf("span digest not deterministic: %q vs %q", d1, d2)
	}

	cfg := config.Default(8)
	m3, err := machine.New(cfg, "lrc")
	if err != nil {
		t.Fatal(err)
	}
	m3.EnableSpans(false, 0) // digest-only mode
	app := apps.NewGauss(apps.Tiny)
	app.Setup(m3)
	m3.Run(app.Worker)
	if d3 := m3.Causal.Digest(); d3 != d1 {
		t.Fatalf("digest-only tracer diverges from retaining tracer: %q vs %q", d3, d1)
	}
	if m3.Causal.Spans() != nil {
		t.Fatal("digest-only tracer retained spans")
	}
}

// TestPerfettoExportValidates: the exported trace passes the minimal
// trace-event schema check and carries events for every node.
func TestPerfettoExportValidates(t *testing.T) {
	m := runGaussSpans(t, "lrc", true)
	var buf bytes.Buffer
	if err := m.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := causal.ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}
	if n < 100 {
		t.Fatalf("suspiciously small trace: %d events", n)
	}
}

// TestSpansDisabledNoAllocs: with tracing disabled every hook is a nil
// no-op — the disabled path must not allocate.
func TestSpansDisabledNoAllocs(t *testing.T) {
	var tr *causal.Tracer
	allocs := testing.AllocsPerRun(100, func() {
		tid, tidRoot := tr.BeginTxn(1, 42, 10)
		sid := tr.BeginStall(1, tid, causal.StallRead, "read fill", 10)
		tr.Net(tid, 0, 1, 2, 42, 10, 20, 0, 0)
		tr.Service(causal.KindDir, 1, 42, 10, 12, 20)
		tr.EndStall(sid, 20)
		tr.EndTxn(tidRoot, 20)
		_ = tr.Capture()
		tr.Restore(0)
		_ = tr.Current()
		_ = tr.Digest()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates: %v allocs/op", allocs)
	}
}
