package machine_test

import (
	"testing"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/machine"
)

// runGaussProfiled runs tiny gauss under proto with telemetry and span
// tracing on, optionally with the wall-clock phase profiler attached.
func runGaussProfiled(t *testing.T, proto string, profiled bool) *machine.Machine {
	t.Helper()
	m, err := machine.New(config.Default(8), proto)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableMetrics(1000)
	m.EnableSpans(true, 0)
	if profiled {
		m.EnablePerf()
	}
	app := apps.NewGauss(apps.Tiny)
	app.Setup(m)
	m.Run(app.Worker)
	if err := app.Verify(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPerfIsPassive is the profiler's core guarantee, the same bar
// telemetry and span tracing meet: attaching the wall-clock phase
// profiler must not change a single simulated bit. Every hook reads the
// host clock and writes only profiler-private accumulators, so execution
// time, traffic, the cycle breakdown, the telemetry digest, and the
// causal span digest must be identical with profiling on and off — for
// every protocol, since each wires its own dispatch paths.
func TestPerfIsPassive(t *testing.T) {
	for _, proto := range []string{"sc", "erc", "lrc", "lrc-ext", "tardis", "tardis2"} {
		t.Run(proto, func(t *testing.T) {
			off := runGaussProfiled(t, proto, false)
			on := runGaussProfiled(t, proto, true)
			if got, want := on.Stats.ExecutionTime(), off.Stats.ExecutionTime(); got != want {
				t.Fatalf("perf changed execution time: %d vs %d", got, want)
			}
			mOn, bOn := on.Net.Stats()
			mOff, bOff := off.Net.Stats()
			if mOn != mOff || bOn != bOff {
				t.Fatalf("perf changed traffic: %d/%d vs %d/%d", mOn, bOn, mOff, bOff)
			}
			c1, r1, w1, s1 := on.Stats.Aggregate()
			c2, r2, w2, s2 := off.Stats.Aggregate()
			if c1 != c2 || r1 != r2 || w1 != w2 || s1 != s2 {
				t.Fatalf("perf changed cycle breakdown")
			}
			if got, want := on.Tel.Digest(), off.Tel.Digest(); got != want {
				t.Fatalf("perf changed metrics digest: %s vs %s", got, want)
			}
			if got, want := on.Causal.Digest(), off.Causal.Digest(); got != want {
				t.Fatalf("perf changed span digest: %s vs %s", got, want)
			}
			if got, want := on.MemDigest(), off.MemDigest(); got != want {
				t.Fatalf("perf changed final memory: %s vs %s", got, want)
			}
		})
	}
}

// TestPerfProfileIsPopulated: the profiled run actually measured
// something — wall time accrued, throughput rates are consistent with the
// simulated cycle count, and the phases are exactly those the machine's
// event kinds were registered with, summing to the wall time. Every kind
// but the plain func() events (dispatch, which a fault-free run may never
// time) is sure to be sampled.
func TestPerfProfileIsPopulated(t *testing.T) {
	m := runGaussProfiled(t, "lrc", true)
	snap := m.Perf.Snapshot()
	if snap.WallNS <= 0 {
		t.Fatalf("wall time not measured: %d ns", snap.WallNS)
	}
	if snap.Cycles != m.Eng.Now() {
		t.Fatalf("snapshot cycles %d, engine at %d", snap.Cycles, m.Eng.Now())
	}
	if snap.CyclesPerSec <= 0 || snap.EventsPerSec <= 0 {
		t.Fatalf("throughput not computed: %f cycles/s, %f events/s", snap.CyclesPerSec, snap.EventsPerSec)
	}
	var sum int64
	for _, ns := range snap.Phases {
		sum += ns
	}
	if sum != snap.WallNS {
		t.Fatalf("phase sum %d != wall %d", sum, snap.WallNS)
	}
	kinds := map[string]bool{"dispatch": false, "queue": true, "frontend": true, "mesh": true, "protocol": true, "background": true}
	for phase, ns := range snap.Phases {
		if _, ok := kinds[phase]; !ok || ns <= 0 {
			t.Errorf("phase %q (%d ns) is not a registered kind's: %v", phase, ns, snap.Phases)
		}
	}
	for phase, sure := range kinds {
		if _, ok := snap.Phases[phase]; sure && !ok {
			t.Errorf("phase %q never accrued time: %v", phase, snap.Phases)
		}
	}
}
