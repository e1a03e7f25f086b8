package machine_test

import (
	"strings"
	"testing"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/machine"
	"lazyrc/internal/telemetry"
)

func runGauss(t *testing.T, proto string, metricsInterval uint64) *machine.Machine {
	t.Helper()
	cfg := config.Default(8)
	m, err := machine.New(cfg, proto)
	if err != nil {
		t.Fatal(err)
	}
	if metricsInterval > 0 {
		m.EnableMetrics(metricsInterval).Retain(true)
	}
	app := apps.NewGauss(apps.Tiny)
	app.Setup(m)
	m.Run(app.Worker)
	if err := app.Verify(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMetricsArePassive is the tentpole's core guarantee: enabling
// telemetry must not change a single simulated cycle. The sampler is a
// background event that only reads state, so execution time, traffic, and
// the cycle breakdown must be bit-identical with metrics on and off.
func TestMetricsArePassive(t *testing.T) {
	for _, proto := range []string{"sc", "erc", "lrc", "lrc-ext"} {
		t.Run(proto, func(t *testing.T) {
			off := runGauss(t, proto, 0)
			on := runGauss(t, proto, 1000)
			if got, want := on.Stats.ExecutionTime(), off.Stats.ExecutionTime(); got != want {
				t.Fatalf("metrics changed execution time: %d vs %d", got, want)
			}
			mOn, bOn := on.Net.Stats()
			mOff, bOff := off.Net.Stats()
			if mOn != mOff || bOn != bOff {
				t.Fatalf("metrics changed traffic: %d/%d vs %d/%d", mOn, bOn, mOff, bOff)
			}
			c1, r1, w1, s1 := on.Stats.Aggregate()
			c2, r2, w2, s2 := off.Stats.Aggregate()
			if c1 != c2 || r1 != r2 || w1 != w2 || s1 != s2 {
				t.Fatalf("metrics changed cycle breakdown")
			}
		})
	}
}

// TestMetricsDigestDeterministic: the same run produces the same digest,
// and the series actually carry data.
func TestMetricsDigestDeterministic(t *testing.T) {
	m1 := runGauss(t, "lrc", 1000)
	m2 := runGauss(t, "lrc", 1000)
	d1, d2 := m1.Tel.Digest(), m2.Tel.Digest()
	if d1 == "" || d1 != d2 {
		t.Fatalf("digest not deterministic: %q vs %q", d1, d2)
	}
	if m1.Tel.Samples() < 2 {
		t.Fatalf("only %d samples for a %d-cycle run", m1.Tel.Samples(), m1.Stats.ExecutionTime())
	}
	// The headline sources must have fired.
	for _, name := range []string{"stall.cpu", "stall.read", "net.msgs", "wb.depth.000", "dir.shared"} {
		s := m1.Tel.SeriesByName(name)
		if s == nil || len(s.Points()) != m1.Tel.Samples() {
			t.Fatalf("series %q missing or misaligned", name)
		}
	}
	var total float64
	for _, v := range m1.Tel.SeriesByName("net.msgs").Points() {
		total += v
	}
	msgs, _ := m1.Net.Stats()
	if total != float64(msgs) {
		t.Fatalf("net.msgs deltas sum to %v, traffic total is %d", total, msgs)
	}
}

// TestMetricsHistogramsPopulated: per-kind latency histograms and buffer
// residency histograms carry observations after a sharing run.
func TestMetricsHistogramsPopulated(t *testing.T) {
	m := runGauss(t, "lrc", 1000)
	var latHists int
	var latObs uint64
	m.Tel.VisitHistograms(func(h *telemetry.Histogram) {
		if strings.HasPrefix(h.Name(), "net.lat.") {
			latHists++
			latObs += h.Count()
		}
	})
	if latHists < 3 {
		t.Fatalf("only %d per-kind latency histograms", latHists)
	}
	if latObs == 0 {
		t.Fatal("latency histograms empty")
	}
	// lrc uses the coalescing buffer; every drained entry must have been
	// observed for residency.
	var cb *telemetry.Histogram
	m.Tel.VisitHistograms(func(h *telemetry.Histogram) {
		if h.Name() == "cb.residency" {
			cb = h
		}
	})
	if cb.Count() == 0 {
		t.Fatal("cb.residency empty after an lrc run")
	}
	if cb.Max() == 0 {
		t.Fatal("cb.residency never saw a nonzero residency")
	}
}

// TestTransportSeriesOnlyWhenFaulted: the transport's series are
// registered only on a machine with a fault injector, so a fault-free
// run's digest keeps its shape.
func TestTransportSeriesOnlyWhenFaulted(t *testing.T) {
	for _, plan := range []string{"", "delay=0.1:1:64"} {
		cfg := config.Default(8)
		cfg.FaultPlan = plan
		m, err := machine.New(cfg, "lrc")
		if err != nil {
			t.Fatal(err)
		}
		m.EnableMetrics(1000)
		if got := m.Tel.SeriesByName("net.retx") != nil; got != (plan != "") {
			t.Errorf("plan %q: net.retx registered = %v", plan, got)
		}
	}
}
