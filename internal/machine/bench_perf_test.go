package machine_test

import (
	"testing"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/exp"
	"lazyrc/internal/machine"
)

// protocols is every coherence protocol, in evaluation order.
var protocols = []string{"sc", "erc", "lrc", "lrc-ext", "tardis", "tardis2"}

// BenchmarkProtocolDispatch runs one full tiny gauss simulation per
// iteration, once per protocol: the end-to-end cost of the per-access
// protocol dispatch path (cache lookup, miss handling, message
// round-trips) under each coherence implementation. Compare protocols
// against each other and against prior runs with -benchmem to see where
// host time and allocations go.
//
//	go test ./internal/machine -bench ProtocolDispatch -benchtime 3x -benchmem
func BenchmarkProtocolDispatch(b *testing.B) {
	for _, proto := range protocols {
		b.Run(proto, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := machine.New(config.Default(8), proto)
				if err != nil {
					b.Fatal(err)
				}
				app := apps.NewGauss(apps.Tiny)
				app.Setup(m)
				m.Run(app.Worker)
				if err := app.Verify(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimPerf runs the benchmark of record's flagship cell (fft/lrc,
// medium, 64 processors — 1.62 M events) in three modes, the overhead
// contracts CI's perf job gates as ratios on one host, best of three per
// mode: disabled attaches nothing (nil-receiver no-ops on the hot path);
// enabled attaches the wall-clock phase profiler alone — the untimed half
// of every bracket, two tests, plus the clock reads of one event in
// perf.Stride, at most 1.15 × disabled; observed attaches exactly what
// runner.simulate does to every stored cell — telemetry every 4,096
// cycles, digest-only spans, the profiler — the roadmap's observer budget,
// at most 1.35 × disabled.
//
//	go test ./internal/machine -run '^$' -bench SimPerf -benchtime 5x
func BenchmarkSimPerf(b *testing.B) {
	cfg, err := exp.CellConfig("default", 64, apps.Medium, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"disabled", "enabled", "observed"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				m, err := machine.New(cfg, "lrc")
				if err != nil {
					b.Fatal(err)
				}
				switch mode {
				case "enabled":
					m.EnablePerf()
				case "observed":
					m.EnableMetrics(4096)
					m.EnableSpans(false, 0)
					m.EnablePerf()
				}
				app := apps.NewFFT(apps.Medium)
				app.Setup(m)
				m.Run(app.Worker)
				if err := app.Verify(); err != nil {
					b.Fatal(err)
				}
				events += m.Eng.Events()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
