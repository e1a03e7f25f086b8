package machine_test

import (
	"testing"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/exp"
	"lazyrc/internal/machine"
)

// protocols is every registered coherence protocol, in registry order.
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

// BenchmarkSimPerf pairs a profiled and an unprofiled run of the
// benchmark of record's flagship cell (fft/lrc, medium, 64 processors —
// 1.62 M events), the overhead contract for the wall-clock phase
// profiler: disabled is free (nil-receiver no-ops on the hot path);
// enabled costs the untimed half of every bracket, two tests, plus the
// clock reads of one event in perf.Stride — measured at 1.04× disabled
// (460 → 478 ns/event, the medians of seven alternated runs on the 2-core
// reference VM, single runs between 0.97× and 1.18×), where reading the
// clock in every bracket cost 1.60× (477 → 765). CI's perf job takes the
// best of three per mode and fails above 1.15×.
//
//	go test ./internal/machine -run '^$' -bench SimPerf -benchtime 5x
func BenchmarkSimPerf(b *testing.B) {
	cfg, err := exp.CellConfig("default", 64, apps.Medium, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"disabled", "enabled"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				m, err := machine.New(cfg, "lrc")
				if err != nil {
					b.Fatal(err)
				}
				if mode == "enabled" {
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
