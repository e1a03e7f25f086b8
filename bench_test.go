package lazyrc_test

// One benchmark per table and figure of the paper's evaluation. Each
// bench runs the experiment at Tiny scale on a 16-processor machine —
// sized so `go test -bench=.` finishes in minutes — and reports the
// figure's headline quantities as custom metrics. cmd/paperbench
// regenerates the full tables at the evaluation scale (small/medium, 64
// processors).
//
// Metric naming: `<app>_<proto>` is execution time normalized to the
// sequentially consistent run (the unit line of every figure);
// `<app>_<category>_pct` is a percentage share.

import (
	"testing"

	"lazyrc"
	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/exp"
	"lazyrc/internal/stats"
)

const (
	benchScale = apps.Tiny
	benchProcs = 16
)

// benchApps is the subset exercised per figure bench, chosen to cover
// the paper's three behaviour classes: false sharing (mp3d), migratory/
// eviction-bound (barnes-hut), and no-false-sharing (gauss).
var benchApps = []string{"barnes-hut", "gauss", "mp3d"}

func evaluator(b *testing.B) *exp.Evaluator {
	b.Helper()
	return exp.NewEvaluator(benchScale, benchProcs)
}

// runs runs the bench applications under the given protocols and returns
// the report view the bench's quantities are read from.
func runs(b *testing.B, cfgName string, protos ...string) *exp.View {
	b.Helper()
	var cells [][3]string
	for _, app := range benchApps {
		for _, proto := range protos {
			cells = append(cells, [3]string{cfgName, app, proto})
		}
	}
	e := evaluator(b)
	e.Prefetch(cells)
	rep := e.Report()
	if err := rep.Err(); err != nil {
		b.Fatal(err)
	}
	return rep.View()
}

// figure is runs plus the SC run every figure normalizes to.
func figure(b *testing.B, cfgName string, protos ...string) *exp.View {
	b.Helper()
	return runs(b, cfgName, append([]string{"sc"}, protos...)...)
}

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := lazyrc.DefaultConfig(64)
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
		if _, err := exp.Render("table1", exp.Report{Procs: cfg.Procs}.View()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2MissClassification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := runs(b, "default", "erc")
		for _, app := range benchApps {
			r, _ := v.Run("default", app, "erc")
			b.ReportMetric(r.MissShares[stats.FalseShare.String()], app+"_false_pct")
			b.ReportMetric(r.MissShares[stats.Eviction.String()], app+"_evict_pct")
		}
	}
}

func BenchmarkTable3MissRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := runs(b, "default", "erc", "lrc", "lrc-ext")
		for _, app := range benchApps {
			for _, proto := range []string{"erc", "lrc", "lrc-ext"} {
				r, _ := v.Run("default", app, proto)
				b.ReportMetric(r.MissRatePct, app+"_"+proto+"_missrate_pct")
			}
		}
	}
}

func BenchmarkFig4LazyVsEager(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := figure(b, "default", "erc", "lrc")
		for _, app := range benchApps {
			b.ReportMetric(v.Normalized("default", app, "erc"), app+"_erc")
			b.ReportMetric(v.Normalized("default", app, "lrc"), app+"_lrc")
		}
	}
}

func BenchmarkFig5OverheadBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := figure(b, "default", "lrc", "erc")
		for _, app := range benchApps {
			for _, proto := range []string{"lrc", "erc"} {
				cpu, rd, wr, sy, _ := v.OverheadShares("default", app, proto)
				b.ReportMetric(100*cpu, app+"_"+proto+"_cpu_pct")
				b.ReportMetric(100*rd, app+"_"+proto+"_read_pct")
				b.ReportMetric(100*wr, app+"_"+proto+"_write_pct")
				b.ReportMetric(100*sy, app+"_"+proto+"_sync_pct")
			}
		}
	}
}

func BenchmarkFig6LazyVsLazier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := figure(b, "default", "lrc", "lrc-ext")
		for _, app := range benchApps {
			b.ReportMetric(v.Normalized("default", app, "lrc"), app+"_lrc")
			b.ReportMetric(v.Normalized("default", app, "lrc-ext"), app+"_lrcext")
		}
	}
}

func BenchmarkFig7LazierBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := figure(b, "default", "lrc", "lrc-ext")
		for _, app := range benchApps {
			for _, proto := range []string{"lrc", "lrc-ext"} {
				_, _, _, sy, _ := v.OverheadShares("default", app, proto)
				b.ReportMetric(100*sy, app+"_"+proto+"_sync_pct")
			}
		}
	}
}

func BenchmarkFig8FutureMachine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := figure(b, "future", "erc", "lrc", "lrc-ext")
		for _, app := range benchApps {
			b.ReportMetric(v.Normalized("future", app, "erc"), app+"_erc")
			b.ReportMetric(v.Normalized("future", app, "lrc"), app+"_lrc")
			b.ReportMetric(v.Normalized("future", app, "lrc-ext"), app+"_lrcext")
		}
	}
}

func BenchmarkFig9FutureBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := figure(b, "future", "lrc", "erc")
		for _, app := range benchApps {
			for _, proto := range []string{"lrc", "erc"} {
				_, rd, _, sy, _ := v.OverheadShares("future", app, proto)
				b.ReportMetric(100*rd, app+"_"+proto+"_read_pct")
				b.ReportMetric(100*sy, app+"_"+proto+"_sync_pct")
			}
		}
	}
}

func BenchmarkSweepSensitivity(b *testing.B) {
	// One representative sweep point per §4.3 parameter: the lazy/eager
	// ratio at doubled memory latency, doubled bandwidth, and doubled
	// line size, for the most protocol-sensitive application.
	muts := map[string]func(*config.Config){
		"latency40": func(c *config.Config) { c.MemSetup = 40 },
		"bw4":       func(c *config.Config) { c.MemBW, c.NetBW, c.BusBW = 4, 4, 4 },
		"line256":   func(c *config.Config) { c.LineSize = 256 },
	}
	for i := 0; i < b.N; i++ {
		for name, mut := range muts {
			times := map[string]uint64{}
			for _, proto := range []string{"erc", "lrc"} {
				cfg := config.Default(benchProcs)
				cfg.CacheSize = exp.CacheForScale(benchScale)
				mut(&cfg)
				app, err := apps.New("mp3d", benchScale)
				if err != nil {
					b.Fatal(err)
				}
				m, err := apps.Run(cfg, proto, app)
				if err != nil {
					b.Fatal(err)
				}
				times[proto] = m.Stats.ExecutionTime()
			}
			b.ReportMetric(float64(times["lrc"])/float64(times["erc"]), "mp3d_lazy_over_eager_"+name)
		}
	}
}

func BenchmarkMp3dQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := evaluator(b)
		e.Prefetch(exp.TargetCells([]string{"mp3dquality"}, nil))
		rep := e.Report()
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
		if out, err := exp.Render("mp3dquality", rep.View()); err != nil || len(out) == 0 {
			b.Fatalf("quality report %q: %v", out, err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed — simulated
// cycles per wall-clock second on one representative run — for tracking
// the simulator itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		app, err := apps.New("fft", benchScale)
		if err != nil {
			b.Fatal(err)
		}
		cfg := config.Default(benchProcs)
		m, err := apps.Run(cfg, "lrc", app)
		if err != nil {
			b.Fatal(err)
		}
		cycles += m.Stats.ExecutionTime()
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim_cycles/s")
}

// BenchmarkValueStore is the value store's tax on cell_bare's job, fft/lrc
// at medium on 64 processors as paperbench builds it: plain loads read the
// backing store, tracked ones what the protocol delivered
// (Config.TrackValues). Both runs play the same events, so the ratio of
// their ns/event is the tax.
func BenchmarkValueStore(b *testing.B) {
	for _, v := range []struct {
		name  string
		track bool
	}{{"plain", false}, {"tracked", true}} {
		b.Run(v.name, func(b *testing.B) {
			job := exp.NewEvaluator(apps.Medium, 64).Job("default", "fft", "lrc")
			job.Cfg.TrackValues = v.track
			var events uint64
			for i := 0; i < b.N; i++ {
				app, err := apps.New(job.App, job.Scale)
				if err != nil {
					b.Fatal(err)
				}
				m, err := apps.Run(job.Cfg, job.Proto, app)
				if err != nil {
					b.Fatal(err)
				}
				events += m.Eng.Events()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
