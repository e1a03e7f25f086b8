// Command paperbench regenerates the tables and figures of the paper's
// evaluation section: the system-parameter table (Table 1), the
// miss-classification and miss-rate tables (Tables 2 and 3, printed as
// "Figure 2/3" in the text), the normalized-execution-time and
// overhead-breakdown figures on the default machine (Figures 4-7) and the
// future machine (Figures 8-9), the §4.3 sensitivity sweeps, and the
// §4.2 mp3d quality-of-solution check.
//
// The evaluation matrix executes through internal/runner: simulations
// run concurrently on -j workers, results are deduplicated by content
// fingerprint (figures sharing a cell simulate it once), an optional
// -cache directory (the segment store lrcsimd also uses; one writer at
// a time) carries results across invocations (a warm rerun performs
// zero simulations), and -baseline gates the fresh report against a
// committed reference. The rendered output is bit-identical for any -j.
//
// Usage:
//
//	paperbench [-scale small] [-procs 64] [-j N] [-cache results.d]
//	           [-baseline BENCH_baseline.json -tol 0] [targets...]
//
// Targets: table1 table2 table3 fig4 fig5 fig6 fig7 fig8 fig9 tardis
// sweep mp3dquality all (default: all); extensions: ablate, scaling,
// dsm, chaos (the lossy-interconnect soak: every app × protocol under
// message loss and link outages, gated on the end-state equivalence
// oracle). The tardis target compares the timestamp-coherence protocols
// against the invalidation protocols; -protocols narrows the protocol
// set it and the chaos soak cover.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"lazyrc"
	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/exp"
	"lazyrc/internal/perf"
	"lazyrc/internal/runner"
	"lazyrc/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperbench: ")
	var (
		scaleFlag  = flag.String("scale", "small", "input scale: tiny, small, medium, paper")
		procs      = flag.Int("procs", 64, "number of processors")
		quiet      = flag.Bool("q", false, "suppress per-run progress")
		jsonOut    = flag.String("json", "", "also write a machine-readable report to this file")
		seed       = flag.Uint64("seed", 1, "base random seed stamped into every run's configuration; a report plus its seed fully determines a replay")
		workers    = flag.Int("j", runtime.GOMAXPROCS(0), "simulation worker count; results are bit-identical for any value")
		cacheDir   = flag.String("cache", "", "content-addressed result store directory (single writer: a second paperbench or lrcsimd on the same directory is refused); fingerprint-identical runs are served from it instead of re-simulating")
		baseline   = flag.String("baseline", "", "regression-gate baseline report (JSON); out-of-tolerance drift exits non-zero")
		tol        = flag.Float64("tol", 0, "gate tolerance on cycle counts and traffic, in percent of the baseline value")
		writeBase  = flag.String("write-baseline", "", "write the canonical (provenance-free) report to this file, for committing as the gate baseline")
		reportOut  = flag.String("report", "", "write a self-contained HTML report of the evaluation to this file")
		critPath   = flag.Bool("critical-path", false, "also print the per-app per-protocol critical-path stall attribution table (runs span-traced simulations outside the result cache)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		remote     = flag.String("remote", "", "submit the evaluation to a running lrcsimd daemon at this base URL (e.g. http://127.0.0.1:7077) instead of simulating locally; matrix targets only, -j and -cache are the daemon's concern")
		protoFlag  = flag.String("protocols", "all", "comma-separated protocol subset for the tardis target and the chaos soak (\"all\" = every registered protocol)")
		perfTrend  = flag.String("perf-trend", "PERF_trend.json", "committed cycles/sec trend file for the -perf-write / -perf-gate pass")
		perfWrite  = flag.Bool("perf-write", false, "measure host throughput for every (app, protocol) cell serially and append the result as a new entry in -perf-trend")
		perfGate   = flag.Bool("perf-gate", false, "measure host throughput and fail on cells slower than the latest -perf-trend entry beyond -perf-tol")
		perfTol    = flag.Float64("perf-tol", 50, "perf gate tolerance on cycles/sec regressions, in percent of the baseline; wall-clock timings wobble with host load, so the default is deliberately generous — tighten it on a quiet, pinned machine")
		perfReport = flag.String("perf-report", "", "write a self-contained HTML performance report (phase breakdown + trend) to this file")
		perfReps   = flag.Int("perf-reps", 3, "executions per cell in the perf pass; the fastest is recorded (best-of-N damps host noise)")
	)
	flag.Parse()

	protoList, err := config.ParseProtocols(*protoFlag)
	if err != nil {
		log.Fatal(err)
	}

	stopProfiles, err := perf.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}

	scale, err := lazyrc.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	targets := flag.Args()
	perfO := perfOpts{
		trendPath: *perfTrend, write: *perfWrite, gate: *perfGate,
		tolPct: *perfTol, report: *perfReport, reps: *perfReps,
		protos: protoList, quiet: *quiet,
	}
	if len(targets) == 0 {
		if perfO.active() {
			// A bare perf invocation measures throughput only; ask for
			// explicit targets (or "all") to also render the figures.
			targets = nil
		} else {
			targets = []string{"all"}
		}
	}
	if *remote != "" {
		code := runRemote(remoteOpts{
			base: *remote, targets: targets, scale: *scaleFlag,
			procs: *procs, seed: *seed, quiet: *quiet,
			jsonOut: *jsonOut, reportOut: *reportOut,
			baseline: *baseline, tol: *tol,
		})
		stopProfiles()
		os.Exit(code)
	}
	ctx := context.Background()

	// The store is held as the concrete type for Close, but the runner
	// takes the interface: it stays an untyped nil when no cache was
	// requested so the runner's store==nil fast path applies.
	var cache *store.Store
	var rstore runner.ResultStore
	if *cacheDir != "" {
		cache, err = store.Open(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		if n := cache.Recovered(); n > 0 && !*quiet {
			fmt.Fprintf(os.Stderr, "cache: skipped %d corrupt line(s) in %s; affected runs will re-simulate\n", n, *cacheDir)
		}
		rstore = cache
	}
	rn := runner.New(*workers, rstore)
	if !*quiet {
		rn.Emit = printEvent
	}

	e := exp.NewEvaluatorWith(scale, *procs, rn)
	e.Seed = *seed

	// The perf pass runs first, before any worker-pool fan-out, so its
	// serial timings are not polluted by concurrent simulations.
	perfCode := 0
	if perfO.active() {
		perfCode = runPerfPass(e, scale, *procs, perfO)
	}

	start := time.Now()

	// Fan the whole requested matrix out to the worker pool before any
	// rendering: rendering then reads memoized cells in table order, so
	// the output is deterministic while the simulations were not. A
	// narrowed -protocols drops only the timestamp-protocol cells — the
	// invalidation-protocol cells are shared with the paper figures and
	// would be simulated anyway.
	protoSet := map[string]bool{}
	for _, p := range protoList {
		protoSet[p] = true
	}
	cells := exp.TargetCells(targets)
	kept := cells[:0]
	for _, c := range cells {
		if (c[2] == "tardis" || c[2] == "tardis2") && !protoSet[c[2]] {
			continue
		}
		kept = append(kept, c)
	}
	e.Prefetch(kept)

	// The targets in rendering order; inAll marks the ones "all" expands
	// to (the paper's own tables and figures — the extensions are opt-in).
	chaosFailed := false
	renderers := []struct {
		name   string
		inAll  bool
		render func()
	}{
		{"table1", true, func() { fmt.Println(exp.Table1(config.Default(*procs))) }},
		{"table2", true, func() { fmt.Println(exp.Table2(e)) }},
		{"table3", true, func() { fmt.Println(exp.Table3(e)) }},
		{"fig4", true, func() { fmt.Println(exp.Fig4(e)) }},
		{"fig5", true, func() { fmt.Println(exp.Fig5(e)) }},
		{"fig6", true, func() { fmt.Println(exp.Fig6(e)) }},
		{"fig7", true, func() { fmt.Println(exp.Fig7(e)) }},
		{"fig8", true, func() { fmt.Println(exp.Fig8(e)) }},
		{"fig9", true, func() { fmt.Println(exp.Fig9(e)) }},
		{"tardis", true, func() { fmt.Println(exp.TardisTable(e, protoList)) }},
		{"sweep", true, func() {
			for _, sw := range exp.Sweeps() {
				fmt.Println(exp.RunSweep(ctx, rn, scale, *procs, sw))
			}
		}},
		{"mp3dquality", true, func() { fmt.Println(exp.Mp3dQuality(scale, *procs)) }},
		{"ablate", false, func() {
			for _, ab := range exp.Ablations() {
				fmt.Println(exp.RunAblation(ctx, rn, scale, *procs, ab))
			}
		}},
		{"dsm", false, func() { fmt.Println(exp.LazierUnderSoftwareCoherence(ctx, rn, scale, *procs, "locusroute")) }},
		{"scaling", false, func() {
			for _, app := range []string{"mp3d", "blu", "gauss"} {
				fmt.Println(exp.RunScaling(ctx, rn, scale, app, exp.ScalingCounts))
			}
		}},
		{"chaos", false, func() {
			body, err := exp.RunChaos(ctx, rn, scale, *procs, *seed, exp.AppOrder, protoList)
			fmt.Println(body)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
				chaosFailed = true
			}
		}},
	}
	want := map[string]bool{}
	for _, t := range targets {
		want[t] = true
	}
	for _, r := range renderers {
		if want[r.name] || (r.inAll && want["all"]) {
			r.render()
		}
	}
	if *critPath {
		fmt.Println(exp.CriticalPath(scale, *procs, *seed))
	}

	exitCode := 0
	if chaosFailed || perfCode != 0 {
		exitCode = 1
	}
	if err := e.VerifyAll(); err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: a run failed verification: %v\n", err)
		exitCode = 1
	}
	report := e.Report()
	if *jsonOut != "" {
		writeReport(*jsonOut, report)
	}
	if *reportOut != "" {
		if err := perf.WriteFile(*reportOut, func(w io.Writer) error { return exp.WriteHTML(w, report) }); err != nil {
			log.Fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "HTML report written to %s\n", *reportOut)
		}
	}
	if *writeBase != "" {
		writeReport(*writeBase, report.Stable())
		if !*quiet {
			fmt.Fprintf(os.Stderr, "baseline written to %s (%d runs)\n", *writeBase, len(report.Runs))
		}
	}
	if *baseline != "" && !gate(*baseline, report, *tol, *quiet) {
		exitCode = 1
	}
	if cache != nil {
		if err := cache.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: cache: %v\n", err)
			exitCode = 1
		}
	}
	if !*quiet {
		m := rn.Meta()
		fmt.Fprintf(os.Stderr, "total wall-clock: %.1fs (scale %s, %d procs, %d workers; %d simulated, %d cache hits, %d failed)\n",
			time.Since(start).Seconds(), apps.Scale(scale), *procs, m.Workers,
			m.Simulated, m.CacheHits, m.FailedJobs)
	}
	stopProfiles()
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// writeReport writes a report as indented JSON, fataling on any error
// (paperbench output files are the whole point of the invocation).
func writeReport(path string, r exp.Report) {
	if err := perf.WriteFile(path, func(w io.Writer) error { return exp.WriteReportJSON(w, r) }); err != nil {
		log.Fatal(err)
	}
}

// printEvent is the per-job progress line, from the local runner's
// lifecycle events and a remote daemon's SSE stream alike.
func printEvent(ev runner.Event) {
	switch ev.Kind {
	case runner.EventRunning, runner.EventCached, runner.EventDone, runner.EventFailed:
		line := fmt.Sprintf("%-9s %s/%s/%s", ev.Kind, ev.App, ev.Scale, ev.Proto)
		if ev.Err != "" {
			line += ": " + ev.Err
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// gate runs the regression gate of report against the baseline file and
// prints its verdict, reporting whether the report passed. The local
// and -remote paths share it.
func gate(baseline string, report exp.Report, tol float64, quiet bool) bool {
	base, err := exp.LoadReport(baseline)
	if err != nil {
		log.Fatal(err)
	}
	if viols := exp.Gate(base, report, tol); len(viols) > 0 {
		for _, v := range viols {
			fmt.Fprintf(os.Stderr, "gate: %s\n", v)
		}
		fmt.Fprintf(os.Stderr, "gate: FAILED against %s: %d violation(s) at tolerance %.3f%%\n",
			baseline, len(viols), tol)
		return false
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "gate: ok against %s (%d runs, tolerance %.3f%%)\n",
			baseline, len(base.Runs), tol)
	}
	return true
}
