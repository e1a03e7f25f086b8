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
// Every target printed is rendered from one exp.Report — Table 1, the
// paper's matrix, the studies (sweep, mp3dquality, ablate, dsm, scaling)
// and the chaos soak alike — and it does not matter where the report came
// from: evaluated here, or — with -remote — by a running lrcsimd daemon,
// from the same exp.Spec. From the report on, the two modes share one
// tail (print, -json, -report, -write-baseline, -baseline), so what is
// printed depends only on the spec and the report. Every flag shapes the
// spec, chooses where the report is computed, or writes the output. A
// cell's critical-path attribution is lrcsim -critical-path's.
//
// Usage:
//
//	paperbench [-scale small] [-procs 64] [-j N] [-cache results.d]
//	           [-baseline BENCH_baseline.json] [targets...]
//
// Targets: table1 table2 table3 fig4 fig5 fig6 fig7 fig8 fig9 sweep
// mp3dquality all (default: all); claims (the paper's conclusions
// as a Markdown table of verdicts); extensions: ablate, dsm, scaling,
// chaos (the lossy-interconnect soak: every app × protocol under message
// loss and link outages, gated on the end-state equivalence oracle); and
// any cell by its key variant/app/protocol (default/gauss/lrc,
// line=256/mp3d/erc), printed as one generic table. An unknown target is
// refused.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"lazyrc/internal/api"
	"lazyrc/internal/exp"
	"lazyrc/internal/perf"
	"lazyrc/internal/runner"
	"lazyrc/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, obtains the evaluation's
// report (locally or from a daemon), renders and writes what was asked
// for, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scaleFlag  = fs.String("scale", "small", "input scale: tiny, small, medium, paper")
		procs      = fs.Int("procs", 64, "number of processors")
		quiet      = fs.Bool("q", false, "suppress per-run progress")
		jsonOut    = fs.String("json", "", "also write a machine-readable report to this file")
		seed       = fs.Uint64("seed", 1, "base random seed stamped into every run's configuration; a report plus its seed fully determines a replay")
		workers    = fs.Int("j", runtime.GOMAXPROCS(0), "simulation worker count; results are bit-identical for any value")
		cacheDir   = fs.String("cache", "", "content-addressed result store directory (single writer: a second paperbench or lrcsimd on the same directory is refused); fingerprint-identical runs are served from it instead of re-simulating")
		baseline   = fs.String("baseline", "", "regression-gate baseline report (JSON); any drift exits non-zero")
		writeBase  = fs.String("write-baseline", "", "write the canonical (provenance-free) report to this file, for committing as the gate baseline")
		reportOut  = fs.String("report", "", "write a self-contained HTML report of the evaluation to this file")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file at exit")
		remote     = fs.String("remote", "", "have a running lrcsimd daemon at this base URL (e.g. http://127.0.0.1:7077) evaluate the targets instead of simulating locally; -j and -cache are the daemon's concern")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "paperbench: %v\n", err)
		return 1
	}
	// note prints a progress or provenance line unless -q.
	note := func(format string, a ...any) {
		if !*quiet {
			fmt.Fprintf(stderr, format, a...)
		}
	}
	var progress func(runner.Event)
	if !*quiet {
		progress = func(ev runner.Event) { printEvent(stderr, ev) }
	}

	// The targets. "all" is the paper's evaluation — Table 1, the matrix,
	// the §4.3 sweeps and the §4.2 quality check; the extensions and cells
	// are opt-in. They make up the spec, whose validation is theirs.
	named := slices.Clone(fs.Args()) // appended to, and filtered in place, below
	if len(named) == 0 {
		named = []string{"all"}
	}
	if slices.Contains(named, "all") {
		named = append(named, "table1", "sweep", "mp3dquality")
	}
	spec, e, cells, err := exp.Spec{Targets: named, Scale: *scaleFlag, Procs: *procs, Seed: *seed}.Expand()
	if err != nil {
		fmt.Fprintf(stderr, "paperbench: %v\n", err)
		return 2
	}
	stopProfiles, err := perf.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return fail(err)
	}
	defer stopProfiles()
	ctx := context.Background()
	start := time.Now()

	// Obtain the report. Remotely the daemon owns execution: the sweep's
	// cells carry the fingerprints a local run would, so a store warmed
	// locally serves the remote submission and vice versa.
	var rep exp.Report
	if *remote != "" {
		if rep, err = fetchRemote(ctx, &api.Client{Base: *remote}, spec, progress, note); err != nil {
			return fail(err)
		}
	} else {
		// The runner takes the store as an interface: it stays an untyped
		// nil when no cache was requested so the runner's store==nil fast
		// path applies.
		var rstore runner.ResultStore
		if *cacheDir != "" {
			cache, err := store.Open(*cacheDir)
			if err != nil {
				return fail(err)
			}
			defer func() {
				if err := cache.Close(); err != nil {
					fmt.Fprintf(stderr, "paperbench: cache: %v\n", err)
					code = 1
				}
			}()
			if n := cache.Recovered(); n > 0 {
				note("cache: skipped %d corrupt line(s) in %s; affected runs will re-simulate\n", n, *cacheDir)
			}
			rstore = cache
		}
		e.R = runner.New(*workers, rstore)
		e.R.Emit = progress
		// Fan the spec's cells out to the worker pool before any rendering:
		// the report lists them in key order, so the output is
		// deterministic while the simulations were not.
		e.Prefetch(cells)
		rep = e.Report()
	}

	// Everything from the report is the same bytes whichever branch above
	// produced it, in the paper's order (Table 1 first, §4.2 after §4.3's
	// sweeps), the cells last.
	view := rep.View()
	// A rendering that is also an error (a soak with a diverged cell) is
	// printed and fails the run.
	render := func(out string, err error) {
		if out != "" {
			fmt.Fprintln(stdout, out)
		}
		if err != nil {
			code = fail(err)
		}
	}
	for _, t := range exp.Targets {
		if slices.Contains(named, t) || slices.Contains(named, "all") && slices.Contains(exp.MatrixTargets, t) {
			render(exp.Render(t, view))
		}
	}
	if keys := slices.DeleteFunc(named, func(t string) bool { return !strings.Contains(t, "/") }); len(keys) > 0 {
		render(exp.CellTable(view, exp.TargetCells(keys, nil)))
	}

	// One tail: verdict, files, gate.
	if err := rep.Err(); err != nil {
		fmt.Fprintf(stderr, "paperbench: a run failed verification: %v\n", err)
		code = 1
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, rep); err != nil {
			return fail(err)
		}
	}
	if *reportOut != "" {
		if err := perf.WriteFile(*reportOut, func(w io.Writer) error { return exp.WriteHTML(w, rep) }); err != nil {
			return fail(err)
		}
		note("HTML report written to %s\n", *reportOut)
	}
	if *writeBase != "" {
		if err := writeReport(*writeBase, rep.Stable()); err != nil {
			return fail(err)
		}
		note("baseline written to %s (%d runs)\n", *writeBase, len(rep.Runs))
	}
	if *baseline != "" {
		base, err := exp.LoadReport(*baseline)
		if err != nil {
			return fail(err)
		}
		if viols := exp.Gate(base, rep); len(viols) > 0 {
			for _, v := range viols {
				fmt.Fprintf(stderr, "gate: %s\n", v)
			}
			fmt.Fprintf(stderr, "gate: FAILED against %s: %d violation(s)\n", *baseline, len(viols))
			code = 1
		} else {
			note("gate: ok against %s (%d runs)\n", *baseline, len(base.Runs))
		}
	}
	if m := rep.Runner; m != nil { // a local evaluation's
		note("total wall-clock: %.1fs (scale %s, %d procs, %d workers; %d simulated, %d cache hits, %d failed)\n",
			time.Since(start).Seconds(), e.Scale, *procs, m.Workers,
			m.Simulated, m.CacheHits, m.FailedJobs)
	}
	return code
}

// writeReport writes a report as indented JSON.
func writeReport(path string, r exp.Report) error {
	return perf.WriteFile(path, func(w io.Writer) error { return exp.WriteReportJSON(w, r) })
}

// printEvent is the per-job progress line, from the local runner's
// lifecycle events and a remote daemon's SSE stream alike.
func printEvent(w io.Writer, ev runner.Event) {
	switch ev.Kind {
	case runner.EventRunning, runner.EventCached, runner.EventDone, runner.EventFailed:
		line := fmt.Sprintf("%-9s %s/%s/%s", ev.Kind, ev.App, ev.Scale, ev.Proto)
		if ev.Err != "" {
			line += ": " + ev.Err
		}
		fmt.Fprintln(w, line)
	}
}
