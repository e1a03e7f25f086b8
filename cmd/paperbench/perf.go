// The paperbench performance pass: a serial sweep of the (application,
// protocol) matrix that measures host wall-clock throughput per cell,
// maintains the committed PERF_trend.json history, and gates fresh
// measurements against the latest committed entry.
//
// The pass deliberately bypasses the result cache and the worker pool:
// a cache hit carries no wall-clock profile, and concurrent simulations
// contend for cores, so every cell is executed fresh and alone. Nothing
// here touches simulated results — the pass is throughput provenance
// only, which is why the trend file is gated with a generous tolerance
// rather than the -tol 0 used for cycle counts.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"lazyrc/internal/apps"
	"lazyrc/internal/exp"
	"lazyrc/internal/perf"
	"lazyrc/internal/runner"
)

// perfOpts carries the -perf-* flag values.
type perfOpts struct {
	trendPath string  // -perf-trend: committed trend file
	write     bool    // -perf-write: append this pass as a new trend entry
	gate      bool    // -perf-gate: fail on regressions vs the latest entry
	tolPct    float64 // -perf-tol: gate tolerance in percent
	report    string  // -perf-report: HTML report path
	reps      int     // -perf-reps: executions per cell (best-of)
	protos    []string
	quiet     bool
}

func (o perfOpts) active() bool { return o.write || o.gate || o.report != "" }

// runPerfPass measures every (app, protocol) cell serially and applies
// the requested trend-file actions. Returns the process exit code
// contribution (0 or 1).
func runPerfPass(e *exp.Evaluator, scale apps.Scale, procs int, o perfOpts) int {
	trend, err := perf.LoadTrend(o.trendPath, scale.String(), procs)
	if err != nil {
		log.Fatal(err)
	}

	var cells []perf.TrendCell
	var htmlCells []perf.CellPerf
	passStart := time.Now()
	reps := o.reps
	if reps < 1 {
		reps = 1
	}
	for _, app := range exp.AppOrder {
		for _, proto := range o.protos {
			job := e.Job("default", app, proto)
			// Best-of-N: tiny cells finish in milliseconds, where a single
			// scheduler hiccup or GC pause swamps the signal. The fastest
			// of N back-to-back runs is the least-disturbed measurement.
			var snap perf.Snapshot
			for r := 0; r < reps; r++ {
				res := runner.Exec(job)
				if res.Failed() {
					log.Fatalf("perf pass: %s/%s failed: %s", app, proto, res.Failure)
				}
				if res.Perf == nil {
					log.Fatalf("perf pass: %s/%s returned no profile", app, proto)
				}
				if r == 0 || res.Perf.CyclesPerSec > snap.CyclesPerSec {
					snap = *res.Perf
				}
			}
			cells = append(cells, perf.TrendCell{
				App: app, Proto: proto,
				Cycles: snap.Cycles, Events: snap.Events,
				WallNS:       snap.WallNS,
				CyclesPerSec: snap.CyclesPerSec,
				EventsPerSec: snap.EventsPerSec,
				AllocBytes:   snap.AllocBytes,
			})
			htmlCells = append(htmlCells, perf.CellPerf{App: app, Proto: proto, Snap: snap})
			if !o.quiet {
				fmt.Fprintf(os.Stderr, "perf: %-11s %-8s %8.2f Mcycles/s (%.0f ms)\n",
					app, proto, snap.CyclesPerSec/1e6, float64(snap.WallNS)/1e6)
			}
		}
	}
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "perf: %d cells in %.1fs\n", len(cells), time.Since(passStart).Seconds())
	}

	code := 0
	if o.gate {
		base, ok := trend.Latest()
		if !ok {
			fmt.Fprintf(os.Stderr, "perf gate: FAILED: no baseline entry in %s (run -perf-write first)\n", o.trendPath)
			code = 1
		} else if viols := perf.GateTrend(base, cells, o.tolPct); len(viols) > 0 {
			for _, v := range viols {
				fmt.Fprintf(os.Stderr, "perf gate: %s\n", v)
			}
			fmt.Fprintf(os.Stderr, "perf gate: FAILED against %s (entry %s): %d regression(s) beyond %.1f%%\n",
				o.trendPath, base.When, len(viols), o.tolPct)
			code = 1
		} else if !o.quiet {
			fmt.Fprintf(os.Stderr, "perf gate: ok against %s (entry %s, %d cells, tolerance %.1f%%)\n",
				o.trendPath, base.When, len(base.Cells), o.tolPct)
		}
	}
	if o.write {
		trend.Entries = append(trend.Entries,
			perf.NewEntry(time.Now().UTC().Format(time.RFC3339), cells))
		if err := perf.SaveTrend(o.trendPath, trend); err != nil {
			log.Fatal(err)
		}
		if !o.quiet {
			fmt.Fprintf(os.Stderr, "perf: trend entry %d (%d cells) written to %s\n",
				len(trend.Entries), len(cells), o.trendPath)
		}
	}
	if o.report != "" {
		subtitle := fmt.Sprintf("scale %s · %d procs · %s", scale, procs, perf.HostString())
		err := perf.WriteFile(o.report, func(w io.Writer) error {
			return perf.WriteHTML(w, subtitle, htmlCells, trend)
		})
		if err != nil {
			log.Fatal(err)
		}
		if !o.quiet {
			fmt.Fprintf(os.Stderr, "perf: HTML report written to %s\n", o.report)
		}
	}
	return code
}
