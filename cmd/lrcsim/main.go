// Command lrcsim runs one (application, protocol) pair on the simulated
// multiprocessor and prints its statistics: execution time, the
// cpu/read/write/sync cycle breakdown, miss rate and classification, and
// network traffic.
//
// Usage:
//
//	lrcsim -app mp3d -proto lrc -procs 64 -scale small
//
// Every setting is a flag; a word after them is refused. Telemetry and
// span tracing are collected when their files are named (-metrics-out,
// -spans-out).
//
// The run is the cell preset/app/protocol that paperbench and lrcsimd
// name; to compare protocols on one application, name their cells to
// paperbench, which prints them as one table:
//
//	paperbench -scale small default/gauss/lrc default/gauss/tardis
//
// With -replay it instead re-executes a counterexample schedule written
// by lrccheck, verifying the recorded outcome and final machine state
// hash reproduce byte for byte:
//
//	lrcsim -replay counterexample.json
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"lazyrc"
	"lazyrc/internal/apps"
	"lazyrc/internal/causal"
	"lazyrc/internal/check"
	"lazyrc/internal/exp"
	"lazyrc/internal/machine"
	"lazyrc/internal/mc"
	"lazyrc/internal/perf"
	"lazyrc/internal/runner"
	"lazyrc/internal/sim"
	"lazyrc/internal/telemetry"
)

// The flags. Each is listed under exactly one heading of flagGroups, which
// is the layout -h prints.
var (
	appName    = flag.String("app", "gauss", "application: "+strings.Join(lazyrc.AppNames(), ", "))
	proto      = flag.String("proto", "lrc", "protocol: "+strings.Join(lazyrc.Protocols(), ", "))
	procs      = flag.Int("procs", 64, "number of processors")
	scale      = flag.String("scale", "small", "input scale: tiny, small, medium, paper; the per-processor cache co-scales with it (paper §3), as in paperbench and lrcsimd")
	future     = flag.Bool("future", false, "use the §4.3 future-machine parameters (the \"future\" preset)")
	verify     = flag.Bool("verify", true, "verify the computation against a serial reference")
	contention = flag.Bool("contention", false, "print the per-resource contention report")
	traffic    = flag.Bool("traffic", false, "print the per-message-kind traffic breakdown")
	seed       = flag.Uint64("seed", 1, "seed of the fault injector (-faults); the same seed replays the same schedule")
	faultPlan  = flag.String("faults", "", "fault-injection plan for the interconnect, e.g. 'delay=0.05:1:64,dup=0.03:32,reorder=0.02:48' (see internal/faults.ParsePlan)")
	oracle     = flag.Bool("oracle", false, "with -faults: also run the same seed fault-free and require the faulted run to reproduce its end state (completion, and bit-identical final memory for timing-independent apps); exit nonzero on divergence")
	doCheck    = flag.Bool("check", false, fmt.Sprintf("audit protocol invariants every %d cycles and after the run; exit nonzero on any violation", check.Epoch))
	watchdog   = flag.Uint64("watchdog", 0, "liveness watchdog probe interval in cycles (0: disabled); a stall aborts the run with a report; pick an interval far above the longest legitimate wait (e.g. 50000)")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	replayFile = flag.String("replay", "", "replay a model-checker counterexample schedule (JSON from lrccheck) instead of running an application")
	metricsOut = flag.String("metrics-out", "", fmt.Sprintf("collect cycle-domain telemetry, sampled every %d cycles as for a stored cell (so the export hashes to its metrics_digest), and write the JSONL export to this file", runner.MetricsInterval))
	reportFile = flag.String("report", "", "write a self-contained HTML run report to this file (implies telemetry collection)")
	validateM  = flag.String("validate-metrics", "", "validate a telemetry JSONL export against the current schema and exit")
	spansOut   = flag.String("spans-out", "", "trace causal coherence-transaction spans and write them to this file as Perfetto/Chrome trace-event JSON")
	spansMax   = flag.Int("spans-max", 0, "cap on retained spans (0: default limit)")
	critPath   = flag.Int("critical-path", 0, "print the critical-path stall attribution table and the N longest stall episodes (implies span collection)")
	validateS  = flag.String("validate-spans", "", "validate a Perfetto trace JSON export against the trace-event schema and exit")
	perfFlag   = flag.Bool("perf", false, "profile the simulator's wall-clock time by phase and print the breakdown after the report (passive: simulated results are unchanged)")
	progress   = flag.Int("progress", 0, "print a one-line progress heartbeat to stderr every N wall-clock seconds (0: disabled)")
	progTotal  = flag.Uint64("progress-total", 0, "expected total simulated cycles, for the -progress ETA estimate (0: no ETA)")
)

// flagGroups lays out -h: what to run, what to observe about the run,
// what to do to it and check in it, how to profile the simulator itself,
// and the modes that work on a file instead of running an application.
var flagGroups = []struct {
	heading string
	flags   []string
}{
	{"Run", []string{"app", "proto", "procs", "scale", "future", "verify", "seed"}},
	{"Observers", []string{"contention", "traffic", "metrics-out", "report", "spans-out", "spans-max", "critical-path"}},
	{"Faults & checks", []string{"faults", "oracle", "check", "watchdog"}},
	{"Profiling", []string{"perf", "progress", "progress-total", "cpuprofile", "memprofile"}},
	{"File tools", []string{"replay", "validate-metrics", "validate-spans"}},
}

// usage prints the flags group by group, each rendered as
// flag.PrintDefaults would.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "Usage: lrcsim [flags]")
	for _, g := range flagGroups {
		fmt.Fprintf(w, "\n%s:\n", g.heading)
		fs := flag.NewFlagSet(g.heading, flag.ContinueOnError)
		fs.SetOutput(w)
		for _, name := range g.flags {
			f := flag.Lookup(name)
			fs.Var(f.Value, f.Name, f.Usage)
			fs.Lookup(name).DefValue = f.DefValue // not what an earlier argument set it to
		}
		fs.PrintDefaults()
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs what they ask for, and
// returns the exit code. The Go profiles are finished on every path out,
// a failed run's included.
func run(args []string, stdout, stderr io.Writer) int {
	log.SetFlags(0)
	log.SetPrefix("lrcsim: ")
	log.SetOutput(stderr)
	flag.CommandLine.SetOutput(stderr)
	flag.Usage = usage
	flag.CommandLine.Parse(args) // exits 2 on a bad flag, 0 on -h
	if flag.NArg() > 0 {
		log.Printf("unexpected arguments %q: every setting is a flag (the protocol is -proto)", flag.Args())
		return 2
	}
	fail := func(v ...any) int {
		log.Print(v...)
		return 1
	}

	if *validateS != "" {
		data, err := os.ReadFile(*validateS)
		if err != nil {
			return fail(err)
		}
		n, err := causal.ValidateTrace(data)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s: valid trace-event JSON: %d events\n", *validateS, n)
		return 0
	}

	if *validateM != "" {
		f, err := os.Open(*validateM)
		if err != nil {
			return fail(err)
		}
		hdr, err := telemetry.Validate(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s: valid %s export: %d samples every %d cycles, %d series, %d histograms\n",
			*validateM, hdr.Schema, hdr.Samples, hdr.Interval, hdr.Series, hdr.Hists)
		return 0
	}

	if *replayFile != "" {
		if err := replay(stdout, *replayFile); err != nil {
			return fail(err)
		}
		return 0
	}

	stopProfiles, err := perf.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return fail(err)
	}
	defer stopProfiles()

	// The run-selection flags name an evaluation cell, preset/app/proto at
	// (scale, procs, seed), resolved by the evaluator paperbench and
	// lrcsimd use — so the three tools report the same cell identically.
	sc, err := lazyrc.ParseScale(*scale)
	if err != nil {
		return fail(err)
	}
	preset := "default"
	if *future {
		preset = "future"
	}
	e := exp.NewEvaluator(sc, *procs)
	e.Seed = *seed

	job := e.Job(preset, *appName, *proto)
	if *oracle && *faultPlan == "" {
		return fail("-oracle requires -faults")
	}
	app, err := lazyrc.NewApp(job.App, job.Scale)
	if err != nil {
		return fail(err)
	}
	job.Cfg.FaultPlan = *faultPlan

	var auditor *check.Auditor
	m, verr := apps.Run(job.Cfg, job.Proto, app, func(m *machine.Machine) {
		if *doCheck {
			auditor = check.New(m)
			auditor.Start(check.Epoch)
		}
		if *watchdog > 0 {
			m.EnableWatchdog(*watchdog, func(r sim.StallReport) {
				fmt.Fprintln(stderr, r)
				m.Eng.Stop()
			})
		}
		if *metricsOut != "" || *reportFile != "" {
			m.EnableMetrics(runner.MetricsInterval)
		}
		if *spansOut != "" || *critPath > 0 {
			m.EnableSpans(true, *spansMax)
		}
		if *perfFlag {
			m.EnablePerf()
		}
		if *progress > 0 {
			enableProgress(stderr, m, *progress, *progTotal)
		}
	})
	if m == nil {
		return fail(verr)
	}
	if m.Eng.Stopped() {
		return fail("run aborted by the liveness watchdog")
	}
	if *verify && verr != nil {
		return fail("verification failed: ", verr)
	}
	if auditor != nil {
		auditor.Final()
		if cerr := auditor.Err(); cerr != nil {
			for _, v := range auditor.Violations() {
				fmt.Fprintln(stderr, v)
			}
			return fail("invariant check failed: ", cerr)
		}
		fmt.Fprintf(stderr, "check: %d epoch audits + final audit, 0 violations\n", auditor.Epochs())
	}
	if s := m.FaultReport(); s != "" {
		fmt.Fprintln(stderr, s)
	}
	if *oracle {
		verdict, err := runOracle(e, preset, job.App, job.Proto, m)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stderr, verdict)
	}
	if *metricsOut != "" {
		if err := perf.WriteFile(*metricsOut, m.Tel.Export); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "metrics: %d samples (%s) to %s\n", m.Tel.Samples(), telemetry.SchemaVersion, *metricsOut)
	}
	if *reportFile != "" {
		title := fmt.Sprintf("%s · %s · %d procs · %s", app.Name(), *proto, *procs, job.Scale)
		if err := perf.WriteFile(*reportFile, func(w io.Writer) error { return m.Tel.WriteHTML(w, title) }); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "report: %s\n", *reportFile)
	}
	if m.Causal != nil {
		if d := m.Causal.Dropped(); d > 0 {
			fmt.Fprintf(stderr, "warning: span store truncated: %d spans dropped (-spans-max)\n", d)
		}
		if *spansOut != "" {
			err := perf.WriteFile(*spansOut, func(w io.Writer) error {
				return causal.WritePerfetto(w, m.Causal, machine.MsgKindName)
			})
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "spans: %d spans (digest %s) to %s; open in ui.perfetto.dev\n",
				m.Causal.Count(), m.Causal.Digest(), *spansOut)
		}
	}

	printReport(stdout, m, app, job.Scale, *proto, *procs, *contention, *traffic)

	if *perfFlag {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "wall-clock phase profile (host time, not simulated cycles)")
		fmt.Fprint(stdout, m.Perf.Snapshot().Table())
	}

	if *critPath > 0 {
		a := causal.Analyze(m.Causal)
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "critical-path stall attribution (cycles by protocol cause)")
		a.WriteTable(stdout)
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "top %d stall episodes\n", *critPath)
		a.WriteTop(stdout, *critPath)
	}
	return 0
}

// enableProgress prints a one-line heartbeat to stderr whenever at least
// every wall-clock seconds have passed since the last line: current
// simulated cycle, mean simulation speed so far, and — when the caller
// supplied an expected total via -progress-total — a naive ETA. The wall
// clock is polled from a background engine event, so the heartbeat is
// passive: results are bit-identical with and without it.
func enableProgress(stderr io.Writer, m *lazyrc.Machine, every int, total uint64) {
	const pollCycles = 1 << 16 // wall-clock check cadence in simulated cycles
	interval := time.Duration(every) * time.Second
	start := time.Now()
	last := start
	m.Eng.Every(pollCycles, func() {
		now := time.Now()
		if now.Sub(last) < interval {
			return
		}
		last = now
		cyc := m.Eng.Now()
		elapsed := now.Sub(start).Seconds()
		rate := float64(cyc) / elapsed
		line := fmt.Sprintf("progress: cycle %d, %.2f Mcycles/s", cyc, rate/1e6)
		if total > cyc && rate > 0 {
			eta := time.Duration(float64(total-cyc) / rate * float64(time.Second))
			line += fmt.Sprintf(", ETA %s", eta.Round(time.Second))
		}
		fmt.Fprintln(stderr, line)
	})
}

// runOracle evaluates the cell fault-free at the same seed and applies
// the chaos soak's end-state verdict (exp.ChaosVerdict) to the faulted
// machine: it must have completed like the reference, and — for
// workloads whose result is independent of processor interleaving —
// produced a bit-identical final memory image. A divergence means a
// fault leaked through the reliable transport into application state.
// It returns the verdict line, or the divergence as an error.
func runOracle(e *exp.Evaluator, preset, app, proto string, faulted *machine.Machine) (string, error) {
	e.Get(preset, app, proto)
	ref, _ := e.Report().View().Run(preset, app, proto)
	got := exp.ReportRun{MemDigest: faulted.MemDigest(), Verified: faulted.Completed()}
	if !got.Verified {
		got.Error = "incomplete"
	}
	exact := !apps.TimingDependent(app)
	if verdict, ok := exp.ChaosVerdict(ref, got, exact); !ok {
		return "", fmt.Errorf("oracle: %s", verdict)
	}
	if exact {
		return "oracle: end state matches the fault-free run (completion + bit-identical memory)", nil
	}
	return fmt.Sprintf("oracle: end state matches the fault-free run (completion; %s folds timing into its result, memory not compared)", app), nil
}

// replay re-executes a recorded counterexample schedule and reports
// whether it reproduced the recorded run exactly.
func replay(stdout io.Writer, path string) error {
	s, err := mc.LoadSchedule(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replaying %s: test %s, protocol %s, %d choices", path, s.Test, s.Proto, len(s.Choices))
	if s.Mutation != "" {
		fmt.Fprintf(stdout, ", mutation %s", s.Mutation)
	}
	fmt.Fprintln(stdout)
	res, err := mc.Replay(s)
	if err != nil {
		if res != nil {
			fmt.Fprintf(stdout, "outcome %q (recorded %q)\n", res.Outcome, s.Outcome)
		}
		return err
	}
	fmt.Fprintf(stdout, "reproduced: outcome %q, final state hash %#x, %d choice points\n",
		res.Outcome, res.FinalHash, res.Choices)
	for _, r := range s.Reasons {
		fmt.Fprintf(stdout, "recorded violation: %s\n", r)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(stdout, "reproduced violation: %s\n", v)
	}
	if len(s.Allowed) > 0 {
		fmt.Fprintf(stdout, "SC-allowed outcomes: %v\n", s.Allowed)
	}
	return nil
}

func printReport(out io.Writer, m *lazyrc.Machine, app lazyrc.App, sc lazyrc.Scale, proto string, procs int, contention, traffic bool) {
	w := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	defer w.Flush()
	fmt.Fprintf(w, "application\t%s (%s)\n", app.Name(), sc)
	fmt.Fprintf(w, "protocol\t%s\n", proto)
	fmt.Fprintf(w, "processors\t%d\n", procs)
	fmt.Fprintf(w, "cache\t%d KB per processor\n", m.Cfg.CacheSize>>10)
	fmt.Fprintf(w, "execution time\t%d cycles\n", m.Stats.ExecutionTime())
	cpu, rd, wr, sy := m.Stats.Aggregate()
	total := cpu + rd + wr + sy
	fmt.Fprintf(w, "aggregate cycles\t%d\n", total)
	if total > 0 {
		fmt.Fprintf(w, "  cpu\t%d (%.1f%%)\n", cpu, 100*float64(cpu)/float64(total))
		fmt.Fprintf(w, "  read stall\t%d (%.1f%%)\n", rd, 100*float64(rd)/float64(total))
		fmt.Fprintf(w, "  write stall\t%d (%.1f%%)\n", wr, 100*float64(wr)/float64(total))
		fmt.Fprintf(w, "  sync stall\t%d (%.1f%%)\n", sy, 100*float64(sy)/float64(total))
		// Utilization and imbalance are derived from per-processor
		// accounted cycles and finish times. On a run that accounted no
		// cycles (an aborted run, a replay) both derivations are
		// zero-valued noise, so the lines are suppressed rather than
		// printed as 0.0%.
		var minU, maxU, sumU float64
		for i := range m.Stats.Procs {
			u := m.Stats.Procs[i].Utilization()
			if i == 0 || u < minU {
				minU = u
			}
			if u > maxU {
				maxU = u
			}
			sumU += u
		}
		fmt.Fprintf(w, "cpu utilization\t%.1f%% mean (%.1f%% min, %.1f%% max)\n",
			100*sumU/float64(len(m.Stats.Procs)), 100*minU, 100*maxU)
	}
	if imb := m.Stats.Imbalance(); imb > 0 {
		fmt.Fprintf(w, "load imbalance\t%.3f (max/mean finish time)\n", imb)
	}
	fmt.Fprintf(w, "miss rate\t%.3f%%\n", 100*m.Stats.MissRate())
	shares := m.Stats.MissShares()
	fmt.Fprintf(w, "  cold/true/false/evict/write\t%.1f%% / %.1f%% / %.1f%% / %.1f%% / %.1f%%\n",
		100*shares[lazyrc.Cold], 100*shares[lazyrc.TrueShare], 100*shares[lazyrc.FalseShare],
		100*shares[lazyrc.Eviction], 100*shares[lazyrc.WriteMiss])
	msgs, bytes := m.Net.Stats()
	fmt.Fprintf(w, "network\t%d messages, %d payload bytes\n", msgs, bytes)
	fmt.Fprintf(w, "shared footprint\t%d bytes\n", m.Footprint())
	if contention {
		w.Flush()
		fmt.Fprintln(out)
		fmt.Fprint(out, m.ContentionReport())
	}
	if traffic {
		w.Flush()
		fmt.Fprintln(out)
		fmt.Fprint(out, m.TrafficReport())
	}
}
