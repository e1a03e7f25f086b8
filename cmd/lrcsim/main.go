// Command lrcsim runs one (application, protocol) pair on the simulated
// multiprocessor and prints its statistics: execution time, the
// cpu/read/write/sync cycle breakdown, miss rate and classification, and
// network traffic.
//
// Usage:
//
//	lrcsim -app mp3d -proto lrc -procs 64 -scale small
//
// Every setting is a flag; a word after them is refused. The run's
// telemetry and span digests are printed on stderr; -spans-out writes
// the spans with the telemetry series as counter tracks, so spans and
// series share one cycle axis.
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

	"lazyrc/internal/apps"
	"lazyrc/internal/causal"
	"lazyrc/internal/exp"
	"lazyrc/internal/machine"
	"lazyrc/internal/mc"
	"lazyrc/internal/perf"
	"lazyrc/internal/protocol"
	"lazyrc/internal/runner"
	"lazyrc/internal/stats"
)

// The flags. Each is listed under exactly one heading of flagGroups, which
// is the layout -h prints.
var (
	appName    = flag.String("app", "gauss", "application: "+strings.Join(apps.Names(), ", "))
	proto      = flag.String("proto", "lrc", "protocol: "+strings.Join(protocol.Names(), ", "))
	procs      = flag.Int("procs", 64, "number of processors")
	scale      = flag.String("scale", "small", "input scale: tiny, small, medium, paper; the per-processor cache co-scales with it (paper §3), as in paperbench and lrcsimd")
	future     = flag.Bool("future", false, "use the §4.3 future-machine parameters (the \"future\" preset)")
	contention = flag.Bool("contention", false, "print the per-resource contention report")
	traffic    = flag.Bool("traffic", false, "print the per-message-kind traffic breakdown with its latency quantiles, and the write and coalescing buffers' residency")
	seed       = flag.Uint64("seed", 1, "seed of the fault injector (-faults); the same seed replays the same schedule")
	faultPlan  = flag.String("faults", "", "fault-injection plan for the interconnect, e.g. 'delay=0.05:1:64,dup=0.03:32,reorder=0.02:48' (see internal/faults.ParsePlan); the run is guarded and judged as the chaos soak's cells are")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	replayFile = flag.String("replay", "", "replay a model-checker counterexample schedule (JSON from lrccheck) instead of running an application")
	spansOut   = flag.String("spans-out", "", fmt.Sprintf("trace causal coherence-transaction spans and write them, with the telemetry series (sampled every %d cycles) as counter tracks, to this file as Perfetto/Chrome trace-event JSON", runner.MetricsInterval))
	critPath   = flag.Int("critical-path", 0, "print the critical-path stall attribution table and the N longest stall episodes (implies span retention)")
	validateS  = flag.String("validate-spans", "", "validate a Perfetto trace JSON export against the trace-event schema and exit")
	perfFlag   = flag.Bool("perf", false, "print the simulator's wall-clock time by phase after the report (passive: simulated results are unchanged)")
)

// flagGroups lays out -h: what to run, what to observe about the run,
// what to do to it, how to profile the simulator itself, and the modes
// that work on a file instead of running an application.
var flagGroups = []struct {
	heading string
	flags   []string
}{
	{"Run", []string{"app", "proto", "procs", "scale", "future", "seed"}},
	{"Observers", []string{"contention", "traffic", "spans-out", "critical-path"}},
	{"Faults", []string{"faults"}},
	{"Profiling", []string{"perf", "cpuprofile", "memprofile"}},
	{"File tools", []string{"replay", "validate-spans"}},
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
	// lrcsimd use, and the runner executes it as it does theirs — so the
	// three tools report the same cell identically.
	sc, err := apps.ParseScale(*scale)
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
	job.Cfg.FaultPlan = *faultPlan

	m, res := runner.ExecTraced(job, *spansOut != "" || *critPath > 0)
	if err := res.Err(); err != nil {
		return fail(err)
	}
	if s := m.FaultReport(); s != "" {
		fmt.Fprintln(stderr, s)
	}
	if *faultPlan != "" {
		verdict, err := oracle(e, preset, res)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stderr, verdict)
	}
	fmt.Fprintf(stderr, "metrics: %d samples (digest %s)\n", m.Tel.Samples(), res.MetricsDigest)
	if d := m.Causal.Dropped(); d > 0 {
		fmt.Fprintf(stderr, "warning: span store truncated: %d spans dropped\n", d)
	}
	if *spansOut != "" {
		if err := perf.WriteFile(*spansOut, m.WritePerfetto); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "spans: %d spans (digest %s) to %s; open in ui.perfetto.dev\n",
			m.Causal.Count(), m.Causal.Digest(), *spansOut)
	}

	printReport(stdout, m, res, *contention, *traffic)

	if *perfFlag {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "wall-clock phase profile (host time, not simulated cycles)")
		fmt.Fprint(stdout, res.Perf.Table())
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

// oracle evaluates the cell fault-free at the same seed and applies the
// chaos soak's end-state verdict (exp.ChaosVerdict) to the faulted run,
// which already completed and verified: for workloads whose result is
// independent of processor interleaving it must have produced a
// bit-identical final memory image. A divergence means a fault leaked
// through the reliable transport into application state. It returns the
// verdict line, or the divergence as an error.
func oracle(e *exp.Evaluator, preset string, faulted *runner.Result) (string, error) {
	e.Get(preset, faulted.App, faulted.Proto)
	ref, _ := e.Report().View().Run(preset, faulted.App, faulted.Proto)
	got := exp.ReportRun{MemDigest: faulted.MemDigest, Verified: true}
	exact := !apps.TimingDependent(faulted.App)
	if verdict, ok := exp.ChaosVerdict(ref, got, exact); !ok {
		return "", fmt.Errorf("oracle: %s", verdict)
	}
	if exact {
		return "oracle: end state matches the fault-free run (completion + bit-identical memory)", nil
	}
	return fmt.Sprintf("oracle: end state matches the fault-free run (completion; %s folds timing into its result, memory not compared)", faulted.App), nil
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

// printReport prints the run's statistics block from the finished machine
// and the cell its result names.
func printReport(out io.Writer, m *machine.Machine, res *runner.Result, contention, traffic bool) {
	w := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	defer w.Flush()
	fmt.Fprintf(w, "application\t%s (%s)\n", res.App, res.Scale)
	fmt.Fprintf(w, "protocol\t%s\n", res.Proto)
	fmt.Fprintf(w, "processors\t%d\n", m.Cfg.Procs)
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
		100*shares[stats.Cold], 100*shares[stats.TrueShare], 100*shares[stats.FalseShare],
		100*shares[stats.Eviction], 100*shares[stats.WriteMiss])
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
