// Command lrccheck model-checks the coherence protocols against the
// litmus corpus: it systematically explores message-delivery
// interleavings (plus delivery-delay choices) of each tiny program,
// compares every observed register outcome against the sequentially
// consistent oracle, and audits protocol invariants at every choice
// point. For data-race-free programs every protocol —
// invalidation-based and timestamp-based alike — must produce only
// SC-allowed outcomes; the SC protocol must for racy ones too.
//
// Usage:
//
//	lrccheck                          # full corpus, all protocols
//	lrccheck -proto lrc -test mp-stale -mutate skip-acquire-inval -out /tmp/cx
//
// Violations exit nonzero and, with -out, write one replayable schedule
// per counterexample for `lrcsim -replay`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"lazyrc"
	"lazyrc/internal/config"
	"lazyrc/internal/mc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status: 0 when every
// explored schedule conforms, 1 when a counterexample was found or could
// not be saved, 2 for a usage error — a bad flag, test, protocol or menu.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lrccheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		protoFlag  = fs.String("proto", "all", "protocol to check ("+strings.Join(lazyrc.Protocols(), ", ")+") or 'all'")
		testFlag   = fs.String("test", "all", "litmus test name or 'all' (see -list)")
		list       = fs.Bool("list", false, "list the litmus corpus and exit")
		menuFlag   = fs.String("menu", "", "comma-separated delivery-delay menu in cycles (default '0,3')")
		maxChoices = fs.Int("max-choices", mc.DefaultMaxChoices, "recorded choice points per run (beyond: first alternative)")
		maxRuns    = fs.Int("max-runs", 2000, "schedule budget per (test, protocol) pair")
		maxStates  = fs.Int("max-states", 100000, "expanded-state budget per (test, protocol) pair")
		mutate     = fs.String("mutate", "", "inject a deliberate protocol bug ("+strings.Join(config.Mutations(), ", ")+") — the checker must catch it")
		outDir     = fs.String("out", "", "write counterexample schedules (JSON, replayable with 'lrcsim -replay') to this directory")
		verbose    = fs.Bool("v", false, "print per-run outcome histograms")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "lrccheck: "+format+"\n", a...)
		return code
	}

	if *list {
		for _, t := range mc.Tests() {
			fmt.Fprintf(stdout, "%-16s procs=%d drf=%-5t %s\n", t.Name, t.Procs, t.DRF, t.Doc)
		}
		return 0
	}

	var menu []uint64
	if *menuFlag != "" {
		for _, f := range strings.Split(*menuFlag, ",") {
			d, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				return fail(2, "bad -menu entry %q: %v", f, err)
			}
			menu = append(menu, d)
		}
	}

	protos := lazyrc.Protocols()
	if *protoFlag != "all" {
		protos = strings.Split(*protoFlag, ",")
	}
	tests := mc.Tests()
	if *testFlag != "all" {
		t, err := mc.FindTest(*testFlag)
		if err != nil {
			return fail(2, "%v", err)
		}
		tests = []*mc.Test{t}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fail(1, "%v", err)
		}
	}

	violations, covered, allowed := 0, 0, 0
	for _, proto := range protos {
		for _, t := range tests {
			ec := mc.ExploreConfig{
				RunConfig: mc.RunConfig{
					Proto:      proto,
					Menu:       menu,
					MaxChoices: *maxChoices,
					Mutation:   *mutate,
				},
				MaxRuns:   *maxRuns,
				MaxStates: *maxStates,
			}
			// Explore fails only when the checker cannot run at all: an
			// unknown protocol or mutation, or a menu the mesh refuses.
			rep, err := mc.Explore(t, ec)
			if err != nil {
				return fail(2, "%v", err)
			}
			fmt.Fprintln(stdout, rep.Summary())
			covered, allowed = covered+rep.Covered, allowed+len(rep.Allowed)
			if *verbose {
				outcomes := make([]string, 0, len(rep.Outcomes))
				for o := range rep.Outcomes {
					outcomes = append(outcomes, o)
				}
				sort.Strings(outcomes)
				for _, o := range outcomes {
					fmt.Fprintf(stdout, "    outcome %-24q ×%d\n", o, rep.Outcomes[o])
				}
				fmt.Fprintf(stdout, "    SC-allowed: %v\n", rep.Allowed)
			}
			for i, cx := range rep.Counterexamples {
				violations++
				fmt.Fprintf(stdout, "    counterexample: %v\n", cx.Reasons[0])
				fmt.Fprintf(stdout, "      schedule %v outcome %q\n", cx.Schedule, cx.Outcome)
				if *outDir != "" {
					path := filepath.Join(*outDir, fmt.Sprintf("%s-%s-%d.json", t.Name, proto, i))
					if err := mc.NewSchedule(t, ec, cx, rep.Allowed).Save(path); err != nil {
						return fail(1, "%v", err)
					}
					fmt.Fprintf(stdout, "      saved %s (replay with: lrcsim -replay %s)\n", path, path)
				}
			}
		}
	}
	fmt.Fprintf(stdout, "SC-allowed outcomes observed: %d/%d\n", covered, allowed)
	if violations > 0 {
		return fail(1, "%d counterexample(s) found", violations)
	}
	fmt.Fprintln(stdout, "all explored schedules conform")
	return 0
}
