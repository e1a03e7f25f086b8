// Command lrccheck model-checks the coherence protocols against the
// litmus corpus: it systematically explores message-delivery
// interleavings (plus delivery-delay choices) of each tiny program,
// compares every observed register outcome against the sequentially
// consistent oracle, and audits protocol invariants at every choice
// point. For data-race-free programs every registered protocol —
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
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"lazyrc"
	"lazyrc/internal/config"
	"lazyrc/internal/mc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lrccheck: ")
	var (
		protoFlag  = flag.String("proto", "all", "protocol to check ("+strings.Join(lazyrc.Protocols(), ", ")+") or 'all'")
		testFlag   = flag.String("test", "all", "litmus test name or 'all' (see -list)")
		list       = flag.Bool("list", false, "list the litmus corpus and exit")
		menuFlag   = flag.String("menu", "", "comma-separated delivery-delay menu in cycles (default '0,3')")
		planFlag   = flag.String("menu-from-plan", "", "derive the delay menu from a fault-injection plan (internal/faults syntax)")
		maxChoices = flag.Int("max-choices", mc.DefaultMaxChoices, "recorded choice points per run (beyond: first alternative)")
		maxRuns    = flag.Int("max-runs", 2000, "schedule budget per (test, protocol) pair")
		maxStates  = flag.Int("max-states", 100000, "expanded-state budget per (test, protocol) pair")
		mutate     = flag.String("mutate", "", "inject a deliberate protocol bug ("+strings.Join(config.Mutations(), ", ")+") — the checker must catch it")
		noAudit    = flag.Bool("no-audit", false, "skip per-choice-point invariant audits (outcome conformance only)")
		outDir     = flag.String("out", "", "write counterexample schedules (JSON, replayable with 'lrcsim -replay') to this directory")
		verbose    = flag.Bool("v", false, "print per-run outcome histograms")
	)
	flag.Parse()

	if *list {
		for _, t := range mc.Tests() {
			fmt.Printf("%-16s procs=%d drf=%-5t %s\n", t.Name, t.Procs, t.DRF, t.Doc)
		}
		return
	}

	menu := []uint64(nil)
	if *planFlag != "" {
		m, err := mc.MenuFromPlan(*planFlag)
		if err != nil {
			log.Fatal(err)
		}
		menu = m
	}
	if *menuFlag != "" {
		if menu != nil {
			log.Fatal("-menu and -menu-from-plan are mutually exclusive")
		}
		for _, f := range strings.Split(*menuFlag, ",") {
			d, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				log.Fatalf("bad -menu entry %q: %v", f, err)
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
			log.Fatal(err)
		}
		tests = []*mc.Test{t}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	violations := 0
	for _, proto := range protos {
		for _, t := range tests {
			ec := mc.ExploreConfig{
				RunConfig: mc.RunConfig{
					Proto:      proto,
					Menu:       menu,
					MaxChoices: *maxChoices,
					Mutation:   *mutate,
					Audit:      !*noAudit,
				},
				MaxRuns:   *maxRuns,
				MaxStates: *maxStates,
			}
			rep, err := mc.Explore(t, ec)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(rep.Summary())
			if *verbose {
				for o, c := range rep.Outcomes {
					fmt.Printf("    outcome %-24q ×%d\n", o, c)
				}
				fmt.Printf("    SC-allowed: %v\n", rep.Allowed)
			}
			for i, cx := range rep.Counterexamples {
				violations++
				fmt.Printf("    counterexample: %v\n", cx.Reasons[0])
				fmt.Printf("      schedule %v outcome %q\n", cx.Schedule, cx.Outcome)
				if *outDir != "" {
					path := filepath.Join(*outDir, fmt.Sprintf("%s-%s-%d.json", t.Name, proto, i))
					if err := mc.NewSchedule(t, ec, cx, rep.Allowed).Save(path); err != nil {
						log.Fatal(err)
					}
					fmt.Printf("      saved %s (replay with: lrcsim -replay %s)\n", path, path)
				}
			}
		}
	}
	if violations > 0 {
		log.Fatalf("%d counterexample(s) found", violations)
	}
	fmt.Println("all explored schedules conform")
}
