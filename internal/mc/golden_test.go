package mc

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"lazyrc/internal/config"
)

// withBug is lrccheck's default budget for proto with a bug injected.
func withBug(proto, mutation string) ExploreConfig {
	ec := DefaultExplore(proto)
	ec.Mutation = mutation
	return ec
}

// runsToCatch returns the first schedule of ec's depth-first search that
// violates, or 0 when the budget never catches one. A search with budget
// n is the first n schedules of a search with a larger one, so doubling
// until caught and bisecting the last step finds it.
func runsToCatch(t *testing.T, tc *Test, ec ExploreConfig) int {
	violates := func(budget int) bool {
		e := ec
		e.MaxRuns, e.MinimizeBudget = budget, 1
		rep, err := Explore(tc, e)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Violating()
	}
	if !violates(ec.MaxRuns) {
		return 0
	}
	lo, hi := 0, 1
	for hi < ec.MaxRuns && !violates(hi) {
		lo, hi = hi, min(2*hi, ec.MaxRuns)
	}
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; violates(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestExplorationGolden pins the size of the search itself — schedules
// run, states expanded, and choice points along the default schedule,
// per litmus test and protocol at lrccheck's default budgets, where no
// pair is truncated — plus how many schedules each injected bug survives. The state hash prunes the search,
// so these counts move whenever the protocol-visible state encoding (or
// the event structure of a handler) changes; a refactor must leave them
// alone, and a deliberate change regenerates testdata/exploration.golden
// from the text this test prints on mismatch.
func TestExplorationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration corpus skipped in -short")
	}
	var b strings.Builder
	reps := corpusAtDefaults(t)
	for i, p := range corpusPairs() {
		if p.ec.Mutation != "" {
			break
		}
		first, err := RunOnce(p.tc, p.ec.RunConfig, nil)
		if err != nil {
			t.Fatalf("%s/%s: %v", p.ec.Proto, p.tc.Name, err)
		}
		fmt.Fprintf(&b, "%s %s runs=%d states=%d choices=%d\n", p.tc.Name, p.ec.Proto, reps[i].Runs, reps[i].States, first.Choices)
	}
	// Each injected bug runs on the first protocol it breaks.
	mutated := map[string]string{"skip-acquire-inval": "lrc", "skip-lease-renewal": "tardis"}
	for _, mut := range config.Mutations() {
		proto, ok := mutated[mut]
		if !ok {
			t.Fatalf("mutation %s has no protocol to run on", mut)
		}
		for _, tc := range Tests() {
			fmt.Fprintf(&b, "%s %s %s caught-at=%d\n", mut, tc.Name, proto,
				runsToCatch(t, tc, withBug(proto, mut)))
		}
	}
	want, err := os.ReadFile("testdata/exploration.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("exploration counts moved; got:\n%s", got)
	}
}
