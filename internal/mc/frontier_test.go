package mc

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// A pair is one exploration the corpus tests run: every (test, protocol)
// pair at lrccheck's default budgets, then each injected bug on every
// test.
type pair struct {
	tc *Test
	ec ExploreConfig
}

func corpusPairs() []pair {
	var pairs []pair
	for _, proto := range allProtos {
		for _, tc := range Tests() {
			pairs = append(pairs, pair{tc, DefaultExplore(proto)})
		}
	}
	for _, bug := range [][2]string{{"skip-acquire-inval", "lrc"}, {"skip-lease-renewal", "tardis"}} {
		for _, tc := range Tests() {
			pairs = append(pairs, pair{tc, withBug(bug[1], bug[0])})
		}
	}
	return pairs
}

// exploreCorpus explores every corpus pair on procs cores, with MaxRuns
// overridden when maxRuns > 0. The pairs are independent, so up to procs
// of them are explored at once, which keeps every core busy.
func exploreCorpus(t *testing.T, procs, maxRuns int) []*Report {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	pairs := corpusPairs()
	reps := make([]*Report, len(pairs))
	slots := make(chan struct{}, procs)
	var wg sync.WaitGroup
	for i, p := range pairs {
		ec := p.ec
		if maxRuns > 0 {
			ec.MaxRuns = maxRuns
		}
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			rep, err := Explore(p.tc, ec)
			if err != nil {
				t.Errorf("%s/%s: %v", ec.Proto, p.tc.Name, err)
			}
			reps[i] = rep
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return reps
}

// atDefaults is exploreCorpus at the default budgets on four cores, run
// once per test binary: the golden, the conformance corpus and the
// core-count check all read these reports.
var atDefaults []*Report

func corpusAtDefaults(t *testing.T) []*Report {
	t.Helper()
	if atDefaults == nil {
		atDefaults = exploreCorpus(t, 4, 0)
	}
	return atDefaults
}

// TestExploreIgnoresCoreCount: runs execute on whichever goroutine gets
// to them first, but the search commits them in its own order, so every
// field of a report — outcome histogram, minimized counterexamples with
// their final hashes and reasons, truncation — is the same on one core
// as on more cores than the machine has, at lrccheck's default budgets
// and at a budget that truncates most pairs.
//
// Under the race detector the one-core search at the default budgets is
// left to the plain test run: with no helpers it has nothing for the
// detector to check, and it would double the package's run time. The
// four-core searches run (the golden and the corpus read them), and so
// does the comparison at the truncating budget, where runs nobody commits
// are dropped.
func TestExploreIgnoresCoreCount(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration corpus skipped in -short")
	}
	pairs := corpusPairs()
	budgets := []int{0, 37}
	if raceEnabled {
		budgets = budgets[1:]
	}
	for _, maxRuns := range budgets {
		one, four := exploreCorpus(t, 1, maxRuns), corpusAtDefaults(t)
		if maxRuns > 0 {
			four = exploreCorpus(t, 4, maxRuns)
		}
		for i, p := range pairs {
			if !reflect.DeepEqual(one[i], four[i]) {
				t.Errorf("%s/%s %s, MaxRuns %d: one core reports %+v, four %+v",
					p.ec.Proto, p.tc.Name, p.ec.Mutation, maxRuns, one[i], four[i])
			}
		}
	}
}

// TestExploreLeavesNoGoroutine: Explore's helpers have exited by the time
// it returns — after a full search, after a truncated one, and after an
// error. Helpers are told apart by their stacks, not by
// runtime.NumGoroutine, which also counts whatever the previous test left
// winding down; one that has marked itself done may not have returned
// yet, but it no longer waits for a job or runs one.
func TestExploreLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	helpers := func() int {
		buf := make([]byte, 1<<20)
		n := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "mc.(*frontier).help(") &&
				(strings.Contains(g, "sync.(*Cond).Wait(") || strings.Contains(g, "mc.(*worker).run(")) {
				n++
			}
		}
		return n
	}
	tc := Tests()[0]
	truncated := DefaultExplore("lrc")
	truncated.MaxRuns = 3
	cases := map[string]ExploreConfig{
		"complete":  DefaultExplore("lrc"),
		"truncated": truncated,
		"error":     DefaultExplore("no-such-protocol"),
	}
	for name, ec := range cases {
		rep, err := Explore(tc, ec)
		if (err != nil) != (name == "error") || (err == nil && rep.Truncated != (name == "truncated")) {
			t.Fatalf("%s: report %+v, error %v", name, rep, err)
		}
		if n := helpers(); n != 0 {
			t.Errorf("%s: %d helpers still running after Explore returned", name, n)
		}
	}
}

// TestRecycledRunIsFresh: a worker's rewound machine is a new one, bit
// for bit. For every corpus pair, the root schedule and every one-choice
// deviation from it run in reverse order on one worker, and each result
// must equal RunOnce's on a machine built for it alone — a field the
// rewind forgets shows up as a moved outcome, choice, hash or violation.
func TestRecycledRunIsFresh(t *testing.T) {
	for _, p := range corpusPairs() {
		rc := p.ec.RunConfig
		root, err := RunOnce(p.tc, rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		prefixes := [][]int{{}}
		for i, arity := range root.Arity {
			for alt := 1; alt < arity; alt++ {
				prefixes = append(prefixes, append(append([]int(nil), root.Taken[:i]...), alt))
			}
		}
		w, err := newWorker(p.tc, rc)
		if err != nil {
			t.Fatal(err)
		}
		for i := len(prefixes) - 1; i >= 0; i-- {
			want, err := RunOnce(p.tc, rc, prefixes[i])
			if err != nil {
				t.Fatal(err)
			}
			if got := w.run(prefixes[i]); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s %s, prefix %v: recycled run %+v, fresh %+v",
					rc.Proto, p.tc.Name, rc.Mutation, prefixes[i], got, want)
			}
		}
	}
}
