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

// TestExploreLeavesNoGoroutine: Explore's helpers have exited, and every
// worker's machine is closed, by the time it returns — after a full
// search, after a truncated one, after an error and after one that
// minimizes a counterexample; and RunOnce closes the machine it builds. Goroutines are told apart by their
// stacks, not by runtime.NumGoroutine, which also counts whatever the
// previous test left winding down; a helper that has marked itself done
// may not have returned yet, but it no longer waits for a job or runs one.
// A processor coroutine a rewound machine keeps idles in sim's
// Context.body; it is counted before and after, so a worker another test
// left open does not count.
func TestExploreLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	count := func() (helpers, coroutines int) {
		buf := make([]byte, 1<<20)
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "mc.(*frontier).help(") &&
				(strings.Contains(g, "sync.(*Cond).Wait(") || strings.Contains(g, "mc.(*worker).run(")) {
				helpers++
			}
			if strings.Contains(g, "sim.(*Context).body(") {
				coroutines++
			}
		}
		return helpers, coroutines
	}
	tc, err := FindTest("mp-stale") // the lrc bug is caught on it
	if err != nil {
		t.Fatal(err)
	}
	truncated := DefaultExplore("lrc")
	truncated.MaxRuns = 3
	for _, c := range []struct {
		name string
		ec   ExploreConfig
	}{
		{"complete", DefaultExplore("lrc")},
		{"truncated", truncated},
		{"error", DefaultExplore("no-such-protocol")},
		{"violating", withBug("lrc", "skip-acquire-inval")},
		{"RunOnce", DefaultExplore("lrc")},
	} {
		_, before := count()
		var err error
		if c.name == "RunOnce" {
			_, err = RunOnce(tc, c.ec.RunConfig, nil)
		} else {
			var rep *Report
			rep, err = Explore(tc, c.ec)
			if (err != nil) != (c.name == "error") || (err == nil && (rep.Truncated != (c.name == "truncated") || rep.Violating() != (c.name == "violating"))) {
				t.Fatalf("%s: report %+v, error %v", c.name, rep, err)
			}
		}
		if err != nil && c.name != "error" {
			t.Fatalf("%s: %v", c.name, err)
		}
		if helpers, after := count(); helpers != 0 || after != before {
			t.Errorf("%s: %d helpers still running and %d processor coroutines kept, %d before", c.name, helpers, after, before)
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
		defer w.m.Close()
		for i := len(prefixes) - 1; i >= 0; i-- {
			want, err := RunOnce(p.tc, rc, prefixes[i])
			if err != nil {
				t.Fatal(err)
			}
			if got := w.run(prefixes[i], nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s %s, prefix %v: recycled run %+v, fresh %+v",
					rc.Proto, p.tc.Name, rc.Mutation, prefixes[i], got, want)
			}
		}
	}
}

// TestConcurrentExplores: Explore calls that run at once share the job,
// record and state-set pools, so what one search hands back another
// reuses — a record sized for 16 recorded choices included, and the
// records a minimization runs through. Each report must equal the one
// its pair makes explored alone. CI runs it under the race detector.
func TestConcurrentExplores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	iriw, err := FindTest("iriw-lock")
	if err != nil {
		t.Fatal(err)
	}
	stale, err := FindTest("mp-stale")
	if err != nil {
		t.Fatal(err)
	}
	short := DefaultExplore("sc")
	short.MaxChoices = 16
	pairs := []pair{{iriw, DefaultExplore("lrc")}, {stale, withBug("lrc", "skip-acquire-inval")}, {iriw, short}}
	alone := make([]*Report, len(pairs))
	for i, p := range pairs {
		if alone[i], err = Explore(p.tc, p.ec); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		together := make([]*Report, len(pairs))
		errs := make([]error, len(pairs))
		var wg sync.WaitGroup
		for i, p := range pairs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				together[i], errs[i] = Explore(p.tc, p.ec)
			}()
		}
		wg.Wait()
		for i, p := range pairs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !reflect.DeepEqual(together[i], alone[i]) {
				t.Errorf("round %d, %s/%s %s: explored beside others %+v, alone %+v",
					round, p.ec.Proto, p.tc.Name, p.ec.Mutation, together[i], alone[i])
			}
		}
	}
}

// TestDigestsMatchAFreshFold: the state hash folds a node afresh only if
// an event ran on it since its last fold, and keeps its digest otherwise.
// At every choice point of every corpus pair's search, both mutations'
// included, the hash with the kept digests must equal the hash of every
// node folded afresh: a write barrier missing on some path shows
// up as a node that changed under a digest kept. The helpers hash at once,
// each its own machine, so CI runs it under the race detector.
func TestDigestsMatchAFreshFold(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration corpus skipped in -short")
	}
	checked := checkDigests(t)
	exploreCorpus(t, 4, 0)
	if checked.Load() == 0 {
		t.Fatal("no choice point was checked")
	}
	t.Logf("%d choice points checked", checked.Load())
}
