package mc

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lazyrc/internal/machine"
)

// checkVerdicts explores ec's search as Explore commits it — the same
// frontier, workers and pruning by expanded state — and replays every
// committed run's schedule on a worker that audits every state, as replay
// does: the violations must be the same. It returns the number of runs
// committed and of those that violate.
func checkVerdicts(t *testing.T, tc *Test, ec ExploreConfig) (runs, dirty int) {
	t.Helper()
	full, err := newWorker(tc, ec.RunConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer full.close()
	var replay *RunResult
	f := newFrontier(tc, ec.RunConfig)
	defer f.close()
	expanded := map[uint64]bool{}
	var siblings [][2]int
	for ; len(f.jobs) > 0 && runs < ec.MaxRuns; runs++ {
		n, res, err := f.pop()
		if err != nil {
			t.Fatal(err)
		}
		replay = full.run(res.Taken, replay)
		got, want := strings.Join(res.Violations, "\n"), strings.Join(replay.Violations, "\n")
		if got != want {
			t.Fatalf("%s/%s %s: run %d %v found %q, a replay auditing every state %q",
				ec.Proto, tc.Name, ec.Mutation, runs, res.Taken, got, want)
		}
		dirty += min(len(want), 1)
		siblings = siblings[:0]
		for i := n; i < len(res.Arity); i++ {
			if h := res.Hashes[i]; !expanded[h] {
				expanded[h] = true
				for alt := 1; alt < res.Arity[i]; alt++ {
					siblings = append(siblings, [2]int{i, alt})
				}
			}
		}
		f.push(res, siblings)
	}
	return runs, dirty
}

// strayBlock is a block no litmus program touches. Its directory entry at
// node 0 with a sharer, though the block is uncached, is broken structure
// no protocol handler meets and every audit reports.
const strayBlock = 1 << 40

// corruptQuiescentEntry, as testHookChoice, mends the entry of strayBlock
// it broke at the last choice point, then breaks it again at every choice
// point whose state hashes to a multiple of 8: a dirty state that a run
// reaches whenever it reaches the clean one, and that leaves the run's
// course unchanged.
func corruptQuiescentEntry(m *machine.Machine) {
	home := m.Nodes[0]
	if e := home.Dir.Peek(strayBlock); e != nil && e.Sharers.Has(1) {
		e.Sharers.Remove(1)
		m.Env.ForgetDigests()
	}
	if m.StateHash()%8 == 0 {
		home.Dir.Entry(strayBlock).Sharers.Add(1)
		m.Env.ForgetDigests()
	}
}

// TestAuditOnceMatchesFullAudit: an explored run skips the epoch audit of
// a state its worker has audited clean, and of each state of its prefix
// when the run that recorded the prefix had no violation. Neither skip
// may move a verdict: every committed run's violations equal those of a
// replay of its schedule that audits every state, for every corpus pair
// (both mutations' included), and again with a quiescent directory entry
// corrupted after one choice point in eight until the next, where an
// engine choice point's audit must report it in both searches. The test
// fails if a worker remembers a dirty state as clean, or if a prefix
// skips its audits after a parent that violated.
func TestAuditOnceMatchesFullAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration corpus skipped in -short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	pairs := corpusPairs()
	for _, p := range pairs {
		if _, dirty := checkVerdicts(t, p.tc, p.ec); dirty > 0 {
			t.Fatalf("%s/%s %s: %d runs violate an invariant", p.ec.Proto, p.tc.Name, p.ec.Mutation, dirty)
		}
	}
	testHookChoice = corruptQuiescentEntry
	defer func() { testHookChoice = nil }()
	runs, dirty := 0, 0
	for _, p := range pairs[:len(allProtos)*len(Tests())] {
		r, d := checkVerdicts(t, p.tc, p.ec)
		runs, dirty = runs+r, dirty+d
	}
	if dirty == 0 {
		t.Fatal("no run reported the corrupted entry")
	}
	t.Logf("%d of %d runs report the corrupted entry", dirty, runs)
}

// TestCappedAuditIsNotClean: past the auditor's cap on recorded
// violations an audit's findings are dropped, but the state is no less
// dirty, and the worker must not remember it as clean.
func TestCappedAuditIsNotClean(t *testing.T) {
	w, err := newWorker(Tests()[0], DefaultExplore("lrc").RunConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.rec.clean, w.rec.res = map[uint64]bool{}, &RunResult{}
	e := w.m.Nodes[0].Dir.Entry(strayBlock)
	e.Sharers.Add(1)
	for held := -1; held < len(w.aud.Violations()); {
		held = len(w.aud.Violations())
		w.aud.Epoch()
	}
	w.m.Env.ForgetDigests()
	w.rec.Choose(2)
	if len(w.rec.clean) != 0 {
		t.Fatalf("a dirty state audited with %d violations held is remembered clean", len(w.aud.Violations()))
	}
	e.Sharers.Remove(1)
	w.m.Env.ForgetDigests()
	w.rec.Choose(2)
	if len(w.rec.clean) != 1 {
		t.Fatal("a state audited clean is not remembered")
	}
}

// cbDrain is not in the corpus, so mc_explore's schedules do not move: a
// writer caches five lines, one more than the litmus machine's
// coalescing buffer holds, stores to each — a store to a cached line
// goes to the buffer at once, where a missing one waits in the write
// buffer for its fill — and publishes them with a flag.
var cbDrain = &Test{
	Name:  "cb-drain",
	Procs: 2,
	Vars:  []Var{{Name: "a", Line: 0}, {Name: "b", Line: 1}, {Name: "c", Line: 2}, {Name: "d", Line: 3}, {Name: "e", Line: 4}},
	Flags: 1,
	Code: [][]Op{
		{r(0), r(1), r(2), r(3), r(4), w(0, 1), w(1, 1), w(2, 1), w(3, 1), w(4, 1), setf(0)},
		{waitf(0), r(0), r(1), r(2), r(3), r(4)},
	},
	DRF: true,
}

// TestCoalescingBufferDrainIsChecked: under both write-through protocols
// some choice point of cb-drain's search sees a full coalescing buffer, so
// commitWT's capacity drain (pop the oldest entry, put the store, send the
// popped one) is model-checked, and the search finds no violation.
func TestCoalescingBufferDrainIsChecked(t *testing.T) {
	var full atomic.Int64
	testHookChoice = func(m *machine.Machine) {
		for _, n := range m.Nodes {
			if n.CB.Full() {
				full.Add(1)
			}
		}
	}
	defer func() { testHookChoice = nil }()
	for _, proto := range []string{"lrc", "lrc-ext"} {
		full.Store(0)
		rep, err := Explore(cbDrain, DefaultExplore(proto))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Violating() {
			t.Errorf("%s: %+v", rep.Summary(), rep.Counterexamples)
		}
		if full.Load() == 0 {
			t.Errorf("%s: no choice point of %d runs saw a full coalescing buffer", proto, rep.Runs)
		}
		t.Logf("%s, %d choice points saw a full buffer", rep.Summary(), full.Load())
	}
}

// BenchmarkExplorePass is one pass of lrccheck: every corpus pair, both
// mutations' included, explored one after another at the default budgets.
// It reports the pass's host time and objects per schedule explored, the
// unit of bench's mc_explore. Run on one core and repeated, it is the
// noise-robust companion to that workload:
//
//	GOMAXPROCS=1 go test ./internal/mc -run '^$' -bench ExplorePass -count 6
func BenchmarkExplorePass(b *testing.B) {
	pairs := corpusPairs()
	var runs int
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			rep, err := Explore(p.tc, p.ec)
			if err != nil {
				b.Fatal(err)
			}
			runs += rep.Runs
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(runs), "ns/schedule")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(runs), "objects/schedule")
}
