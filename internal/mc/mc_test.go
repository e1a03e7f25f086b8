package mc

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lazyrc/internal/machine"
	"lazyrc/internal/protocol"
)

func TestSCOracle(t *testing.T) {
	cases := map[string][]string{
		"mp-flag":        {"p1=1"},
		"mp-stale":       {"p1=0,1"},
		"fs-multiwriter": {"p0=1;p1=1"},
	}
	for name, want := range cases {
		tc, err := FindTest(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SCOutcomes(tc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Allowed, want) {
			t.Errorf("%s: allowed = %v, want %v", name, res.Allowed, want)
		}
	}
}

func TestSCOracleStoreBuffering(t *testing.T) {
	tc, err := FindTest("sb-racy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := SCOutcomes(tc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Racy {
		t.Error("sb-racy not detected as racy")
	}
	// SC forbids both loads reading 0; the other three combinations occur.
	if res.AllowedOutcome("p0=0;p1=0") {
		t.Errorf("SC oracle allows p0=0;p1=0 for store buffering: %v", res.Allowed)
	}
	if len(res.Allowed) != 3 {
		t.Errorf("sb-racy allowed = %v, want 3 outcomes", res.Allowed)
	}
}

func TestSCOracleIRIW(t *testing.T) {
	tc, err := FindTest("iriw-lock")
	if err != nil {
		t.Fatal(err)
	}
	res, err := SCOutcomes(tc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Racy {
		t.Error("iriw-lock detected as racy")
	}
	// The readers must not observe the two writes in opposite orders.
	if res.AllowedOutcome("p2=1,0;p3=1,0") {
		t.Errorf("SC oracle allows contradictory write orders: %v", res.Allowed)
	}
}

func TestOracleValidatesDRFLabels(t *testing.T) {
	for _, tc := range Tests() {
		if _, err := SCOutcomes(tc); err != nil {
			t.Errorf("%s: %v", tc.Name, err)
		}
	}
}

// allProtos is the whole protocol table — sc, erc, lrc, lrc-ext, tardis —
// so the conformance corpus covers every protocol.
var allProtos = protocol.Names()

func exploreBudget(proto string) ExploreConfig {
	ec := DefaultExplore(proto)
	ec.MaxRuns = 400
	return ec
}

// TestConformanceCorpus is the headline acceptance check: every protocol,
// explored over every litmus test at lrccheck's default budgets, produces
// only allowed outcomes and no invariant violations.
func TestConformanceCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration corpus skipped in -short")
	}
	reps := corpusAtDefaults(t)
	for i, p := range corpusPairs() {
		if p.ec.Mutation != "" {
			break
		}
		if rep := reps[i]; rep.Violating() {
			cx := rep.Counterexamples[0]
			t.Errorf("%s/%s: violation %v (schedule %v, outcome %q)",
				p.ec.Proto, p.tc.Name, cx.Reasons, cx.Schedule, cx.Outcome)
		} else if rep.Runs < 2 {
			t.Errorf("%s/%s: explorer found no nondeterminism (%d run)", p.ec.Proto, p.tc.Name, rep.Runs)
		}
	}
}

// TestMutationCaught verifies the checker's own teeth: a protocol that
// skips acquire-time invalidation processing must be caught, and the
// minimized counterexample must replay deterministically.
func TestMutationCaught(t *testing.T) {
	tc, err := FindTest("mp-stale")
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []string{"lrc", "lrc-ext"} {
		ec := exploreBudget(proto)
		ec.Mutation = "skip-acquire-inval"
		rep, err := Explore(tc, ec)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Violating() {
			t.Fatalf("%s: mutation skip-acquire-inval not caught", proto)
		}
		cx := rep.Counterexamples[0]
		sched := NewSchedule(tc, ec, cx, rep.Allowed)

		path := filepath.Join(t.TempDir(), "cx.json")
		if err := sched.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadSchedule(path)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Replay(loaded)
		if err != nil {
			t.Fatalf("%s: counterexample does not replay: %v", proto, err)
		}
		if res.Outcome != cx.Outcome || res.FinalHash != cx.FinalHash {
			t.Fatalf("%s: replay mismatch: outcome %q hash %#x, want %q %#x",
				proto, res.Outcome, res.FinalHash, cx.Outcome, cx.FinalHash)
		}
	}
}

// TestLeaseMutationCaught: a timestamp protocol that never checks lease
// expiry serves stale copies forever; the checker must catch it on
// mp-stale within a bounded budget, and the minimized counterexample must
// replay deterministically.
func TestLeaseMutationCaught(t *testing.T) {
	tc, err := FindTest("mp-stale")
	if err != nil {
		t.Fatal(err)
	}
	const proto = "tardis"
	ec := exploreBudget(proto)
	ec.Mutation = "skip-lease-renewal"
	rep, err := Explore(tc, ec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Violating() {
		t.Fatalf("%s: mutation skip-lease-renewal not caught", proto)
	}
	cx := rep.Counterexamples[0]
	sched := NewSchedule(tc, ec, cx, rep.Allowed)

	path := filepath.Join(t.TempDir(), "cx.json")
	if err := sched.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSchedule(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(loaded)
	if err != nil {
		t.Fatalf("%s: counterexample does not replay: %v", proto, err)
	}
	if res.Outcome != cx.Outcome || res.FinalHash != cx.FinalHash {
		t.Fatalf("%s: replay mismatch: outcome %q hash %#x, want %q %#x",
			proto, res.Outcome, res.FinalHash, cx.Outcome, cx.FinalHash)
	}
}

// TestLeaseMutationIsTimestampOnly: the invalidation protocols have no
// leases to skip, so the timestamp-only mutation must be a no-op for
// them (guards against the mutation knob perturbing shared code).
func TestLeaseMutationIsTimestampOnly(t *testing.T) {
	tc, err := FindTest("mp-stale")
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []string{"sc", "lrc"} {
		ec := exploreBudget(proto)
		ec.Mutation = "skip-lease-renewal"
		ec.MaxRuns = 100
		rep, err := Explore(tc, ec)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Violating() {
			t.Errorf("%s violated under a timestamp-only mutation: %v", proto, rep.Counterexamples[0].Reasons)
		}
	}
}

// TestCleanProtocolUnderMutationOracleOnly: the eager protocols process
// invalidations at the home, so the lazy-only mutation must be a no-op
// for them (guards against the mutation knob perturbing shared code).
func TestMutationIsLazyOnly(t *testing.T) {
	tc, err := FindTest("mp-stale")
	if err != nil {
		t.Fatal(err)
	}
	ec := exploreBudget("sc")
	ec.Mutation = "skip-acquire-inval"
	ec.MaxRuns = 100
	rep, err := Explore(tc, ec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violating() {
		t.Errorf("sc violated under a lazy-only mutation: %v", rep.Counterexamples[0].Reasons)
	}
}

func TestReplayIsDeterministic(t *testing.T) {
	tc, err := FindTest("fs-multiwriter")
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Proto: "lrc"}
	prefix := []int{1, 0, 1, 1}
	a, err := RunOnce(tc, rc, prefix)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnce(tc, rc, prefix)
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcome != b.Outcome || a.FinalHash != b.FinalHash || a.Choices != b.Choices {
		t.Fatalf("identical schedules diverged: (%q,%#x,%d) vs (%q,%#x,%d)",
			a.Outcome, a.FinalHash, a.Choices, b.Outcome, b.FinalHash, b.Choices)
	}
	if !reflect.DeepEqual(a.Taken, b.Taken) || !reflect.DeepEqual(a.Hashes, b.Hashes) {
		t.Fatal("recorded choice points diverged between identical schedules")
	}
}

// TestValidateRejectsMisplacedVars: a variable is a word of a litmus
// line. Loads and stores go by address, so a word past its line would
// silently alias the next line's first word.
func TestValidateRejectsMisplacedVars(t *testing.T) {
	for _, v := range []Var{
		{Name: "past", Line: 0, Word: 2},
		{Name: "before", Line: 1, Word: -1},
		{Name: "negative", Line: -1, Word: 0},
	} {
		tc := &Test{
			Name:  v.Name,
			Procs: 2,
			Vars:  []Var{{Name: "x", Line: 1, Word: 0}, v},
			Code:  [][]Op{{w(0, 1)}, {r(1)}},
		}
		if err := validateTest(tc); err == nil || !strings.Contains(err.Error(), "is not a word of a 2-word line") {
			t.Errorf("%+v: err = %v, want a misplaced-variable error", v, err)
		}
	}
}

// TestCPUSidePanicIsAViolation: a panic on a processor context (here a
// worker body's own; equally a protocol's CPURead or Acquire) is a
// recorded violation of that schedule, like one raised in a message
// handler — not the end of the exploration.
func TestCPUSidePanicIsAViolation(t *testing.T) {
	tc, err := FindTest("mp-flag")
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []string{"sc", "lrc", "tardis"} {
		wk, err := newWorker(tc, RunConfig{Proto: proto})
		if err != nil {
			t.Fatal(err)
		}
		program := wk.body
		wk.body = func(p *machine.Proc) {
			program(p)
			if p.ID() == 1 {
				_ = wk.regs[p.NProcs()] // one register file per processor: out of range
			}
		}
		res := wk.run(nil, nil)
		if len(res.Violations) != 1 || !strings.HasPrefix(res.Violations[0], "panic: runtime error: index out of range") {
			t.Errorf("%s: violations = %q, want the CPU-side panic", proto, res.Violations)
		}
	}
}
