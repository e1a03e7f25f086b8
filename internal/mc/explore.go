package mc

import (
	"fmt"
	"sort"

	"lazyrc/internal/protocol"
)

// This file is the model checker proper: a stateless-search DFS over
// schedules. Each run records its choice points (arity + state hash);
// the explorer then queues sibling schedules — the same prefix with one
// alternative answer — for every choice point whose machine state it has
// not expanded before. Hashing states at choice points gives the search
// its pruning: of schedules that hash the same, only the first is
// expanded. That is not coverage-conservative: the hash folds in every
// cache, buffer, directory and in-flight message, but no processor's
// program position or registers, so a schedule differing only there is
// skipped though its futures differ. Runs may execute ahead of the search
// on other cores (frontier.go); the search consumes them in its own order.

// ExploreConfig bounds one exploration.
type ExploreConfig struct {
	RunConfig
	// MaxRuns bounds the number of schedules executed.
	MaxRuns int
	// MaxStates bounds the expanded-state set.
	MaxStates int
	// MinimizeBudget bounds the extra runs spent shrinking each
	// counterexample (0 means DefaultMinimizeBudget).
	MinimizeBudget int
}

// DefaultExplore returns the default budgets for proto.
func DefaultExplore(proto string) ExploreConfig {
	return ExploreConfig{
		RunConfig: RunConfig{Proto: proto, MaxChoices: DefaultMaxChoices, Audit: true},
		MaxRuns:   2000,
		MaxStates: 100000,
	}
}

// DefaultMinimizeBudget is the default counterexample-shrinking budget.
const DefaultMinimizeBudget = 200

// Counterexample is one violating schedule, minimized.
type Counterexample struct {
	// Schedule is the (minimized) choice prefix that reproduces the
	// violation; choices beyond it default to 0.
	Schedule []int
	// Outcome is the register outcome of the violating run.
	Outcome string
	// Reasons describes the violation(s): "outcome ... not SC-allowed",
	// invariant breaches, deadlock, or panics.
	Reasons []string
	// FinalHash fingerprints the violating run's final state, so a replay
	// can prove it reproduced the identical execution.
	FinalHash uint64
}

// Report is the result of exploring one (test, protocol) pair.
type Report struct {
	Test  string
	Proto string
	// Mutation echoes the injected bug, if any.
	Mutation string
	// Runs is the number of schedules executed (excluding minimization).
	Runs int
	// States is the number of distinct choice-point states expanded.
	States int
	// Outcomes counts runs per observed register outcome.
	Outcomes map[string]int
	// Allowed is the SC oracle's outcome set.
	Allowed []string
	// Racy is the SC oracle's race verdict (== !Test.DRF, validated).
	Racy bool
	// OutcomeChecked reports whether outcomes were judged against the
	// oracle (true unless the test is racy and the protocol is relaxed,
	// where release consistency owes nothing).
	OutcomeChecked bool
	// Counterexamples holds one minimized schedule per distinct violation
	// reason (capped).
	Counterexamples []Counterexample
	// Truncated is set if a budget stopped the search before the
	// frontier emptied.
	Truncated bool
}

// Violating reports whether the exploration found any violation.
func (r *Report) Violating() bool { return len(r.Counterexamples) > 0 }

// Summary renders a one-line result.
func (r *Report) Summary() string {
	verdict := "ok"
	if r.Violating() {
		verdict = fmt.Sprintf("VIOLATION (%d counterexample(s))", len(r.Counterexamples))
	} else if r.Truncated {
		verdict = "ok (budget-truncated)"
	}
	return fmt.Sprintf("%-16s %-8s runs=%-5d states=%-6d outcomes=%-2d %s",
		r.Test, r.Proto, r.Runs, r.States, len(r.Outcomes), verdict)
}

const maxCounterexamples = 4

// judge appends conformance violations (beyond the run's own) given the
// oracle.
func judge(res *RunResult, oracle *SCResult, checkOutcome bool) []string {
	reasons := append([]string(nil), res.Violations...)
	if checkOutcome && !oracle.AllowedOutcome(res.Outcome) {
		reasons = append(reasons, fmt.Sprintf(
			"outcome %q is not sequentially-consistent-allowed %v", res.Outcome, oracle.Allowed))
	}
	return reasons
}

// Explore model-checks t under ec and returns the report. An error means
// the checker itself could not run (bad test, bad config) — protocol
// violations are reported in the Report, not as errors.
func Explore(t *Test, ec ExploreConfig) (*Report, error) {
	// The root schedule is queued before the oracle is consulted, so a
	// helper runs it meanwhile.
	frontier := newFrontier(t, ec.RunConfig)
	defer frontier.close()
	frontier.push([]int{})
	oracle, err := t.scOracle()
	if err != nil {
		return nil, err
	}
	// Relaxed protocols promise SC outcomes only for data-race-free
	// programs; racy litmus tests still run (invariants, deadlock) but
	// their outcomes are merely recorded. The SC-strict protocols (sc,
	// tardis) owe SC semantics to every program.
	checkOutcome := t.DRF || protocol.SCStrict(ec.Proto)
	if ec.MaxRuns <= 0 {
		ec.MaxRuns = 2000
	}
	if ec.MaxStates <= 0 {
		ec.MaxStates = 100000
	}
	rep := &Report{
		Test: t.Name, Proto: ec.Proto, Mutation: ec.Mutation,
		Outcomes: map[string]int{}, Allowed: oracle.Allowed, Racy: oracle.Racy,
		OutcomeChecked: checkOutcome,
	}

	expanded := map[uint64]bool{}
	seenReasons := map[string]bool{}
	var siblings [][]int

	for frontier.len() > 0 {
		if rep.Runs >= ec.MaxRuns {
			rep.Truncated = true
			break
		}
		prefix, res, err := frontier.pop()
		if err != nil {
			return nil, err
		}
		rep.Runs++
		rep.Outcomes[res.Outcome]++

		if reasons := judge(res, oracle, checkOutcome); len(reasons) > 0 {
			key := reasons[0]
			if !seenReasons[key] && len(rep.Counterexamples) < maxCounterexamples {
				seenReasons[key] = true
				w, err := frontier.worker(&frontier.own)
				if err != nil {
					return nil, err
				}
				cx := minimize(w, ec, oracle, checkOutcome, res.Taken)
				rep.Counterexamples = append(rep.Counterexamples, cx)
			}
		}

		// Queue sibling schedules at every unexpanded choice point this
		// run passed through.
		siblings = siblings[:0]
		for i := len(prefix); i < len(res.Arity); i++ {
			h := res.Hashes[i]
			if expanded[h] {
				continue
			}
			if len(expanded) >= ec.MaxStates {
				rep.Truncated = true
				break
			}
			expanded[h] = true
			for alt := 1; alt < res.Arity[i]; alt++ {
				branch := make([]int, i+1)
				copy(branch, res.Taken[:i])
				branch[i] = alt
				siblings = append(siblings, branch)
			}
		}
		frontier.push(siblings...)
	}
	rep.States = len(expanded)
	sortOutcomeless(rep)
	return rep, nil
}

func sortOutcomeless(r *Report) {
	sort.Slice(r.Counterexamples, func(i, j int) bool {
		return len(r.Counterexamples[i].Schedule) < len(r.Counterexamples[j].Schedule)
	})
}

// minimize shrinks a violating schedule: first the shortest prefix that
// still violates (everything beyond a prefix defaults to 0), then each
// remaining nonzero choice is individually zeroed if the violation
// survives. The result replays deterministically by construction — it is
// re-executed, on the committer's worker w, not edited.
func minimize(w *worker, ec ExploreConfig, oracle *SCResult, checkOutcome bool, taken []int) Counterexample {
	budget := ec.MinimizeBudget
	if budget <= 0 {
		budget = DefaultMinimizeBudget
	}
	run := func(prefix []int) (*RunResult, []string) {
		if budget <= 0 {
			return nil, nil
		}
		budget--
		res := w.run(prefix)
		return res, judge(res, oracle, checkOutcome)
	}

	best := append([]int(nil), taken...)
	bestRes, bestReasons := run(best)
	if len(bestReasons) == 0 {
		// The full recorded schedule must reproduce; if not (budget
		// exhausted at entry), fall back to reporting it unminimized.
		return Counterexample{Schedule: best, Outcome: "", Reasons: []string{"unreproduced violation"}}
	}

	// Trim trailing zeros first (they are the default anyway), then search
	// for the shortest violating prefix.
	for len(best) > 0 && best[len(best)-1] == 0 {
		best = best[:len(best)-1]
	}
	lo := 0
	for lo < len(best) {
		if res, reasons := run(best[:lo]); len(reasons) > 0 {
			best = append([]int(nil), best[:lo]...)
			bestRes, bestReasons = res, reasons
			break
		}
		lo++
	}

	// Zero out individual choices where the violation survives.
	for i := 0; i < len(best); i++ {
		if best[i] == 0 {
			continue
		}
		trial := append([]int(nil), best...)
		trial[i] = 0
		if res, reasons := run(trial); len(reasons) > 0 {
			best = trial
			bestRes, bestReasons = res, reasons
		}
	}
	for len(best) > 0 && best[len(best)-1] == 0 {
		best = best[:len(best)-1]
	}
	// Re-run the final schedule so Outcome/FinalHash/Reasons all describe
	// exactly the schedule we report.
	if res, reasons := run(best); len(reasons) > 0 {
		bestRes, bestReasons = res, reasons
	}
	return Counterexample{
		Schedule:  best,
		Outcome:   bestRes.Outcome,
		Reasons:   bestReasons,
		FinalHash: bestRes.FinalHash,
	}
}
