package main

import (
	"fmt"
	"os"

	"lazyrc"
	"lazyrc/internal/mc"
)

// mcExplore is one pass of lrccheck: the litmus corpus under every protocol
// at the default budgets, which must find nothing, then under each of the
// two deliberate protocol bugs, which must be caught. A unit is one schedule
// explored; the simulated total is the number of choice-point states
// expanded, which a partial-order reduction would lower.
type mcExplore struct {
	e      *env
	pairs  []mcPair
	caught map[int]bool // the mutated pairs whose exploration violates
}

type mcPair struct {
	test *mc.Test
	ec   mc.ExploreConfig
}

// mutations are the injected bugs and the protocol each is run on.
var mutations = []struct{ name, proto string }{
	{"skip-acquire-inval", "lrc"},
	{"skip-lease-renewal", "tardis"},
}

func (m *mcExplore) budgets(proto, mutation string) mc.ExploreConfig {
	ec := mc.DefaultExplore(proto)
	ec.Mutation = mutation
	if m.e.smoke { // lrccheck -smoke
		ec.MaxRuns, ec.MaxChoices = 150, 32
	}
	return ec
}

func (m *mcExplore) setup(e *env) error {
	m.e, m.pairs, m.caught = e, nil, map[int]bool{}
	for _, proto := range lazyrc.Protocols() {
		for _, t := range mc.Tests() {
			m.pairs = append(m.pairs, mcPair{t, m.budgets(proto, "")})
		}
	}
	for _, mut := range mutations {
		for _, t := range mc.Tests() {
			m.pairs = append(m.pairs, mcPair{t, m.budgets(mut.proto, mut.name)})
		}
	}
	return nil
}

func (m *mcExplore) teardown() {}

func (m *mcExplore) run(i int, tr *tracer) (rep, error) {
	root := tr.begin("rep", 0)
	defer tr.end(root)
	var r rep
	var err error
	caught := map[string]int{}
	r.measured = measure(func() {
		for idx, p := range m.pairs {
			var report *mc.Report
			tr.do("mc.explore", root, func() { report, err = mc.Explore(p.test, p.ec) })
			if err != nil {
				return
			}
			r.units += uint64(report.Runs)
			r.simWork += uint64(report.States)
			switch {
			case p.ec.Mutation == "":
				m.e.check(!report.Violating(), "false counterexample: %s", report.Summary())
			case report.Violating():
				caught[p.ec.Mutation]++
				m.caught[idx] = true
			}
		}
	})
	if err != nil {
		return r, err
	}
	for _, mut := range mutations {
		m.e.check(caught[mut.name] > 0, "mutation %s on %s was not caught by any test", mut.name, mut.proto)
	}
	r.counts = map[string]float64{"mc.runs": float64(r.units), "mc.states": float64(r.simWork)}
	return r, nil
}

// finish, in the traced pass, finds for every mutated pair that violates the
// smallest schedule budget at which the checker still catches the bug.
// Exploration is a deterministic depth-first search, so a run with budget n
// is the first n schedules of a run with a larger one: doubling the budget
// until the bug is caught and bisecting the last step finds the first
// schedule that violates.
func (m *mcExplore) finish(traced bool) map[string]float64 {
	if !traced {
		return nil
	}
	total := 0
	for idx, p := range m.pairs {
		if !m.caught[idx] {
			continue
		}
		violates := func(budget int) bool {
			ec := p.ec
			ec.MaxRuns = budget
			ec.MinimizeBudget = 1 // only whether, not the shrunk schedule
			report, err := mc.Explore(p.test, ec)
			return err == nil && report.Violating()
		}
		lo, hi := 0, 1 // no catch within lo schedules, a catch within hi
		for hi < p.ec.MaxRuns && !violates(hi) {
			lo, hi = hi, min(2*hi, p.ec.MaxRuns)
		}
		for hi-lo > 1 {
			if mid := (lo + hi) / 2; violates(mid) {
				hi = mid
			} else {
				lo = mid
			}
		}
		fmt.Fprintf(os.Stderr, "  %s on %s, %s: caught at schedule %d\n", p.ec.Mutation, p.ec.Proto, p.test.Name, hi)
		total += hi
	}
	return map[string]float64{"mc.runs_to_catch": float64(total)}
}
