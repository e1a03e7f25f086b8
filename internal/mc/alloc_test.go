package mc

import "testing"

// TestRecycledRunAllocates: a worker's rewound machine keeps what its
// last schedule built — processor coroutines included — and a run records
// itself in the last committed result, so a schedule allocates only what
// no rewind can keep. The race detector allocates on its own; under it
// the bound is not held.
func TestRecycledRunAllocates(t *testing.T) {
	tc := Tests()[0]
	for _, proto := range allProtos {
		w, err := newWorker(tc, DefaultExplore(proto).RunConfig)
		if err != nil {
			t.Fatal(err)
		}
		defer w.m.Close()
		res := w.run(nil, w.run(nil, nil)) // the first runs build what the rewinds keep
		got := testing.AllocsPerRun(20, func() { res = w.run(nil, res) })
		if got > 0 && !raceEnabled {
			t.Errorf("%s: %v objects per recycled run of %s, want 0", proto, got, tc.Name)
		}
	}
}

// TestExploredScheduleAllocates: the search's own bookkeeping — sibling
// prefixes, jobs, records and the expanded-state set — is pooled across
// Explore calls, so past what an Explore's workers cost a schedule
// allocates nothing. iriw-lock under sc is explored to completion at two
// recorded-choice bounds, 183 and 522 schedules; the extra schedules may
// cost no more than 0.05 objects each (each cost about 1.4 while every
// commit copied its siblings' prefixes into new slices and jobs). Under
// the race detector the bound is not held.
func TestExploredScheduleAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	tc, err := FindTest("iriw-lock")
	if err != nil {
		t.Fatal(err)
	}
	explore := func(maxChoices int) (objects float64, runs int) {
		ec := DefaultExplore("sc")
		ec.MaxChoices = maxChoices
		var rep *Report
		objects = testing.AllocsPerRun(5, func() {
			if rep, err = Explore(tc, ec); err != nil {
				t.Fatal(err)
			}
		})
		if rep.Truncated {
			t.Fatalf("MaxChoices %d: search truncated at %d runs", maxChoices, rep.Runs)
		}
		return objects, rep.Runs
	}
	few, fewRuns := explore(16)
	many, manyRuns := explore(DefaultMaxChoices)
	if manyRuns-fewRuns < 200 {
		t.Fatalf("%d and %d schedules: too close to tell a per-schedule cost", fewRuns, manyRuns)
	}
	if per := (many - few) / float64(manyRuns-fewRuns); per > 0.05 {
		t.Errorf("%v objects for %d schedules, %v for %d: %.3f per extra schedule, want <= 0.05",
			few, fewRuns, many, manyRuns, per)
	}
}
