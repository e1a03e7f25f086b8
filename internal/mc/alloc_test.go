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
// Explore calls, and a rewound machine's protocol keeps what it grew, so
// past what an Explore's workers cost a schedule allocates nothing. Each pair is explored to
// completion at two recorded-choice bounds: iriw-lock under sc at 183 and
// 522 schedules, fs-multiwriter under lrc at 19 and 228. The extra
// schedules may cost no more than 0.05 objects each (each cost about 1.4
// while every commit copied its siblings' prefixes into new slices and
// jobs, and fs-multiwriter's 1.0 while a home's last notice ack dropped
// its waiting writers' storage). Under the race detector the bound is not
// held.
func TestExploredScheduleAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, c := range []struct {
		test, proto string
		few         int // the lower recorded-choice bound; the higher is the default
	}{{"iriw-lock", "sc", 16}, {"fs-multiwriter", "lrc", 8}} {
		tc, err := FindTest(c.test)
		if err != nil {
			t.Fatal(err)
		}
		explore := func(maxChoices int) (objects float64, runs int) {
			ec := DefaultExplore(c.proto)
			ec.MaxChoices = maxChoices
			var rep *Report
			objects = testing.AllocsPerRun(5, func() {
				if rep, err = Explore(tc, ec); err != nil {
					t.Fatal(err)
				}
			})
			if rep.Truncated {
				t.Fatalf("%s/%s, MaxChoices %d: search truncated at %d runs", c.test, c.proto, maxChoices, rep.Runs)
			}
			return objects, rep.Runs
		}
		few, fewRuns := explore(c.few)
		many, manyRuns := explore(DefaultMaxChoices)
		if manyRuns-fewRuns < 200 {
			t.Fatalf("%s/%s: %d and %d schedules: too close to tell a per-schedule cost", c.test, c.proto, fewRuns, manyRuns)
		}
		if per := (many - few) / float64(manyRuns-fewRuns); per > 0.05 {
			t.Errorf("%s/%s: %v objects for %d schedules, %v for %d: %.3f per extra schedule, want <= 0.05",
				c.test, c.proto, few, fewRuns, many, manyRuns, per)
		}
	}
}

// TestCutSearchAllocates: a search MaxRuns stops leaves jobs queued and
// runs nobody committed; they go back to the pools as a finished search's
// do, so iriw-lock under sc cut at 60 of its 522 schedules allocates no
// more than the whole search (it cost 391 objects against 265 while the
// cut dropped them). Under the race detector the bound is not held.
func TestCutSearchAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	tc, err := FindTest("iriw-lock")
	if err != nil {
		t.Fatal(err)
	}
	explore := func(maxRuns int) float64 {
		ec := DefaultExplore("sc")
		ec.MaxRuns = maxRuns
		return testing.AllocsPerRun(5, func() {
			rep, err := Explore(tc, ec)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Truncated != (maxRuns < 522) {
				t.Fatalf("MaxRuns %d: truncated %v", maxRuns, rep.Truncated)
			}
		})
	}
	if cut, whole := explore(60), explore(522); cut > whole {
		t.Errorf("cut at 60 schedules: %v objects, the whole search %v", cut, whole)
	}
}
