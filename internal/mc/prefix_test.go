package mc

import (
	"reflect"
	"testing"
)

// TestRunOnceHashesFromThePrefixOn: a run records no state hash inside
// the prefix it was asked for and one at every choice point after it —
// and loses nothing by it. The reference is an explorer that does hash
// every choice point (a branch's prefix passes through its parent's
// states, so it inherits the parent's hashes for them) and offers all of
// them for expansion, prefix included: its report equals Explore's field
// for field for every litmus test under every protocol, because whatever
// lies inside a prefix an earlier run has expanded already.
func TestRunOnceHashesFromThePrefixOn(t *testing.T) {
	// The budgets lrccheck -smoke had: small enough to run every pair
	// twice, and 11 of the 42 are truncated, which the reports must
	// agree on too.
	const maxRuns, maxChoices = 150, 32
	if testing.Short() {
		t.Skip("exploration corpus skipped in -short")
	}
	type branch struct {
		prefix []int
		hashes []uint64 // of the prefix's choice points, from the parent run
	}
	for _, proto := range allProtos {
		for _, tc := range Tests() {
			ec := DefaultExplore(proto)
			ec.MaxRuns, ec.MaxChoices = maxRuns, maxChoices
			got, err := Explore(tc, ec)
			if err != nil {
				t.Fatalf("%s/%s: %v", proto, tc.Name, err)
			}
			want := &Report{Test: tc.Name, Proto: proto, Outcomes: map[string]int{},
				Allowed: got.Allowed, Racy: got.Racy, OutcomeChecked: got.OutcomeChecked}
			frontier := []branch{{}}
			expanded := map[uint64]bool{}
			for len(frontier) > 0 {
				if want.Runs >= ec.MaxRuns {
					want.Truncated = true
					break
				}
				b := frontier[len(frontier)-1]
				frontier = frontier[:len(frontier)-1]
				res, err := RunOnce(tc, ec.RunConfig, b.prefix)
				if err != nil {
					t.Fatalf("%s/%s: %v", proto, tc.Name, err)
				}
				want.Runs++
				want.Outcomes[res.Outcome]++
				for i, h := range res.Hashes {
					if (h == 0) != (i < len(b.prefix)) {
						t.Fatalf("%s/%s: prefix of %d: Hashes[%d] = %#x", proto, tc.Name, len(b.prefix), i, h)
					}
				}
				full := append(append([]uint64(nil), b.hashes...), res.Hashes[len(b.prefix):]...)
				for i, h := range full {
					if expanded[h] {
						continue
					}
					expanded[h] = true
					for alt := 1; alt < res.Arity[i]; alt++ {
						p := append(append([]int(nil), res.Taken[:i]...), alt)
						frontier = append(frontier, branch{p, full[:i+1]})
					}
				}
			}
			want.States = len(expanded)
			for _, o := range want.Allowed {
				if want.Outcomes[o] > 0 {
					want.Covered++
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: Explore reports %+v, the all-hashing explorer %+v", proto, tc.Name, got, want)
			}
		}
	}
}

// BenchmarkRunOnce is one schedule of the first litmus test under lrc with
// the per-choice audit on, no prefix: a hash per choice point and the
// final audit, on a machine built for the run (fresh: RunOnce, what replay
// pays) or rewound after the last (recycled: what Explore's workers pay).
//
//	go test ./internal/mc -run '^$' -bench RunOnce -benchtime 100x
func BenchmarkRunOnce(b *testing.B) {
	rc := DefaultExplore("lrc").RunConfig
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunOnce(Tests()[0], rc, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recycled", func(b *testing.B) {
		w, err := newWorker(Tests()[0], rc)
		if err != nil {
			b.Fatal(err)
		}
		defer w.m.Close()
		var res *RunResult
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res = w.run(nil, res)
		}
	})
}
