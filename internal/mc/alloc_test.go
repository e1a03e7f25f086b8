//go:build go1.23

package mc

import (
	"iter"
	"testing"
)

// TestRecycledRunAllocates: a worker's rewound machine keeps what its
// last schedule built, so a run allocates only what no rewind can keep —
// each context's coroutine (iter.Pull, whose cost is the toolchain's and
// measured here), the choice record and the outcome. The race detector
// allocates on its own; under it the bound is not held.
func TestRecycledRunAllocates(t *testing.T) {
	seq := func(yield func(struct{}) bool) { yield(struct{}{}) }
	pull := testing.AllocsPerRun(20, func() {
		next, _ := iter.Pull(seq)
		next()
		next()
	})
	const record, outcome = 3, 2 // RunResult, its two slices; the string and its builder
	tc := Tests()[0]
	bound := pull*float64(tc.Procs) + record + outcome
	for _, proto := range allProtos {
		w, err := newWorker(tc, DefaultExplore(proto).RunConfig)
		if err != nil {
			t.Fatal(err)
		}
		w.run(nil) // the first run builds what the rewinds keep
		if got := testing.AllocsPerRun(20, func() { w.run(nil) }); got > bound && !raceEnabled {
			t.Errorf("%s: %v objects per recycled run of %s, want at most %v", proto, got, tc.Name, bound)
		}
	}
}
