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
