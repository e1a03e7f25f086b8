package mc

import (
	"encoding/json"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lazyrc/internal/mesh"
)

// replayAllocBound is what one Replay may allocate, far above a litmus
// run's ≈ 30 KB: the choice record is sized by the run, never by the
// bound a schedule file claims.
const replayAllocBound = 1 << 20

// replayAllocs replays s and returns what Replay returned and allocated.
func replayAllocs(s *Schedule) (*RunResult, error, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Replay(s)
	runtime.ReadMemStats(&after)
	return res, err, after.TotalAlloc - before.TotalAlloc
}

// mutantSchedule is the counterexample TestMutationCaught saves for lrc.
func mutantSchedule(t testing.TB) *Schedule {
	tc, err := FindTest("mp-stale")
	if err != nil {
		t.Fatal(err)
	}
	ec := exploreBudget("lrc")
	ec.Mutation = "skip-acquire-inval"
	rep, err := Explore(tc, ec)
	if err != nil || !rep.Violating() {
		t.Fatalf("mutation not caught: %v", err)
	}
	return NewSchedule(tc, ec, rep.Counterexamples[0], rep.Allowed)
}

// TestReplaySizesTheRecordByTheRun: a schedule claiming a 2⁴⁰-choice bound
// replays in the memory of one claiming the default — the recorder's
// up-front capacity is capped, and past it the record grows by what the
// run records.
func TestReplaySizesTheRecordByTheRun(t *testing.T) {
	s := mutantSchedule(t)
	s.MaxChoices = 1 << 40
	res, err, bytes := replayAllocs(s)
	if err != nil {
		t.Fatal(err)
	}
	if bytes > replayAllocBound || len(res.Taken) != res.Choices {
		t.Fatalf("replay recorded %d of %d choices in %d bytes", len(res.Taken), res.Choices, bytes)
	}
}

// TestOldScheduleIsRefused: a version-2 schedule records a final hash
// folded before each node went into the hash as its own digest, so this
// build would replay it into a "diverged" verdict on a run that
// reproduced. Loading it fails instead, naming the file and the version.
func TestOldScheduleIsRefused(t *testing.T) {
	s := mutantSchedule(t)
	s.Version = 2
	path := filepath.Join(t.TempDir(), "v2.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	_, err := LoadSchedule(path)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "version 2") ||
		strings.Contains(err.Error(), "diverged") {
		t.Fatalf("loading a version-2 schedule: %v", err)
	}
}

// TestHugeDelayIsAUsageError: a delivery delay that would wrap the
// simulated clock is refused where the menu enters the mesh, so RunOnce
// and Replay report an error rather than a run that "violates".
func TestHugeDelayIsAUsageError(t *testing.T) {
	menu := []uint64{0, 1 << 63}
	if _, err := RunOnce(Tests()[0], RunConfig{Proto: "lrc", Menu: menu}, []int{1, 1, 1, 1}); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("RunOnce with menu %v: error %v", menu, err)
	}
	s := mutantSchedule(t)
	s.Menu = menu
	if _, err := Replay(s); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("Replay with menu %v: error %v", menu, err)
	}
	// The bound itself is a legal delay.
	res, err := RunOnce(Tests()[0], RunConfig{Proto: "lrc", Menu: []uint64{0, mesh.MaxExploreDelay}}, []int{1, 1, 1, 1})
	if err != nil || len(res.Violations) > 0 {
		t.Errorf("delay %d: error %v, violations %q", mesh.MaxExploreDelay, err, res.Violations)
	}
}

// FuzzReplay: schedule JSON is read from files anyone can hand to
// `lrcsim -replay`. Whatever the bytes, parsing and replaying them must
// return — a value or an error, never a panic — within the allocation
// bound of a real run.
//
//	go test ./internal/mc -run '^$' -fuzz FuzzReplay -fuzztime 10s
func FuzzReplay(f *testing.F) {
	base := mutantSchedule(f)
	seed := func(edit func(s *Schedule)) {
		s := *base
		edit(&s)
		b, err := json.Marshal(&s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(func(*Schedule) {})
	seed(func(s *Schedule) { s.Choices = []int{-1, 7, 1 << 40, -1 << 40} })
	seed(func(s *Schedule) { s.MaxChoices = 0 })
	seed(func(s *Schedule) { s.MaxChoices = -3 })
	seed(func(s *Schedule) { s.MaxChoices = 1 << 40 })
	seed(func(s *Schedule) { s.Menu = []uint64{0, 1 << 63} })
	seed(func(s *Schedule) { s.Menu = []uint64{} })
	seed(func(s *Schedule) { s.Test = "no-such-test" })
	seed(func(s *Schedule) { s.Proto = "no-such-protocol" })
	seed(func(s *Schedule) { s.Mutation = "no-such-bug" })
	seed(func(s *Schedule) { s.Version = 1 })
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := ParseSchedule(b)
		if err != nil {
			return
		}
		if _, _, bytes := replayAllocs(s); bytes > replayAllocBound {
			t.Fatalf("replay allocated %d bytes", bytes)
		}
	})
}
