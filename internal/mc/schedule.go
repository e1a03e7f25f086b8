package mc

import (
	"encoding/json"
	"fmt"
	"os"
)

// A Schedule is a self-contained, replayable record of one checked run —
// everything needed to rebuild the identical machine and feed it the
// identical choice answers. lrccheck writes one per counterexample and
// `lrcsim -replay` re-executes it, verifying the outcome and final state
// hash match byte for byte.

// ScheduleVersion is bumped whenever the machine construction, the choice
// semantics or the state hash a schedule records change incompatibly
// (2: the streaming fold of internal/fold replaced the FNV byte image;
// 3: each node goes into the hash as its own digest).
const ScheduleVersion = 3

// Schedule is the serialized form of a (usually violating) run.
type Schedule struct {
	Version    int      `json:"version"`
	Test       string   `json:"test"`
	Proto      string   `json:"proto"`
	Menu       []uint64 `json:"menu"`
	MaxChoices int      `json:"max_choices"`
	Mutation   string   `json:"mutation,omitempty"`
	Choices    []int    `json:"choices"`

	// Recorded results, verified on replay.
	Outcome   string   `json:"outcome"`
	FinalHash uint64   `json:"final_hash"`
	Reasons   []string `json:"reasons,omitempty"`
	Allowed   []string `json:"allowed,omitempty"`
}

// NewSchedule packages a counterexample for persistence.
func NewSchedule(t *Test, ec ExploreConfig, cx Counterexample, allowed []string) *Schedule {
	rc := ec.withDefaults()
	return &Schedule{
		Version:    ScheduleVersion,
		Test:       t.Name,
		Proto:      ec.Proto,
		Menu:       rc.Menu,
		MaxChoices: rc.MaxChoices,
		Mutation:   ec.Mutation,
		Choices:    cx.Schedule,
		Outcome:    cx.Outcome,
		FinalHash:  cx.FinalHash,
		Reasons:    cx.Reasons,
		Allowed:    allowed,
	}
}

// Save writes the schedule as JSON.
func (s *Schedule) Save(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadSchedule reads a schedule written by Save.
func LoadSchedule(path string) (*Schedule, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ParseSchedule(b)
	if err != nil {
		return nil, fmt.Errorf("mc: %s: %w", path, err)
	}
	return s, nil
}

// ParseSchedule decodes a schedule's JSON and refuses any version but
// this build's.
func ParseSchedule(b []byte) (*Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, err
	}
	if s.Version != ScheduleVersion {
		return nil, fmt.Errorf("schedule version %d, this build replays version %d", s.Version, ScheduleVersion)
	}
	return &s, nil
}

// Replay re-executes a schedule and verifies it reproduces the recorded
// run exactly: same register outcome, same final machine state hash. The
// run's own violations (invariants, deadlock) are re-detected live; a
// determinism mismatch is returned as an error.
func Replay(s *Schedule) (*RunResult, error) {
	t, err := FindTest(s.Test)
	if err != nil {
		return nil, err
	}
	rc := RunConfig{
		Proto:      s.Proto,
		Menu:       s.Menu,
		MaxChoices: s.MaxChoices,
		Mutation:   s.Mutation,
	}
	res, err := RunOnce(t, rc, s.Choices)
	if err != nil {
		return nil, err
	}
	if res.Outcome != s.Outcome {
		return res, fmt.Errorf("mc: replay diverged: outcome %q, schedule recorded %q",
			res.Outcome, s.Outcome)
	}
	if s.FinalHash != 0 && res.FinalHash != s.FinalHash {
		return res, fmt.Errorf("mc: replay diverged: final state hash %#x, schedule recorded %#x",
			res.FinalHash, s.FinalHash)
	}
	return res, nil
}
