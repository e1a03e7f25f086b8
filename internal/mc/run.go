package mc

import (
	"fmt"

	"lazyrc/internal/check"
	"lazyrc/internal/config"
	"lazyrc/internal/machine"
)

// This file executes one litmus program on the real simulated machine
// under one schedule. A schedule is the sequence of answers to the
// nondeterministic choices the simulator asks about — which tied event
// fires first, which delivery delay a message takes — so replaying the
// same choice list reproduces the run byte for byte. The recorder also
// notes each choice point's arity and, past the prefix, its machine state
// hash, which is all the explorer needs to enumerate sibling schedules and
// prune revisits.

// RunConfig parameterizes a single checked run.
type RunConfig struct {
	// Proto is the protocol name: "sc", "erc", "lrc", "lrc-ext",
	// "tardis", or "tardis2".
	Proto string
	// Menu is the set of per-message delivery delays (cycles) the
	// explorer may choose among. Empty means DefaultMenu.
	Menu []uint64
	// MaxChoices bounds recorded choice points; beyond it every choice
	// defaults to 0 (first tied event, first menu delay).
	MaxChoices int
	// Mutation names a deliberate protocol bug to inject (config.Mutations).
	Mutation string
	// Audit runs the protocol-invariant auditor at every scheduler choice
	// point as well as at quiescence, where it always runs.
	Audit bool
}

// DefaultMenu is the delivery-delay menu used when RunConfig.Menu is
// empty: deliver on time, or hold the message a few cycles — enough to
// reorder it behind later traffic on other channels (per-channel FIFO is
// preserved by the mesh regardless).
func DefaultMenu() []uint64 { return []uint64{0, 3} }

// DefaultMaxChoices is the default recorded-choice bound.
const DefaultMaxChoices = 64

// RunResult is the outcome of one schedule.
type RunResult struct {
	// Outcome is the canonical register outcome (formatOutcome).
	Outcome string
	// Taken, Arity, and Hashes describe the recorded choice points: the
	// answer given, the number of alternatives, and the machine state
	// hash at the moment of the choice — 0 inside the prefix: the hash
	// keys the siblings the explorer queues, and the run that produced
	// the prefix queued those, so a schedule hashes its new suffix only.
	Taken  []int
	Arity  []int
	Hashes []uint64
	// Choices counts every choice point encountered, including those past
	// MaxChoices.
	Choices int
	// Violations lists everything that went wrong: invariant breaches,
	// deadlock, panics. Memory-model conformance is judged by the caller
	// against the SC oracle.
	Violations []string
	// FinalHash fingerprints the quiesced machine, for replay verification.
	FinalHash uint64
}

// recorder implements sim.Chooser for both choice sources. The engine
// consults it between events (where running the invariant auditor is
// safe); the mesh consults it mid-handler through meshFacet, which skips
// the audit.
type recorder struct {
	m      *machine.Machine
	aud    *check.Auditor
	prefix []int
	max    int
	res    *RunResult // Taken, Arity, Hashes and Choices are the recorder's
}

func (r *recorder) Choose(n int) int {
	if r.aud != nil {
		r.aud.Epoch()
	}
	return r.choose(n)
}

func (r *recorder) choose(n int) int {
	idx := r.res.Choices
	r.res.Choices++
	if idx >= r.max {
		return 0
	}
	pick, hash := 0, uint64(0)
	if idx < len(r.prefix) {
		pick = r.prefix[idx]
		if pick < 0 || pick >= n {
			// A minimized or hand-edited schedule may point past this
			// run's arity; clamp and record what actually happened.
			pick = 0
		}
	} else {
		hash = r.m.StateHash()
	}
	r.res.Taken = append(r.res.Taken, pick)
	r.res.Arity = append(r.res.Arity, n)
	r.res.Hashes = append(r.res.Hashes, hash)
	return pick
}

type meshFacet struct{ r *recorder }

func (f meshFacet) Choose(n int) int { return f.r.choose(n) }

// litmusConfig builds the tiny machine the litmus corpus runs on: 2-word
// cache lines so two variables can false-share, one line per page so
// homes interleave per line, an 8-line cache, and single-cycle run-ahead
// so every memory reference meets the global event loop.
func litmusConfig(t *Test, rc RunConfig) config.Config {
	return config.Config{
		Procs:           t.Procs,
		LineSize:        2 * config.WordSize,
		CacheSize:       8 * 2 * config.WordSize,
		PageSize:        2 * config.WordSize,
		MemSetup:        1,
		MemBW:           8,
		BusBW:           8,
		NetBW:           8,
		SwitchLat:       1,
		WireLat:         0,
		NoticeCost:      1,
		DirCostLRC:      2,
		DirCostERC:      1,
		WBEntries:       4,
		CBEntries:       4,
		Quantum:         1,
		LeaseLen:        8,
		TSDeltaBits:     20,
		CheckInvariants: true,
		Mutation:        rc.Mutation,
	}
}

func varAddr(cfg config.Config, v Var) uint64 {
	return uint64(v.Line)*uint64(cfg.LineSize) + uint64(v.Word)*config.WordSize
}

// RunOnce executes t once under prefix (choices past the prefix default
// to 0) and reports what happened.
func RunOnce(t *Test, rc RunConfig, prefix []int) (*RunResult, error) {
	if err := validateTest(t); err != nil {
		return nil, err
	}
	cfg := litmusConfig(t, rc)
	m, err := machine.New(cfg, rc.Proto)
	if err != nil {
		return nil, err
	}
	tracker := NewTracker(cfg.WordsPerLine())
	m.Env.Mem = tracker

	menu := rc.Menu
	if len(menu) == 0 {
		menu = DefaultMenu()
	}
	max := rc.MaxChoices
	if max <= 0 {
		max = DefaultMaxChoices
	}
	// The choice record is sized once, to the recorded-choice bound but no
	// further than the default's: a schedule read from a file may claim
	// any bound, and past this capacity append grows the record as the
	// run actually needs it.
	n := min(max, DefaultMaxChoices)
	picks := make([]int, 2*n)
	res := &RunResult{Taken: picks[:0:n], Arity: picks[n:n], Hashes: make([]uint64, 0, n)}
	rec := &recorder{m: m, prefix: prefix, max: max, res: res}
	aud := check.New(m)
	if rc.Audit {
		rec.aud = aud
	}
	m.Eng.SetChooser(rec)
	if err := m.Net.SetExplorer(meshFacet{rec}, menu); err != nil {
		return nil, err
	}

	maxLine := 0
	for _, v := range t.Vars {
		if v.Line > maxLine {
			maxLine = v.Line
		}
	}
	m.Alloc((maxLine+1)*cfg.LineSize, true)
	locks := make([]*machine.Lock, t.Locks)
	for i := range locks {
		locks[i] = m.NewLock()
	}
	flags := m.NewFlags(t.Flags)

	regs := make([][]uint64, t.Procs)
	done := make([]bool, t.Procs)

	ranToCompletion := func() bool {
		defer func() {
			if r := recover(); r != nil {
				res.Violations = append(res.Violations, fmt.Sprintf("panic: %v", r))
			}
		}()
		m.Run(func(p *machine.Proc) {
			id := p.ID()
			for _, op := range t.Code[id] {
				switch op.Kind {
				case OpRead:
					v := t.Vars[op.Var]
					p.ReadI64(varAddr(cfg, v))
					regs[id] = append(regs[id], tracker.Read(id, uint64(v.Line), v.Word))
				case OpWrite:
					v := t.Vars[op.Var]
					tracker.StageWrite(id, uint64(v.Line), v.Word, op.Val)
					p.WriteI64(varAddr(cfg, v), int64(op.Val))
				case OpAcquire:
					p.Acquire(locks[op.Obj])
				case OpRelease:
					p.Release(locks[op.Obj])
				case OpSetFlag:
					p.SetFlag(flags[op.Obj])
				case OpWaitFlag:
					p.WaitFlag(flags[op.Obj])
				}
			}
			done[id] = true
		})
		return true
	}()

	if ranToCompletion {
		for id, d := range done {
			if !d {
				res.Violations = append(res.Violations,
					fmt.Sprintf("deadlock: processor %d never finished its program", id))
			}
		}
		if len(res.Violations) == 0 {
			aud.Final()
			for _, v := range aud.Violations() {
				res.Violations = append(res.Violations, v.String())
			}
		}
	}

	res.Outcome = formatOutcome(regs)
	res.FinalHash = m.StateHash()
	return res, nil
}
