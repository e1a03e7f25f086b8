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
	// Proto is the protocol name: "sc", "erc", "lrc", "lrc-ext" or
	// "tardis".
	Proto string
	// Menu is the set of per-message delivery delays (cycles) the
	// explorer may choose among. Empty means DefaultMenu.
	Menu []uint64
	// MaxChoices bounds recorded choice points; beyond it every choice
	// defaults to 0 (first tied event, first menu delay).
	MaxChoices int
	// Mutation names a deliberate protocol bug to inject (config.Mutations).
	Mutation string
}

// DefaultMenu is the delivery-delay menu used when RunConfig.Menu is
// empty: deliver on time, or hold the message a few cycles — enough to
// reorder it behind later traffic on other channels (per-channel FIFO is
// preserved by the mesh regardless).
func DefaultMenu() []uint64 { return []uint64{0, 3} }

// DefaultMaxChoices is the default recorded-choice bound.
const DefaultMaxChoices = 64

// withDefaults is rc with an empty menu and bound replaced by the defaults.
func (rc RunConfig) withDefaults() RunConfig {
	if len(rc.Menu) == 0 {
		rc.Menu = DefaultMenu()
	}
	if rc.MaxChoices <= 0 {
		rc.MaxChoices = DefaultMaxChoices
	}
	return rc
}

// RunResult is the outcome of one schedule.
type RunResult struct {
	// Outcome is the canonical register outcome (appendOutcome).
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
// consults it between events, where it runs the invariant auditor; the
// mesh consults it mid-handler through meshFacet, which skips the audit.
// The auditor also runs at quiescence.
type recorder struct {
	m      *machine.Machine
	aud    *check.Auditor
	prefix []int
	max    int
	res    *RunResult // Taken, Arity, Hashes and Choices are the recorder's
}

func (r *recorder) Choose(n int) int {
	r.m.Env.EndEvent()
	r.aud.Epoch()
	return r.choose(n)
}

func (r *recorder) choose(n int) int {
	if testHookChoice != nil {
		testHookChoice(r.m)
	}
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

// testHookChoice, set by tests, sees the machine at every choice point.
var testHookChoice func(*machine.Machine)

type meshFacet struct{ r *recorder }

func (f meshFacet) Choose(n int) int { return f.r.choose(n) }

// lineWords is the words per cache line of the litmus machine.
const lineWords = 2

// litmusConfig builds the tiny machine the litmus corpus runs on: 2-word
// cache lines so two variables can false-share, one line per page so
// homes interleave per line, an 8-line cache, single-cycle run-ahead so
// every memory reference meets the global event loop, and a value store
// so each load returns what the protocol delivered.
func litmusConfig(t *Test, rc RunConfig) config.Config {
	return config.Config{
		Procs:           t.Procs,
		LineSize:        lineWords * config.WordSize,
		CacheSize:       8 * lineWords * config.WordSize,
		PageSize:        lineWords * config.WordSize,
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
		CheckInvariants: true,
		TrackValues:     true,
		Mutation:        rc.Mutation,
	}
}

func varAddr(cfg config.Config, v Var) uint64 {
	return uint64(v.Line)*uint64(cfg.LineSize) + uint64(v.Word)*config.WordSize
}

// RunOnce executes t once under prefix (choices past the prefix default
// to 0) and reports what happened.
func RunOnce(t *Test, rc RunConfig, prefix []int) (*RunResult, error) {
	w, err := newWorker(t, rc)
	if err != nil {
		return nil, err
	}
	defer w.m.Close()
	return w.run(prefix, nil), nil
}

// A worker runs t under one configuration on one litmus machine, with its
// value store and auditor, rewinding the lot between schedules instead of
// building another (Machine.Reset). The explorer's committer and each
// frontier helper own one for an Explore call, and close its machine when
// it ends; RunOnce is a worker used once, closed on return. Each run's
// RunResult is its own until the committer hands it back: the committer
// may hold it while the worker runs the next.
type worker struct {
	t     *Test
	cfg   config.Config
	m     *machine.Machine
	aud   *check.Auditor
	rec   recorder
	span  int             // bytes of shared memory the test's lines take
	locks []*machine.Lock // built once, with flags: a rewound machine numbers sync objects anew
	flags []machine.Flag
	regs  [][]uint64
	done  []bool
	body  func(*machine.Proc) // w.program, bound once
	out   []byte              // the outcome being rendered
	seen  map[string]string   // every outcome rendered so far, interned
}

func newWorker(t *Test, rc RunConfig) (*worker, error) {
	if err := validateTest(t); err != nil {
		return nil, err
	}
	cfg := litmusConfig(t, rc)
	m, err := machine.New(cfg, rc.Proto)
	if err != nil {
		return nil, err
	}
	w := &worker{
		t: t, cfg: cfg, m: m, aud: check.New(m), locks: make([]*machine.Lock, t.Locks),
		regs: make([][]uint64, t.Procs), done: make([]bool, t.Procs), seen: map[string]string{},
	}
	for i := range w.locks {
		w.locks[i] = m.NewLock()
	}
	w.flags = m.NewFlags(t.Flags)

	d := rc.withDefaults() // not rc itself: rc escapes with the config, and its menu would too
	w.rec = recorder{m: m, aud: w.aud, max: d.MaxChoices}
	m.Eng.SetChooser(&w.rec)
	if err := m.Net.SetExplorer(meshFacet{&w.rec}, d.Menu); err != nil {
		return nil, err
	}

	maxLine := 0
	for _, v := range t.Vars {
		maxLine = max(maxLine, v.Line)
	}
	w.span = (maxLine + 1) * cfg.LineSize
	w.body = w.program
	return w, nil
}

// run executes the test once under prefix on a machine as New built it,
// recording it in res, a result whose reader handed it back, or in a new
// record if res is nil.
func (w *worker) run(prefix []int, res *RunResult) *RunResult {
	m := w.m
	m.Reset() // a no-op on a new machine but for keeping its coroutines
	w.aud.Reset()

	if res == nil {
		// A new record is sized to the recorded-choice bound but no further
		// than the default's: a schedule read from a file may claim any
		// bound, and past this capacity append grows the record as the run
		// actually needs it.
		n := min(w.rec.max, DefaultMaxChoices)
		picks := make([]int, 2*n)
		res = &RunResult{Taken: picks[:0:n], Arity: picks[n:n], Hashes: make([]uint64, 0, n)}
	}
	*res = RunResult{Taken: res.Taken[:0], Arity: res.Arity[:0], Hashes: res.Hashes[:0], Violations: res.Violations[:0]}
	w.rec.prefix, w.rec.res = prefix, res

	m.Alloc(w.span, true)
	for i := range w.regs {
		w.regs[i] = w.regs[i][:0]
	}
	clear(w.done)

	if w.execute(res) {
		for id, d := range w.done {
			if !d {
				res.Violations = append(res.Violations,
					fmt.Sprintf("deadlock: processor %d never finished its program", id))
			}
		}
		if len(res.Violations) == 0 {
			w.aud.Final()
			for _, v := range w.aud.Violations() {
				res.Violations = append(res.Violations, v.String())
			}
		}
	}

	w.out = appendOutcome(w.out[:0], w.regs)
	if res.Outcome = w.seen[string(w.out)]; res.Outcome == "" {
		res.Outcome = string(w.out)
		w.seen[res.Outcome] = res.Outcome
	}
	res.FinalHash = m.StateHash()
	return res
}

// execute runs the program on every processor and reports whether Run
// returned; a panic out of it is recorded as res's violation.
func (w *worker) execute(res *RunResult) (returned bool) {
	defer func() {
		if r := recover(); r != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("panic: %v", r))
		}
	}()
	w.m.Run(w.body)
	return true
}

// program is every processor's body: its code, each read's value in its
// next register.
func (w *worker) program(p *machine.Proc) {
	t, id := w.t, p.ID()
	for _, op := range t.Code[id] {
		switch op.Kind {
		case OpRead:
			w.regs[id] = append(w.regs[id], uint64(p.ReadI64(varAddr(w.cfg, t.Vars[op.Var]))))
		case OpWrite:
			p.WriteI64(varAddr(w.cfg, t.Vars[op.Var]), int64(op.Val))
		case OpAcquire:
			p.Acquire(w.locks[op.Obj])
		case OpRelease:
			p.Release(w.locks[op.Obj])
		case OpSetFlag:
			p.SetFlag(w.flags[op.Obj])
		case OpWaitFlag:
			p.WaitFlag(w.flags[op.Obj])
		}
	}
	w.done[id] = true
}
