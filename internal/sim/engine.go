// Package sim provides a deterministic discrete-event simulation engine
// with coroutine-style processor contexts and FIFO occupancy resources.
//
// The engine and all event handlers run on the goroutine that calls Run;
// processor contexts are coroutines (iter.Pull) that the engine switches
// into one at a time and that switch back whenever they block on
// simulated time, so a whole simulation is one thread of control: no
// channel, lock or scheduler wake-up sits between an event and the
// context it resumes, a panic anywhere surfaces from Run, and no context
// outlives Run (see Context). Events with equal timestamps fire in
// scheduling order (a monotonically increasing sequence number breaks
// ties), so a given program produces an identical cycle-accurate schedule
// on every run.
package sim

import (
	"fmt"
	"sort"

	"lazyrc/internal/perf"
)

// Time is simulated time in processor cycles.
type Time = uint64

// Chooser resolves scheduling nondeterminism at an enumerated choice
// point with n >= 2 alternatives, returning an index in [0, n). The
// engine consults it whenever several events are enabled at the same
// simulated instant, instead of committing to scheduling (seq) order;
// the mesh consults it to pick per-message delivery delays. A model
// checker implements Chooser to explore the space of legal schedules and
// to replay a recorded one; with no chooser attached the engine's
// deterministic seq-order tie-break applies unchanged.
type Chooser interface {
	Choose(n int) int
}

// Kind says what an event does when it fires. Kind 0 is the escape hatch,
// an arbitrary func(); any other names a handler its owner registered
// once and carries a 32-bit argument for it — typically a Slab handle — so
// that scheduling the event allocates nothing. Two are the engine's own:
// resuming contexts[arg], and the tick of tickers[arg].
type Kind uint8

const (
	kindFunc Kind = iota
	kindResume
	kindTick
	builtinKinds
)

// kindInfo is a kind's handler and the phase a timed event of it starts in.
type kindInfo struct {
	fn    func(arg uint32)
	phase perf.Phase
}

type event struct {
	at   Time
	seq  uint64
	fn   func() // kindFunc only
	ctx  uint64 // causal context captured at scheduling time (0 with no tracer)
	arg  uint32
	kind Kind
}

// before is the queue's total order: time, then scheduling order.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// ticker is one Every registration.
type ticker struct {
	interval uint64
	fn       func()
}

// Engine is a deterministic discrete-event simulator.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now Time
	seq uint64
	q   eventQueue

	// An array (a new engine is one allocation): the built-in kinds, the
	// mesh's delivery, the protocol's continuation, and room for three.
	kinds  [8]kindInfo
	nkinds Kind

	contexts []*Context
	nparked  int // contexts currently parked
	tickers  []ticker

	nEvents uint64 // total events executed, for diagnostics
	nbg     int    // background events (ticks) currently in the queue
	stopped bool   // set by Stop; Run returns early
	retain  bool   // set by Reset: a finished context's coroutine idles for the next Spawn

	chooser Chooser // nil: deterministic seq-order tie-break

	tracer TaskTracer // nil: no causal-context propagation

	prof *perf.Profiler // nil: no wall-clock phase accounting
}

// TaskTracer threads a causal context (a transaction id) through event
// chains. When one is attached, every event, of whatever kind, carries
// the context current at scheduling time and its handler runs with it
// restored — so a home-side continuation, and any
// message it sends, inherit the transaction identity of the request that
// scheduled it without the protocol code threading ids by hand. The
// previous context is put back afterwards, which keeps nesting correct
// when an event hands control to a coroutine. The tracer is
// purely observational: it must not schedule events or touch simulated
// state, so attaching one leaves the cycle-accurate schedule unchanged.
type TaskTracer interface {
	// Capture returns the context current at scheduling time.
	Capture() uint64
	// Restore installs ctx and returns the previously current context.
	Restore(ctx uint64) uint64
}

// SetTaskTracer attaches (or, with nil, detaches) a causal-context
// tracer. Attach before Run.
func (e *Engine) SetTaskTracer(t TaskTracer) { e.tracer = t }

// SetProfiler attaches (or, with nil, detaches) a wall-clock phase
// profiler: step picks the events it times and charges each to its kind's
// phase. Purely observational — the simulated schedule is unchanged.
func (e *Engine) SetProfiler(p *perf.Profiler) { e.prof = p }

// NewEngine returns an engine at time zero with an empty event queue: one
// allocation, whose node slab and far heap grow on demand — a litmus
// machine queues a dozen events; a 64-processor cell's 64–255 are a few
// doublings away.
func NewEngine() *Engine {
	e := &Engine{nkinds: builtinKinds}
	e.kinds[kindResume].phase = perf.PhaseFrontend
	e.kinds[kindTick].phase = perf.PhaseBackground
	return e
}

// Reset rewinds the engine to what NewEngine returns — time, sequence
// number and event count zero, no event queued, no context, no ticker,
// not stopped — keeping its wiring: the registered kinds and the attached
// chooser, tracer and profiler. The model checker rewinds one engine per
// worker between schedules; the queue's storage and the contexts, which
// Spawn takes again, are kept, and from here on so are their coroutines,
// until Close. Not during Run.
func (e *Engine) Reset() {
	e.retain = true
	e.now, e.seq, e.nEvents, e.nbg, e.stopped = 0, 0, 0, 0, false
	e.q.reset()
	e.release() // a no-op after Run, which releases its contexts itself
	e.contexts = e.contexts[:0]
	e.nparked = 0
	clear(e.tickers)
	e.tickers = e.tickers[:0]
}

// Register adds an event kind, once, when its owner is wired to the engine:
// an event posted with it calls handler(arg), a timed one starts in phase.
func (e *Engine) Register(phase perf.Phase, handler func(arg uint32)) Kind {
	e.kinds[e.nkinds] = kindInfo{handler, phase} // a full table is a wiring bug: let it panic
	e.nkinds++
	return e.nkinds - 1
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events executed so far.
func (e *Engine) Events() uint64 { return e.nEvents }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) {
	e.push(event{at: t, fn: fn})
}

// Post schedules an event of a registered kind at absolute time t; the
// kind's handler receives arg. Like At, it panics on a time in the past.
func (e *Engine) Post(t Time, k Kind, arg uint32) {
	e.push(event{at: t, kind: k, arg: arg})
}

// push stamps an event with the next sequence number and the causal
// context current now, and queues it.
func (e *Engine) push(ev event) {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", ev.at, e.now))
	}
	e.seq++
	ev.seq = e.seq
	if e.tracer != nil {
		ev.ctx = e.tracer.Capture()
	}
	if ev.kind == kindTick {
		e.nbg++
	}
	e.q.push(&ev)
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d uint64, fn func()) { e.At(e.now+d, fn) }

// Every runs fn as a background event every interval cycles from now on,
// first at now+interval — the one periodic primitive the observers
// (telemetry tick, audit epochs, watchdog, cancellation poll, progress
// line) share. Ticks are the background events: they do not keep the
// simulation alive — Run returns (and discards them) once only they
// remain — and once the engine is stopped they are not rescheduled.
func (e *Engine) Every(interval uint64, fn func()) {
	if interval == 0 {
		panic("sim: periodic interval must be positive")
	}
	e.tickers = append(e.tickers, ticker{interval, fn})
	e.push(event{at: e.now + interval, kind: kindTick, arg: uint32(len(e.tickers) - 1)})
}

// tick fires the i-th Every registration and schedules its next firing.
func (e *Engine) tick(i uint32) {
	t := e.tickers[i] // a copy: fn may call Every and move the table
	t.fn()
	if !e.stopped {
		e.push(event{at: e.now + t.interval, kind: kindTick, arg: i})
	}
}

// SetChooser attaches (or, with nil, detaches) a scheduling chooser. With
// one attached, whenever two or more events are queued at the earliest
// instant the engine offers them, in scheduling order, as a choice point
// and fires the one picked; the others keep their order. Attach before
// Run; the schedule is a pure function of the chooser's answers, so
// replaying the same answers reproduces the run exactly.
func (e *Engine) SetChooser(c Chooser) { e.chooser = c }

// Stop makes Run return before the next event, without treating still-
// parked contexts as a deadlock. A watchdog's stall handler calls it to
// abort a wedged simulation after dumping its report. Stopping is final:
// Run releases the unfinished contexts on its way out.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains and every context has
// finished. If the queue drains while contexts are still parked, the
// simulation is deadlocked and Run panics with a per-context report.
//
// However Run ends — normally, by Stop, with the deadlock panic, or with
// a panic raised by a handler or a context body — it first releases every
// context whose body has not returned, so an abandoned run leaves no
// stack, and nothing those stacks reference, behind.
func (e *Engine) Run() {
	defer e.release()
	for !e.stopped && e.nbg < e.q.len() {
		e.step()
	}
	if e.stopped {
		return
	}
	if e.nparked > 0 {
		panic(e.deadlockReport())
	}
	for _, c := range e.contexts {
		if !c.done {
			panic(fmt.Sprintf("sim: context %q neither finished nor parked at end of run", c.name))
		}
	}
}

// RunUntil executes events with timestamps <= t, then stops.
// It does not treat remaining parked contexts as a deadlock, and leaves
// them blocked for a later RunUntil or Run to resume.
func (e *Engine) RunUntil(t Time) {
	for e.q.len() > 0 && e.q.minAt() <= t {
		if e.stopped {
			return
		}
		e.step()
	}
	e.now = max(e.now, t)
}

// step takes the next event off the queue, advances the clock to it and
// runs it. With a profiler attached, every perf.Stride-th event is timed
// from before it leaves the queue to after its handler, as a sample of
// all of them: the pop in the queue phase, the rest in its kind's phase
// (dispatch for a plain func(), whatever it pushes included); ticks —
// telemetry, watchdog and cancellation polls — are too few and too heavy
// to sample, so each one is timed, from the moment the pop shows it.
func (e *Engine) step() {
	timed := e.prof != nil && e.nEvents%perf.Stride == 0
	if timed {
		e.prof.Start(perf.PhaseQueue)
	}
	pick := 0
	if e.chooser != nil {
		if n := e.q.tied(); n > 1 {
			if pick = e.chooser.Choose(n); pick < 0 || pick >= n {
				panic(fmt.Sprintf("sim: chooser picked %d of %d alternatives", pick, n))
			}
		}
	}
	var ev event
	e.q.take(pick, &ev) // the (at, seq) minimum, with no chooser
	if ev.kind == kindTick {
		e.nbg--
		timed = e.prof != nil
	}
	if timed {
		e.prof.Start(e.kinds[ev.kind].phase)
	}
	e.now = ev.at
	e.nEvents++
	if e.tracer == nil {
		e.call(&ev)
	} else {
		// The handler runs under the causal context the event carries.
		prev := e.tracer.Restore(ev.ctx)
		e.call(&ev)
		e.tracer.Restore(prev)
	}
	if timed {
		e.prof.Stop()
	}
}

// call dispatches the event on its kind.
func (e *Engine) call(ev *event) {
	switch ev.kind {
	case kindFunc:
		ev.fn()
	case kindResume:
		e.contexts[ev.arg].transfer()
	case kindTick:
		e.tick(ev.arg)
	default:
		e.kinds[ev.kind].fn(ev.arg)
	}
}

// release ends every context whose body has not returned — blocked in
// Sleep or Park, or never started — by resuming it done: block unwinds a
// started body, and an unstarted one is skipped.
func (e *Engine) release() {
	for _, c := range e.contexts {
		if !c.done {
			c.done = true
			c.next()
		}
	}
}

// Close ends the coroutines a rewound engine keeps, freeing their stacks;
// until the next Reset, a context's coroutine ends with its body again.
// Not during Run.
func (e *Engine) Close() {
	e.retain = false
	for _, c := range e.contexts[:cap(e.contexts)] {
		if c != nil && c.next != nil {
			c.done = true
			c.next()
		}
	}
}

func (e *Engine) deadlockReport() string {
	var rows []*Context
	for _, c := range e.contexts {
		if c.parked {
			rows = append(rows, c)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	s := fmt.Sprintf("sim: deadlock at time %d: %d context(s) parked with no pending events:", e.now, len(rows))
	for _, c := range rows {
		s += fmt.Sprintf("\n  %s: waiting for %s", c.name, c.why)
	}
	return s
}
