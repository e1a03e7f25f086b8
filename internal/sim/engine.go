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
// simulated instant, instead of committing to scheduling (heap) order;
// the mesh consults it to pick per-message delivery delays. A model
// checker implements Chooser to explore the space of legal schedules and
// to replay a recorded one; with no chooser attached the engine's
// deterministic seq-order tie-break applies unchanged.
type Chooser interface {
	Choose(n int) int
}

type event struct {
	at  Time
	seq uint64
	fn  func()
	ctx uint64 // causal context captured at scheduling time (0 with no tracer)
	bg  bool   // background events do not keep the simulation alive
}

// before is the queue's total order: time, then scheduling order.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// heapArity is the fan-out of the event queue. Four children per node
// halve the depth of a binary heap, so a push (one comparison per level)
// gets cheaper, while the children a pop compares per level sit in
// adjacent cache lines. On BenchmarkEventHeapPushPop arities 3 and 4 are
// level and ahead of 2 and 8 at standing populations of 1 024 and 16 384
// (nothing separates them at 64); 4 keeps the index arithmetic to shifts.
const heapArity = 4

// eventHeap is a d-ary min-heap on (at, seq) stored flat in a slice: the
// children of slot i are slots i*heapArity+1 .. i*heapArity+heapArity.
// (at, seq) is a total order, so the pop sequence is a function of the
// pushed set alone, not of the heap's shape.
type eventHeap []event

func (h eventHeap) peek() event   { return h[0] }
func (h eventHeap) emptied() bool { return len(h) == 0 }

// pushEv inserts e, moving a hole up from the new leaf until e's parent
// is not after it.
func (h *eventHeap) pushEv(e event) {
	q := append(*h, event{})
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

// popMin removes and returns the minimum, moving a hole down from the
// root until the former last element fits. The vacated last slot is
// zeroed so the backing array does not keep a popped callback reachable.
func (h *eventHeap) popMin() event {
	q := *h
	n := len(q) - 1
	min, last := q[0], q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	if n == 0 {
		return min
	}
	i := 0
	for {
		c := i*heapArity + 1
		if c >= n {
			break
		}
		end := c + heapArity
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
	return min
}

// Engine is a deterministic discrete-event simulator.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap

	contexts []*Context
	nparked  int // contexts currently parked

	nEvents uint64 // total events executed, for diagnostics
	nbg     int    // background events currently in the queue
	stopped bool   // set by Stop; Run returns early

	chooser Chooser // nil: deterministic seq-order tie-break
	tied    []event // scratch for same-instant choice enumeration

	tracer TaskTracer // nil: no causal-context propagation

	prof *perf.Profiler // nil: no wall-clock phase accounting
}

// TaskTracer threads a causal context (a transaction id) through event
// chains. When one is attached, every event scheduled via At/After/
// Background carries the context current at scheduling time and its
// callback runs with it restored — so a home-side continuation, and any
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
// profiler: step picks the events it times, instrumented subsystems narrow
// the attribution inside them. Purely observational — the simulated
// schedule is unchanged.
func (e *Engine) SetProfiler(p *perf.Profiler) { e.prof = p }

// NewEngine returns an engine at time zero with an empty event queue.
func NewEngine() *Engine {
	return &Engine{
		// Room for a 4-processor machine's standing population: the model
		// checker builds one engine per schedule, and a 64-processor run
		// doubles its way to a few thousand slots within its first cycles.
		events: make(eventHeap, 0, 64),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events executed so far.
func (e *Engine) Events() uint64 { return e.nEvents }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.push(t, fn, false)
}

// push stamps an event with the next sequence number and the causal
// context current now, and queues it.
func (e *Engine) push(t Time, fn func(), bg bool) {
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn, bg: bg}
	if e.tracer != nil {
		ev.ctx = e.tracer.Capture()
	}
	if e.prof == nil {
		e.events.pushEv(ev)
		return
	}
	prev := e.prof.Enter(perf.PhaseQueue)
	e.events.pushEv(ev)
	e.prof.Exit(prev)
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d uint64, fn func()) { e.At(e.now+d, fn) }

// Background schedules fn at absolute time t as a background event.
// Background events — watchdog probes, invariant-checker epochs — do not
// keep the simulation alive: Run returns (and discards them) once only
// background events remain, so a periodic observer may reschedule itself
// unconditionally without preventing termination.
func (e *Engine) Background(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling background event at %d before now %d", t, e.now))
	}
	e.nbg++
	e.push(t, fn, true)
}

// Every runs fn as a background event every interval cycles from now on,
// first at now+interval — the one periodic primitive the observers
// (telemetry tick, audit epochs, watchdog, cancellation poll, progress
// line) share. Like any background event it never keeps the simulation
// alive; once the engine is stopped it is not rescheduled.
func (e *Engine) Every(interval uint64, fn func()) {
	if interval == 0 {
		panic("sim: periodic interval must be positive")
	}
	var tick func()
	tick = func() {
		fn()
		if !e.stopped {
			e.Background(e.now+interval, tick)
		}
	}
	e.Background(e.now+interval, tick)
}

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return len(e.events) }

// SetChooser attaches (or, with nil, detaches) a scheduling chooser.
// With a chooser attached, whenever two or more events are enabled at
// the same simulated instant the engine enumerates them (in scheduling
// order) and lets the chooser pick which fires next, rather than
// committing to seq order. Attach before Run; the schedule is a pure
// function of the chooser's answers, so replaying the same answers
// reproduces the run exactly.
func (e *Engine) SetChooser(c Chooser) { e.chooser = c }

// popNext removes and returns the next event to execute. With no chooser
// (or a single enabled event) this is the deterministic heap minimum;
// with a chooser and several events tied at the minimum timestamp, the
// tied set is enumerated as a choice point.
func (e *Engine) popNext() event {
	ev := e.events.popMin()
	if e.chooser == nil || e.events.emptied() || e.events.peek().at != ev.at {
		return ev
	}
	e.tied = append(e.tied[:0], ev)
	for !e.events.emptied() && e.events.peek().at == ev.at {
		e.tied = append(e.tied, e.events.popMin())
	}
	pick := e.chooser.Choose(len(e.tied))
	if pick < 0 || pick >= len(e.tied) {
		panic(fmt.Sprintf("sim: chooser picked %d of %d alternatives", pick, len(e.tied)))
	}
	chosen := e.tied[pick]
	for i, t := range e.tied {
		if i != pick {
			e.events.pushEv(t) // seq is preserved: unchosen events keep their order
		}
	}
	clear(e.tied) // the scratch must not keep callbacks that have run reachable
	return chosen
}

// Stop makes Run return before the next event, without treating still-
// parked contexts as a deadlock. A watchdog's stall handler calls it to
// abort a wedged simulation after dumping its report. Stopping is final:
// Run releases the unfinished contexts on its way out.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

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
	for !e.stopped && !e.events.emptied() && e.nbg < len(e.events) {
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
	for !e.events.emptied() && e.events.peek().at <= t {
		if e.stopped {
			return
		}
		e.step()
	}
	if e.now < t {
		e.now = t
	}
}

// step takes the next event off the queue, advances the clock to it and
// runs it. With a profiler attached, every perf.Stride-th event is timed
// from before it leaves the queue to after its callback, as a sample of
// all of them; background events — the telemetry tick, watchdog and
// cancellation polls — are too few and too heavy to sample, so each one
// is timed, from the moment the pop shows what it is.
func (e *Engine) step() {
	timed := e.prof != nil && e.nEvents%perf.Stride == 0
	if timed {
		e.prof.Start(perf.PhaseQueue)
	}
	ev := e.popNext()
	ph := perf.PhaseDispatch
	if ev.bg {
		e.nbg--
		ph, timed = perf.PhaseBackground, e.prof != nil
	}
	if timed {
		e.prof.Start(ph)
	}
	e.now = ev.at
	e.nEvents++
	e.call(ev)
	if timed {
		e.prof.Stop()
	}
}

// call runs the event's callback, under the causal context the event
// carries when a tracer is attached.
func (e *Engine) call(ev event) {
	if e.tracer == nil {
		ev.fn()
		return
	}
	prev := e.tracer.Restore(ev.ctx)
	ev.fn()
	e.tracer.Restore(prev)
}

// release ends every context whose body has not returned — blocked in
// Sleep or Park, or never started — and frees its stack.
func (e *Engine) release() {
	for _, c := range e.contexts {
		if !c.done {
			c.done = true
			c.stop()
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
