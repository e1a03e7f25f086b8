//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Context is a simulated processor context: a coroutine whose body runs
// on a stack of its own, strictly interleaved with the engine. At any
// instant either the engine (and its event handlers) or exactly one
// context is executing, and control changes hands by a direct runtime
// coroutine switch (iter.Pull) — no channel, no scheduler run queue, no
// second OS thread.
//
// A context interacts with simulated time through Sleep and Park/Wake.
// Park must only be called after the caller has arranged — directly or
// through an event handler — for Wake to be invoked later; the engine
// detects the alternative (all events drained, contexts still parked) and
// panics with a deadlock report.
//
// Two contracts follow from the coroutine form. A panic raised by a body
// (or by anything it calls) surfaces, with its original value, from the
// event that resumed the context, and so from Engine.Run to Run's caller,
// where it can be recovered like a handler's. And a body never outlives
// its run: when Run returns or panics with a body unfinished (Stop, a
// deadlock, a panic elsewhere), the body is unwound — its deferred calls
// run, nothing after the Sleep or Park it was blocked in does — and its
// stack is freed.
type Context struct {
	eng    *Engine
	id     uint32 // index in eng.contexts: the argument of a resume event
	name   string
	done   bool
	parked bool
	why    string // what the context is parked on; meaningful while parked

	// The coroutine, as iter.Pull hands it out: next runs the body until
	// it blocks or returns, yield blocks it (false once stop has been
	// called), stop ends it wherever it is.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	// progress counts resumptions; the watchdog reads it to tell a
	// context that is advancing from one that is wedged.
	progress uint64
}

// released is the panic value that unwinds a body whose coroutine was
// stopped while blocked; it never leaves the coroutine.
type released struct{}

// Spawn creates a context executing fn, scheduled to start at the current
// simulated time. The name appears in deadlock reports.
func (e *Engine) Spawn(name string, fn func(*Context)) *Context {
	c := &Context{eng: e, id: uint32(len(e.contexts)), name: name}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer c.finish()
		fn(c)
	})
	e.contexts = append(e.contexts, c)
	e.Post(e.now, kindResume, c.id)
	return c
}

// finish runs deferred under the body: it marks the context done however
// the body ended, swallows the release unwind, and lets any other panic
// continue into iter.Pull, which re-raises it in the engine.
func (c *Context) finish() {
	c.done = true
	if p := recover(); p != nil && p != (released{}) {
		panic(p)
	}
}

// Name returns the context's diagnostic name.
func (c *Context) Name() string { return c.name }

// Engine returns the engine this context belongs to.
func (c *Context) Engine() *Engine { return c.eng }

// Now returns the current simulated time. Valid only while the context is
// running.
func (c *Context) Now() Time { return c.eng.now }

// transfer switches from the engine to the context and returns when the
// context blocks or finishes; a panic in the body re-panics here. It is
// what a resume event does, so the time until it returns is the
// profiler's frontend phase.
func (c *Context) transfer() {
	if c.done {
		panic(fmt.Sprintf("sim: resuming finished context %q", c.name))
	}
	c.progress++
	c.next()
}

// block switches back to the engine and returns when the context is next
// resumed. It must run on the context's side. If the context is released
// instead, block unwinds the body.
func (c *Context) block() {
	if !c.yield(struct{}{}) {
		panic(released{})
	}
}

// Sleep advances the context by d cycles of simulated time, letting other
// activity proceed in between.
func (c *Context) Sleep(d uint64) {
	c.eng.Post(c.eng.now+d, kindResume, c.id)
	c.block()
}

// Park suspends the context until some event handler calls Wake. The why
// string describes what is being waited for; it appears in deadlock
// reports. Park returns the time spent parked.
func (c *Context) Park(why string) uint64 {
	start := c.eng.now
	c.parked = true
	c.why = why
	c.eng.nparked++
	c.block()
	return c.eng.now - start
}

// Wake schedules the parked context to resume at the current simulated
// time. It must be called from an event handler (the engine's side), never
// from another context's body, and panics if the context is not parked.
func (c *Context) Wake() { c.WakeAt(c.eng.now) }

// WakeAt schedules the parked context to resume at absolute time t >= now.
func (c *Context) WakeAt(t Time) {
	if !c.parked {
		panic(fmt.Sprintf("sim: waking context %q which is not parked", c.name))
	}
	c.parked = false
	c.eng.nparked--
	c.eng.Post(t, kindResume, c.id)
}

// Parked reports whether the context is currently parked.
func (c *Context) Parked() bool { return c.parked }

// Progress returns the context's resumption count — the watchdog's
// forward-progress measure.
func (c *Context) Progress() uint64 { return c.progress }

// Done reports whether the context body has returned or been released.
func (c *Context) Done() bool { return c.done }
