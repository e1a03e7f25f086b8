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
// run, nothing after the Sleep or Park it was blocked in does. The
// coroutine then ends, freeing its stack, unless the engine has been
// rewound (Reset): there it idles until Spawn gives it the next body or
// Close ends it, so a rewound run builds no coroutine.
type Context struct {
	eng    *Engine
	id     uint32 // index in eng.contexts: the argument of a resume event
	done   bool
	parked bool
	name   string
	why    string // what the context is parked on; meaningful while parked

	// The coroutine, as iter.Pull hands it out: next runs the body until
	// it blocks or returns (nil once the coroutine has ended), yield
	// blocks it. Resumed done, it unwinds the body, so no stop is kept.
	// fn is the body Spawn was given; run, bound once, is the coroutine
	// that runs it.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	fn    func(*Context)
	run   func(yield func(struct{}) bool)

	// progress counts resumptions; the watchdog reads it to tell a
	// context that is advancing from one that is wedged.
	progress uint64
}

// released is the panic value that unwinds a body released while
// blocked; it never leaves the coroutine.
type released struct{}

// Spawn creates a context executing fn, scheduled to start at the current
// simulated time. The name appears in deadlock reports. A context a Reset
// retired is taken again, in spawn order, rather than a new one made, and
// so is its coroutine if it is idle.
func (e *Engine) Spawn(name string, fn func(*Context)) *Context {
	n := len(e.contexts)
	if n == cap(e.contexts) || e.contexts[:n+1][n] == nil {
		c := &Context{eng: e, id: uint32(n)}
		c.run = c.body
		e.contexts = append(e.contexts, c)
	}
	e.contexts = e.contexts[:n+1]
	c := e.contexts[n]
	c.name, c.fn, c.done, c.parked, c.progress = name, fn, false, false, 0
	if c.next == nil {
		c.next, _ = iter.Pull(c.run)
	}
	e.Post(e.now, kindResume, c.id)
	return c
}

// body is the coroutine: it runs each body it is given, unless released
// before it started, marked done however it ends. On an engine that is
// not rewound it then ends; on a rewound one it idles for the next.
func (c *Context) body(yield func(struct{}) bool) {
	c.yield = yield
	for again := true; again; again = c.eng.retain && yield(struct{}{}) {
		if !c.done {
			c.call()
		}
	}
	c.next = nil
}

// call runs fn. Its deferred half marks the context done however fn
// ended, swallows the release unwind, and lets any other panic end the
// coroutine, which iter.Pull re-raises in the engine.
func (c *Context) call() {
	defer func() {
		c.done = true
		if p := recover(); p != nil && p != (released{}) {
			c.next = nil
			panic(p)
		}
	}()
	c.fn(c)
}

// Name returns the context's diagnostic name.
func (c *Context) Name() string { return c.name }

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
// instead — resumed done — block unwinds the body.
func (c *Context) block() {
	if c.yield(struct{}{}); c.done {
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
