package sim

import "fmt"

// Context is a coroutine-style simulated processor context. Its body runs
// on its own goroutine but is strictly interleaved with the engine: at any
// instant either the engine (and its event handlers) or exactly one
// context is executing.
//
// A context interacts with simulated time through Sleep and Park/Wake.
// Park must only be called after the caller has arranged — directly or
// through an event handler — for Wake to be invoked later; the engine
// detects the alternative (all events drained, contexts still parked) and
// panics with a deadlock report.
type Context struct {
	eng    *Engine
	name   string
	resume chan struct{}
	done   bool
	parked bool
	why    string // what the context is parked on; meaningful while parked

	// run is transfer as a func value, built once so that scheduling a
	// resumption allocates nothing.
	run func()

	// progress counts resumptions; the watchdog reads it to tell a
	// context that is advancing from one that is wedged.
	progress uint64
}

// Spawn creates a context executing fn, scheduled to start at the current
// simulated time. The name appears in deadlock reports.
func (e *Engine) Spawn(name string, fn func(*Context)) *Context {
	c := &Context{eng: e, name: name, resume: make(chan struct{})}
	c.run = c.transfer
	e.contexts = append(e.contexts, c)
	go func() {
		<-c.resume // wait for first transfer
		fn(c)
		c.done = true
		e.yield <- struct{}{}
	}()
	e.At(e.now, c.run)
	return c
}

// Name returns the context's diagnostic name.
func (c *Context) Name() string { return c.name }

// Engine returns the engine this context belongs to.
func (c *Context) Engine() *Engine { return c.eng }

// Now returns the current simulated time. Valid only while the context is
// running.
func (c *Context) Now() Time { return c.eng.now }

// transfer hands control from the engine goroutine to the context and
// blocks until the context yields back. It must run on the engine
// goroutine (i.e., from an event handler).
func (c *Context) transfer() {
	if c.done {
		panic(fmt.Sprintf("sim: resuming finished context %q", c.name))
	}
	c.progress++
	c.resume <- struct{}{}
	<-c.eng.yield
}

// block yields control to the engine and waits to be resumed. It must run
// on the context's goroutine.
func (c *Context) block() {
	c.eng.yield <- struct{}{}
	<-c.resume
}

// Sleep advances the context by d cycles of simulated time, letting other
// activity proceed in between.
func (c *Context) Sleep(d uint64) {
	c.eng.After(d, c.run)
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
// time. It must be called from an event handler (engine goroutine), never
// from another context's body, and panics if the context is not parked.
func (c *Context) Wake() { c.WakeAt(c.eng.now) }

// WakeAt schedules the parked context to resume at absolute time t >= now.
func (c *Context) WakeAt(t Time) {
	if !c.parked {
		panic(fmt.Sprintf("sim: waking context %q which is not parked", c.name))
	}
	c.parked = false
	c.eng.nparked--
	c.eng.At(t, c.run)
}

// Parked reports whether the context is currently parked.
func (c *Context) Parked() bool { return c.parked }

// Progress returns the context's resumption count — the watchdog's
// forward-progress measure.
func (c *Context) Progress() uint64 { return c.progress }

// Done reports whether the context body has returned.
func (c *Context) Done() bool { return c.done }
