package sim

// Gate is a one-shot completion latch for protocol transactions: event
// handlers open it once, and any number of contexts or callbacks observe
// the opening. It is the simulation-time analogue of closing a channel.
//
// A Gate may be waited on by at most one parked context at a time (a
// processor stalls on its own outstanding transaction) but may carry any
// number of callback subscribers (merged requests on the same cache
// block).
type Gate struct {
	open    bool
	waiter  *Context
	actions []func()
}

// Open fires the gate at the current simulated time: the parked waiter, if
// any, is woken and all subscribed callbacks run immediately (in
// subscription order). Opening an already-open gate panics; transactions
// complete exactly once.
func (g *Gate) Open() {
	if g.open {
		panic("sim: gate opened twice")
	}
	g.open = true
	if g.waiter != nil {
		w := g.waiter
		g.waiter = nil
		w.Wake()
	}
	for _, fn := range g.actions {
		fn()
	}
	g.actions = nil
}

// IsOpen reports whether the gate has fired.
func (g *Gate) IsOpen() bool { return g.open }

// Wait parks the context until the gate opens; it returns immediately if
// the gate is already open. It returns the cycles spent parked.
func (g *Gate) Wait(c *Context, why string) uint64 {
	if g.open {
		return 0
	}
	if g.waiter != nil {
		panic("sim: gate already has a parked waiter")
	}
	g.waiter = c
	return c.Park(why)
}

// Subscribe registers fn to run when the gate opens (immediately if it is
// already open). Callbacks run on the engine goroutine.
func (g *Gate) Subscribe(fn func()) {
	if g.open {
		fn()
		return
	}
	g.actions = append(g.actions, fn)
}
