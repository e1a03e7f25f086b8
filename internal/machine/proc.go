package machine

import (
	"math"

	"lazyrc/internal/protocol"
	"lazyrc/internal/sim"
)

// Proc is the per-processor handle a workload runs against. Every shared
// access and synchronization operation is played through the machine's
// timing model; plain Go variables remain private (un-simulated) state,
// exactly as registers and private memory would be.
//
// For simulation speed, a processor runs ahead of the global event loop
// on a private clock while it executes compute cycles and cache hits,
// synchronizing only on misses, buffer pressure, synchronization
// operations, or when the run-ahead exceeds the configured quantum —
// the standard execution-driven simulation optimization.
type Proc struct {
	m    *Machine
	node *protocol.Node
	ctx  *sim.Context
	name string               // its context's name
	body func(c *sim.Context) // run, bound once

	ahead uint64 // private cycles not yet reflected in engine time
}

// run is the processor's context body: the worker Run was given, then an
// implicit release, then the finish time.
func (p *Proc) run(c *sim.Context) {
	p.ctx, p.ahead = c, 0
	p.m.worker(p)
	p.syncNow()
	p.node.Proto.Release(p.node)
	p.node.PS.FinishTime = c.Now()
}

// ID returns the processor number (0-based).
func (p *Proc) ID() int { return p.node.ID }

// NProcs returns the machine's processor count.
func (p *Proc) NProcs() int { return p.m.Cfg.Procs }

// Now returns the processor's current cycle (engine time plus run-ahead).
func (p *Proc) Now() uint64 { return p.ctx.Now() + p.ahead }

// Compute models c cycles of private computation.
func (p *Proc) Compute(c uint64) {
	p.node.PS.CPU += c
	p.ahead += c
	p.maybeSync()
}

// syncNow brings the global event loop up to the processor's private
// clock; after it returns, engine time equals processor time.
func (p *Proc) syncNow() {
	if p.ahead > 0 {
		d := p.ahead
		p.ahead = 0
		p.ctx.Sleep(d)
	}
}

func (p *Proc) maybeSync() {
	if p.ahead >= p.m.Cfg.Quantum {
		p.syncNow()
	}
}

func (p *Proc) blockWord(a Addr) (uint64, int) {
	ls := uint64(p.m.Cfg.LineSize)
	return a / ls, int(a % ls / 8)
}

// read plays one shared load through the timing model and returns the
// word it observes: the value store's (Config.TrackValues) when one is
// attached, else the backing store's.
func (p *Proc) read(a Addr) uint64 {
	n := p.node
	n.PS.CPU++ // one cycle to issue the reference
	p.ahead++
	p.m.Env.TouchPage(a, n.ID)
	block, word := p.blockWord(a)

	n.PS.Reads++
	if n.Cache.Lookup(block) != nil && n.Proto.ReadHit(n, block) {
		p.maybeSync() // read hit: the protocol accepts the cached copy
	} else {
		p.syncNow()
		n.Proto.CPURead(n, block, word)
	}
	if v := p.m.Env.Vals; v != nil {
		return v.Read(n.ID, block, word)
	}
	return p.m.loadU64(a)
}

// write stores x to the backing store, stages it in the value store when
// one is attached, and plays the store through the timing model.
func (p *Proc) write(a Addr, x uint64) {
	p.m.storeU64(a, x)
	n := p.node
	n.PS.CPU++ // one cycle to issue the reference
	p.ahead++
	p.m.Env.TouchPage(a, n.ID)
	block, word := p.blockWord(a)
	if v := p.m.Env.Vals; v != nil {
		v.Stage(n.ID, block, word, x)
	}

	n.PS.Writes++
	if n.FastWriteHit(block, word) {
		p.maybeSync()
		return
	}
	p.syncNow()
	n.Proto.CPUWrite(n, block, word)
}

// ReadF64 loads a shared float64.
func (p *Proc) ReadF64(a Addr) float64 { return math.Float64frombits(p.read(a)) }

// WriteF64 stores a shared float64.
func (p *Proc) WriteF64(a Addr, v float64) { p.write(a, math.Float64bits(v)) }

// ReadI64 loads a shared int64.
func (p *Proc) ReadI64(a Addr) int64 { return int64(p.read(a)) }

// WriteI64 stores a shared int64.
func (p *Proc) WriteI64(a Addr, v int64) { p.write(a, uint64(v)) }

// Acquire acquires l with the protocol's acquire semantics.
func (p *Proc) Acquire(l *Lock) {
	p.syncNow()
	p.node.LockAcquire(l.home, l.id)
}

// Release releases l with the protocol's release semantics.
func (p *Proc) Release(l *Lock) {
	p.syncNow()
	p.node.LockRelease(l.home, l.id)
}

// Barrier joins b; arrival has release semantics, departure acquire
// semantics.
func (p *Proc) Barrier(b *Barrier) {
	p.syncNow()
	p.node.BarrierWait(b.home, b.id, b.parties)
}

// Fence processes any pending write-notice invalidations immediately,
// without acquiring anything — the paper's §4.2 suggestion for keeping
// racy programs' solution quality under the lazy protocols. A no-op
// under the eager protocols.
func (p *Proc) Fence() {
	p.syncNow()
	p.node.Fence()
}

// SetFlag sets a one-shot flag (release semantics).
func (p *Proc) SetFlag(f Flag) {
	p.syncNow()
	p.node.FlagSet(f.home, f.id)
}

// WaitFlag blocks until f is set (acquire semantics).
func (p *Proc) WaitFlag(f Flag) {
	p.syncNow()
	p.node.FlagWait(f.home, f.id)
}
