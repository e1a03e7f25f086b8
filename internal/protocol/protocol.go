package protocol

import (
	"fmt"

	"lazyrc/internal/cache"
	"lazyrc/internal/causal"
	"lazyrc/internal/mesh"
)

// Protocol is the strategy implemented by each coherence protocol. The
// CPU-side methods (CPURead, CPUWrite, ReadHit, WriteHit, AcquireBegin,
// Release) run on the node's processor context and may park it;
// AcquireEnd and the family's message handlers run on the engine
// (event-handler) side.
type Protocol interface {
	// Name identifies the protocol ("sc", "erc", "lrc", "lrc-ext",
	// "tardis").
	Name() string
	// Lazy reports whether this is one of the lazy protocols, which pay
	// the higher directory access cost of Table 1.
	Lazy() bool
	// WriteBack reports whether evicted dirty lines carry data home
	// (write-back protocols) rather than relying on write-through.
	WriteBack() bool

	// ReadHit runs on the load fast path when a valid line is cached; it
	// returns whether the cached copy may satisfy the load. The
	// invalidation protocols always hit (any valid copy satisfies a
	// load); the timestamp protocol returns false when the line's lease
	// has expired, sending the load down CPURead to renew. Runs on the
	// processor's private clock, so it must not touch the engine or send
	// messages.
	ReadHit(n *Node, block uint64) bool
	// WriteHit attempts the store fast path and reports whether the
	// store was performed without any messages (so the processor may
	// keep running ahead on its private clock). On false the caller
	// syncs to engine time and takes the full CPUWrite path.
	WriteHit(n *Node, block uint64, word int) bool
	// CPURead performs a load that missed the fast path; it returns when
	// the datum is readable, charging stalls to the node's stats.
	CPURead(n *Node, block uint64, word int)
	// CPUWrite performs a store that missed the fast path; under the
	// relaxed protocols it usually queues the store and returns without
	// waiting for global performance.
	CPUWrite(n *Node, block uint64, word int)

	// Evict runs when a valid line is replaced, after the node's common
	// bookkeeping (classifier loss, pending-invalidation and coalescing-
	// buffer cleanup): the protocol ships dirty data home and/or tells
	// the home the copy is gone.
	Evict(n *Node, v cache.Line)

	// AcquireBegin runs when the processor starts an acquire: the lazy
	// protocols begin invalidating notified lines, overlapping with the
	// synchronization latency itself.
	AcquireBegin(n *Node)
	// AcquireEnd runs (on the engine side) when the synchronization
	// operation is granted; done is called when the consistency work
	// (invalidating lines noticed in the intervening time) finishes.
	AcquireEnd(n *Node, done func())
	// Release runs when the processor performs a release; it returns
	// once the node's writes are globally performed per the protocol's
	// rules, charging the wait to SyncStall.
	Release(n *Node)

	// handlers returns the message dispatch table of the protocol's
	// family; NewNode resolves it once.
	handlers() *dispatch
}

// dispatch maps each message kind to the handler of its arrival at a
// node; a zero entry is a kind the family never sends. One table per
// protocol family (eagerDispatch, lazyDispatch, tsDispatch) is the whole
// of that family's message interface.
type dispatch [numMsgKinds]handler

// A handler is a dispatch table entry. A quiet one (quiet, afterPP,
// homeRequest) changes nothing the state hash folds: it only occupies the
// protocol processor or memory, merges a payload into home memory's
// values and posts a continuation, which touches the node when it runs.
// So a delivery to it leaves the node's digest kept.
type handler struct {
	fn    func(*Node, mesh.Msg)
	quiet bool
}

// on and quiet make fn a table entry, the second a quiet one.
func on(fn func(*Node, mesh.Msg)) handler    { return handler{fn: fn} }
func quiet(fn func(*Node, mesh.Msg)) handler { return handler{fn, true} }

// afterPP returns the quiet handler of a message that first occupies the
// protocol processor: cost(n) cycles of the given kind are charged for
// its block on arrival, and then runs when they end.
func afterPP(kind causal.Kind, cost func(*Node) uint64, then func(*Node, mesh.Msg, uint64)) handler {
	return quiet(func(n *Node, m mesh.Msg) { n.at(n.ppAcquire(kind, m.Addr, cost(n)), then, m, 0) })
}

// homeRequest returns the quiet handler of a read or write request to an
// invalidation family's home: the memory fetch for the data the reply may
// carry (a read's, or a write's that asked for it) overlaps the directory
// access, after which then runs (afterDir).
func homeRequest(then func(*Node, mesh.Msg, uint64)) handler {
	return quiet(func(n *Node, m mesh.Msg) {
		n.afterDir(m, MsgKind(m.Kind) == MsgReadReq || m.Arg&wantData != 0, then)
	})
}

// withShared completes a family's table with the kinds every family
// handles alike: synchronization traffic goes to the sync manager,
// quietly, and a write-through or write-back acknowledgement retires at
// its sender.
func (d dispatch) withShared() *dispatch {
	for k := MsgLockReq; k <= MsgFlagGo; k++ {
		d[k] = quiet((*Node).deliverSync)
	}
	d[MsgWTAck] = on(wtAck)
	return &d
}

// releaseTimestamper is implemented by protocols that piggyback a
// logical timestamp on release-class synchronization messages (the
// timestamp protocol's physiological time: an acquirer's clock must
// pass the releaser's so lease expiry is ordered after the release).
type releaseTimestamper interface {
	ReleaseTS(n *Node) uint64
}

// acquireTimestamper receives the timestamp carried by a
// synchronization grant, before AcquireEnd runs.
type acquireTimestamper interface {
	AcquireTS(n *Node, ts uint64)
}

// invalPaths supplies the invalidation protocols' (sc, erc, lrc,
// lrc-ext) shared paths: any valid copy satisfies a load, stores hit
// resident read-write lines, evicted dirty lines follow the
// write-back/write-through split, and a load miss stalls until its fill.
type invalPaths struct{}

func (invalPaths) ReadHit(n *Node, block uint64) bool            { return true }
func (invalPaths) WriteHit(n *Node, block uint64, word int) bool { return n.writeHitInval(block, word) }
func (invalPaths) Evict(n *Node, v cache.Line)                   { n.evictInval(v) }
func (invalPaths) CPURead(n *Node, block uint64, word int)       { invalCPURead(n, block, word) }

// eagerPaths is the eager family (sc, erc): the ownership-based
// write-back home of home_eager.go at the eager directory cost, and no
// consistency work at acquires — coherence is kept at write time.
type eagerPaths struct{ invalPaths }

func (eagerPaths) Lazy() bool                      { return false }
func (eagerPaths) WriteBack() bool                 { return true }
func (eagerPaths) handlers() *dispatch             { return eagerDispatch }
func (eagerPaths) AcquireBegin(n *Node)            {}
func (eagerPaths) AcquireEnd(n *Node, done func()) { done() }

// lazyPaths is the lazy family (lrc, lrc-ext): the multiple-writer
// write-through home of home_lazy.go at the lazy directory cost, and
// acquire-time invalidation of the lines write notices named.
type lazyPaths struct{ invalPaths }

func (lazyPaths) Lazy() bool          { return true }
func (lazyPaths) WriteBack() bool     { return false }
func (lazyPaths) handlers() *dispatch { return lazyDispatch }

// AcquireBegin starts invalidating lines for already-received notices,
// overlapping the work with the synchronization latency itself (unless
// the ablation knob NoAcquireOverlap defers it all to AcquireEnd).
func (lazyPaths) AcquireBegin(n *Node) {
	if !n.Env.Cfg.NoAcquireOverlap {
		n.processPendInv()
	}
}

// AcquireEnd invalidates lines whose notices arrived while the
// synchronization operation was in flight; done runs when the protocol
// processor finishes.
func (lazyPaths) AcquireEnd(n *Node, done func()) {
	end := n.processPendInv()
	n.Env.Eng.At(end, done)
}

// table is the menu of protocols, in evaluation order: every CLI,
// experiment target, litmus sweep and machine resolves a protocol name
// against it. The values hold no state (a node's state is its Node), so
// every node running a protocol shares the one value here. scStrict marks
// the protocols that promise sequentially consistent outcomes even for
// racy programs; the relaxed ones owe them only to data-race-free ones.
var table = [...]struct {
	p        Protocol
	scStrict bool
}{
	{&SC{}, true},
	{&ERC{}, false},
	{&LRC{}, false},
	{&LRCExt{}, false},
	{&Tardis{}, true},
}

// New returns the protocol named name.
func New(name string) (Protocol, error) {
	for _, e := range table {
		if e.p.Name() == name {
			return e.p, nil
		}
	}
	return nil, fmt.Errorf("protocol: unknown protocol %q (want %v)", name, Names())
}

// Names lists the available protocols in evaluation order.
func Names() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.p.Name()
	}
	return names
}

// SCStrict reports whether name promises SC outcomes for racy programs.
// An unknown name is judged strict, so a typo'd protocol fails loudly
// against the oracle rather than silently passing.
func SCStrict(name string) bool {
	for _, e := range table {
		if e.p.Name() == name {
			return e.scStrict
		}
	}
	return true
}
