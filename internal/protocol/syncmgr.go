package protocol

import (
	"fmt"

	"lazyrc/internal/causal"
	"lazyrc/internal/mesh"
	"lazyrc/internal/sim"
)

// Synchronization objects (locks, barriers, one-shot flags) are managed
// by the protocol processor of a home node, reached by ordinary network
// messages. Their CPU-side operations carry the release-consistency
// hooks:
//
//   - acquire operations (lock acquire, barrier departure, flag wait)
//     invalidate lines with pending write notices — partly overlapped
//     with the synchronization latency itself, per §2;
//   - release operations (lock release, barrier arrival, flag set) first
//     make the processor's writes globally visible per the protocol's
//     release rules.
//
// Much of the latency of acquire-side invalidation hides behind the wait
// for the grant message: AcquireBegin runs when the request is sent, and
// only notices that arrive in the intervening time are processed (by
// AcquireEnd) after the grant.

type lockState struct {
	held  bool
	queue []int
	// ts is the maximum logical timestamp carried by any release of
	// this lock (timestamp protocols; always 0 otherwise). Grants carry
	// it back so the acquirer's clock passes every prior releaser's.
	ts uint64
}

type barState struct {
	arrived int
	waiting []int
	ts      uint64 // max release timestamp over all arrivals (monotonic)
}

type flagState struct {
	set     bool
	waiters []int
	ts      uint64 // release timestamp of the setter
}

// syncNode is the per-node synchronization state: home-side object
// tables plus the requester-side wait gate (each CPU has at most one
// synchronization operation outstanding).
type syncNode struct {
	locks map[uint64]*lockState
	bars  map[uint64]*barState
	flags map[uint64]*flagState
	gate  *sim.Gate
}

func (s *syncNode) init() {
	s.locks = make(map[uint64]*lockState)
	s.bars = make(map[uint64]*barState)
	s.flags = make(map[uint64]*flagState)
}

// reset forgets every object and the wait gate.
func (s *syncNode) reset() {
	clear(s.locks)
	clear(s.bars)
	clear(s.flags)
	s.gate = nil
}

func (s *syncNode) lock(id uint64) *lockState {
	l := s.locks[id]
	if l == nil {
		l = &lockState{}
		s.locks[id] = l
	}
	return l
}

func (s *syncNode) bar(id uint64) *barState {
	b := s.bars[id]
	if b == nil {
		b = &barState{}
		s.bars[id] = b
	}
	return b
}

func (s *syncNode) flag(id uint64) *flagState {
	f := s.flags[id]
	if f == nil {
		f = &flagState{}
		s.flags[id] = f
	}
	return f
}

// ---- CPU-side operations (run on the node's processor context) ----------

// LockAcquire performs an acquire on the lock with the given home and id.
func (n *Node) LockAcquire(home int, id uint64) {
	st, root := n.Env.Causal.BeginSync(n.ID, id, "lock-acquire", n.now())
	n.Proto.AcquireBegin(n)
	g := &sim.Gate{}
	n.sync.gate = g
	n.send(home, MsgLockReq, 0, 0, 0, id)
	n.PS.SyncStall += n.waitStall(g, st, causal.StallSync, fmt.Sprintf("lock %d grant", id))
	n.Env.Causal.EndSync(root, n.now())
}

// LockRelease performs a release on the lock.
func (n *Node) LockRelease(home int, id uint64) {
	_, root := n.Env.Causal.BeginSync(n.ID, id, "lock-release", n.now())
	n.Proto.Release(n)
	n.send(home, MsgLockFree, n.releaseTS(), 0, 0, id)
	n.Env.Causal.EndSync(root, n.now())
}

// BarrierWait joins a barrier of the given party count: arrival has
// release semantics, departure acquire semantics.
func (n *Node) BarrierWait(home int, id uint64, parties int) {
	st, root := n.Env.Causal.BeginSync(n.ID, id, "barrier", n.now())
	n.Proto.Release(n)
	g := &sim.Gate{}
	n.sync.gate = g
	n.send(home, MsgBarArrive, n.releaseTS(), 0, uint64(parties), id)
	n.PS.SyncStall += n.waitStall(g, st, causal.StallSync, fmt.Sprintf("barrier %d", id))
	n.Env.Causal.EndSync(root, n.now())
}

// FlagSet sets a one-shot flag (release semantics), waking all waiters.
func (n *Node) FlagSet(home int, id uint64) {
	_, root := n.Env.Causal.BeginSync(n.ID, id, "flag-set", n.now())
	n.Proto.Release(n)
	n.send(home, MsgFlagSet, n.releaseTS(), 0, 0, id)
	n.Env.Causal.EndSync(root, n.now())
}

// FlagWait blocks until the flag has been set (acquire semantics).
func (n *Node) FlagWait(home int, id uint64) {
	st, root := n.Env.Causal.BeginSync(n.ID, id, "flag-wait", n.now())
	n.Proto.AcquireBegin(n)
	g := &sim.Gate{}
	n.sync.gate = g
	n.send(home, MsgFlagWait, 0, 0, 0, id)
	n.PS.SyncStall += n.waitStall(g, st, causal.StallSync, fmt.Sprintf("flag %d", id))
	n.Env.Causal.EndSync(root, n.now())
}

// Fence forces the protocol processor to process pending invalidations
// immediately, without any lock traffic — the paper's §4.2 remedy for
// programs with data races whose solution quality suffers from long
// invalidation delays: "adding fence operations in the code would force
// the protocol processor to process invalidations at regular intervals."
// Under the eager protocols it is a no-op. It returns when the local
// invalidation work has finished.
func (n *Node) Fence() {
	st, root := n.Env.Causal.BeginSync(n.ID, 0, "fence", n.now())
	g := &sim.Gate{}
	n.Proto.AcquireEnd(n, func() { g.Open() })
	n.PS.SyncStall += n.waitStall(g, st, causal.StallSync, "fence")
	n.Env.Causal.EndSync(root, n.now())
}

// releaseTS returns the logical timestamp a release-class sync message
// carries in its Addr slot: the protocol's ReleaseTS if it keeps one,
// else 0 (bit-identical to the pre-timestamp encoding).
func (n *Node) releaseTS() uint64 {
	if rt, ok := n.Proto.(releaseTimestamper); ok {
		return rt.ReleaseTS(n)
	}
	return 0
}

// ---- Message handling -----------------------------------------------------

// deliverSync handles synchronization traffic at this node (home side for
// requests, requester side for grants).
func (n *Node) deliverSync(m mesh.Msg) {
	end := n.ppAcquire(causal.KindDir, 0, n.noticeCost())
	n.at(end, handleSync, m, 0)
}

func handleSync(n *Node, m mesh.Msg, _ uint64) {
	id := m.Aux
	switch MsgKind(m.Kind) {
	case MsgLockReq:
		l := n.sync.lock(id)
		if !l.held {
			l.held = true
			n.send(m.Src, MsgLockGrant, l.ts, 0, 0, id)
		} else {
			l.queue = append(l.queue, m.Src)
		}

	case MsgLockFree:
		l := n.sync.lock(id)
		if !l.held {
			panic(fmt.Sprintf("protocol: node %d freeing un-held lock %d", n.ID, id))
		}
		if m.Addr > l.ts {
			l.ts = m.Addr
		}
		if len(l.queue) > 0 {
			next := l.queue[0]
			l.queue = l.queue[1:]
			n.send(next, MsgLockGrant, l.ts, 0, 0, id)
		} else {
			l.held = false
		}

	case MsgBarArrive:
		b := n.sync.bar(id)
		parties := int(m.Arg)
		b.arrived++
		b.waiting = append(b.waiting, m.Src)
		if m.Addr > b.ts {
			b.ts = m.Addr
		}
		if b.arrived == parties {
			// Dispatch the releases; the protocol processor pays per
			// participant.
			end := n.ppAcquire(causal.KindFanout, 0, uint64(parties)*n.noticeCost())
			waiting := b.waiting
			ts := b.ts
			b.arrived = 0
			b.waiting = nil
			n.Env.Eng.At(end, func() {
				for _, w := range waiting {
					n.send(w, MsgBarGo, ts, 0, 0, id)
				}
			})
		}

	case MsgFlagSet:
		f := n.sync.flag(id)
		f.set = true
		if m.Addr > f.ts {
			f.ts = m.Addr
		}
		waiters := f.waiters
		f.waiters = nil
		for _, w := range waiters {
			n.send(w, MsgFlagGo, f.ts, 0, 0, id)
		}

	case MsgFlagWait:
		f := n.sync.flag(id)
		if f.set {
			n.send(m.Src, MsgFlagGo, f.ts, 0, 0, id)
		} else {
			f.waiters = append(f.waiters, m.Src)
		}

	default: // MsgLockGrant, MsgBarGo, MsgFlagGo: the dispatch table routes only sync kinds here
		g := n.sync.gate
		if g == nil {
			panic(fmt.Sprintf("protocol: node %d sync grant with no waiter", n.ID))
		}
		n.sync.gate = nil
		if at, ok := n.Proto.(acquireTimestamper); ok {
			at.AcquireTS(n, m.Addr)
		}
		n.Proto.AcquireEnd(n, func() { g.Open() })
	}
}
