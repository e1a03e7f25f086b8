package protocol

import (
	"fmt"
	"slices"

	"lazyrc/internal/causal"
	"lazyrc/internal/fold"
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

// syncKey names a synchronization object at its home: the fold section
// of its kind (fold.Lock, fold.Barrier or fold.Flag) and its id.
type syncKey struct {
	kind fold.Section
	id   uint64
}

// syncObj is one synchronization object. state is a lock's held bit, a
// barrier's arrival count or a flag's set bit; ts is the largest logical
// timestamp any release of it carried (the timestamp protocol; always 0
// otherwise), which grants carry back so the acquirer's clock passes
// every prior releaser's; queue holds the nodes waiting on it, in order.
// going is the queue it last released: a barrier's fan-out targets, then
// its next queue's storage.
type syncObj struct {
	state, ts    uint64
	queue, going []int
}

// release empties the queue into going and returns it. The waiters leave
// the object's record before the first go message is sent: a send is a
// choice point at which the model checker hashes the state. A barrier's
// fan-out reads going at its end; no arrival of the next episode comes
// before that.
func (o *syncObj) release() []int {
	o.queue, o.going = o.going[:0], o.queue
	return o.going
}

// syncNode is the per-node synchronization state: the objects homed here
// and the requester-side wait gate, re-armed by every wait (each CPU has
// at most one synchronization operation outstanding). waiting is set from
// a request to its grant; granted opens the gate, bound once. spare is the
// queue storage of the flag set last, which the next new object takes;
// free holds the objects a reset forgot, emptied, for obj to take first.
type syncNode struct {
	objs    map[syncKey]*syncObj
	free    []*syncObj
	spare   []int
	gate    sim.Gate
	waiting bool
	granted func()
}

func (s *syncNode) init() {
	s.objs = make(map[syncKey]*syncObj)
	s.granted = s.gate.Open
}

// reset forgets every object, keeping it on the free list, and the wait.
func (s *syncNode) reset() {
	for _, o := range s.objs {
		*o = syncObj{queue: o.queue[:0], going: o.going[:0]}
		s.free = append(s.free, o)
	}
	clear(s.objs)
	s.gate, s.waiting = sim.Gate{}, false
}

// obj returns the object of the given kind and id, creating it at first
// use.
func (s *syncNode) obj(kind fold.Section, id uint64) *syncObj {
	k := syncKey{kind, id}
	o := s.objs[k]
	if o == nil {
		if n := len(s.free); n > 0 {
			o, s.free = s.free[n-1], s.free[:n-1]
		} else {
			o = new(syncObj)
		}
		if o.queue == nil {
			o.queue, s.spare = s.spare, nil
		}
		s.objs[k] = o
	}
	return o
}

// syncLabels are the stall label formats, by kind of object.
var syncLabels = [...]string{fold.Lock: "lock %d grant", fold.Barrier: "barrier %d", fold.Flag: "flag %d"}

// label returns the stall label of a wait on k, formatted at the first.
func (e *Env) label(k syncKey) string {
	s, ok := e.labels[k]
	if !ok {
		s = fmt.Sprintf(syncLabels[k.kind], k.id)
		e.labels[k] = s
	}
	return s
}

// ---- CPU-side operations (run on the node's processor context) ----------

// LockAcquire performs an acquire on the lock with the given home and id.
func (n *Node) LockAcquire(home int, id uint64) {
	st, root := n.Env.Causal.BeginSync(n.ID, id, "lock-acquire", n.now())
	n.Proto.AcquireBegin(n)
	n.syncWait(st, home, MsgLockReq, 0, 0, syncKey{fold.Lock, id})
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
	n.syncWait(st, home, MsgBarArrive, n.releaseTS(), uint64(parties), syncKey{fold.Barrier, id})
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
	n.syncWait(st, home, MsgFlagWait, 0, 0, syncKey{fold.Flag, id})
	n.Env.Causal.EndSync(root, n.now())
}

// syncWait re-arms the wait gate, sends the request for k to its home and
// stalls until the grant's AcquireEnd opens the gate. The waiting bit is
// set before the send, which the model checker may hash the state at.
func (n *Node) syncWait(st uint64, home int, kind MsgKind, ts, arg uint64, k syncKey) {
	n.sync.gate, n.sync.waiting = sim.Gate{}, true
	n.send(home, kind, ts, 0, arg, k.id)
	n.PS.SyncStall += n.waitStall(&n.sync.gate, st, causal.StallSync, n.Env.label(k))
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
	n.sync.gate = sim.Gate{}
	n.Proto.AcquireEnd(n, n.sync.granted)
	n.PS.SyncStall += n.waitStall(&n.sync.gate, st, causal.StallSync, "fence")
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
		l := n.sync.obj(fold.Lock, id)
		if l.state == 0 {
			l.state = 1
			n.send(m.Src, MsgLockGrant, l.ts, 0, 0, id)
		} else {
			l.queue = append(l.queue, m.Src)
		}

	case MsgLockFree:
		l := n.sync.obj(fold.Lock, id)
		if l.state == 0 {
			panic(fmt.Sprintf("protocol: node %d freeing un-held lock %d", n.ID, id))
		}
		l.ts = max(l.ts, m.Addr)
		if len(l.queue) > 0 {
			next := l.queue[0]
			l.queue = slices.Delete(l.queue, 0, 1)
			n.send(next, MsgLockGrant, l.ts, 0, 0, id)
		} else {
			l.state = 0
		}

	case MsgBarArrive:
		b := n.sync.obj(fold.Barrier, id)
		b.state++
		b.queue = append(b.queue, m.Src)
		b.ts = max(b.ts, m.Addr)
		if b.state == m.Arg {
			// Dispatch the releases; the protocol processor pays per
			// participant.
			end := n.ppAcquire(causal.KindFanout, 0, m.Arg*n.noticeCost())
			b.state = 0
			b.release()
			n.at(end, barrierGo, m, b.ts)
		}

	case MsgFlagSet:
		f := n.sync.obj(fold.Flag, id)
		f.state = 1
		f.ts = max(f.ts, m.Addr)
		for _, w := range f.release() {
			n.send(w, MsgFlagGo, f.ts, 0, 0, id)
		}
		n.sync.spare, f.going = f.going[:0], nil // a set flag queues no one

	case MsgFlagWait:
		f := n.sync.obj(fold.Flag, id)
		if f.state != 0 {
			n.send(m.Src, MsgFlagGo, f.ts, 0, 0, id)
		} else {
			f.queue = append(f.queue, m.Src)
		}

	default: // MsgLockGrant, MsgBarGo, MsgFlagGo: the dispatch table routes only sync kinds here
		if !n.sync.waiting {
			panic(fmt.Sprintf("protocol: node %d sync grant with no waiter", n.ID))
		}
		n.sync.waiting = false
		if at, ok := n.Proto.(acquireTimestamper); ok {
			at.AcquireTS(n, m.Addr)
		}
		n.Proto.AcquireEnd(n, n.sync.granted)
	}
}

// barrierGo sends the barrier m completed its go messages, stamped ts.
func barrierGo(n *Node, m mesh.Msg, ts uint64) {
	for _, w := range n.sync.obj(fold.Barrier, m.Aux).going {
		n.send(w, MsgBarGo, ts, 0, 0, m.Aux)
	}
}
