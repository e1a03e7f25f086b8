package protocol

import (
	"fmt"

	"lazyrc/internal/cache"
	"lazyrc/internal/causal"
	"lazyrc/internal/directory"
	"lazyrc/internal/mesh"
	"lazyrc/internal/stats"
)

// This file implements the message handling shared by the two lazy
// protocols (LRC and LRCExt). The home-node directory logic is identical
// for both; they differ only on the CPU side, in when the write notice
// trigger (MsgWriteReq) is sent.
//
// Home-side rules (§2 of the paper):
//
//   - Reads are always answered from memory — the home never forwards a
//     read. A read of a dirty block moves it to Weak and sends a notice
//     to the writer.
//   - A write adds the requester to the sharer and writer sets. If other
//     processors cache the block it becomes Weak, and every sharer that
//     has not yet been notified receives a write notice. The home
//     collects the notice acknowledgements — once per block, even when
//     write requests from several processors overlap — and then sends
//     WriteDone to every waiting writer.
//   - Acquire-time invalidation notifications and eviction hints remove
//     the processor from the sharer set; the block reverts to Shared,
//     Dirty, or Uncached as appropriate.

// lazyNoticePolicy distinguishes the two lazy protocols in shared
// requester-side code paths.
type lazyNoticePolicy interface {
	// EagerNotices reports whether write notices are triggered at write
	// time (LRC) rather than buffered until release (LRCExt).
	EagerNotices() bool
}

// lazyDispatch is the lazy family's message interface: home side first,
// then the requester's replies and the sharer's notice.
var lazyDispatch = dispatch{
	MsgReadReq:      lazyHomeRead,
	MsgWriteReq:     lazyHomeWrite,
	MsgNoticeAck:    afterPP(causal.KindAck, (*Node).noticeCost, lazyHomeNoticeAck),
	MsgWriteThrough: homeWriteThrough,
	MsgInvNotify:    afterPP(causal.KindDir, (*Node).dirCost, homeDropCopy),
	MsgEvict:        afterPP(causal.KindDir, (*Node).dirCost, homeDropCopy),

	MsgReadReply: lazyReadReply,
	MsgWriteData: lazyWriteData,
	MsgWriteDone: lazyWriteDone,
	MsgNotice:    afterPP(causal.KindNotice, (*Node).noticeCost, lazyNotice),
}.withShared()

// lazyHomeRead serves a read request at the home: directory transition at
// the protocol processor, memory fetch in parallel, data reply at
// whichever finishes last. The reply carries the block's new global state
// so a requester joining a weak block knows to invalidate it at its next
// acquire.
func lazyHomeRead(n *Node, m mesh.Msg) {
	n.afterDir(m, true, lazyHomeReadDir)
}

// lazyHomeReadDir is the directory transition of the read request m,
// whose memory fetch ends at memEnd.
func lazyHomeReadDir(n *Node, m mesh.Msg, memEnd uint64) {
	e := n.Dir.Entry(m.Addr)
	was := e.State
	e.Sharers.Add(m.Src)
	sendEnd := n.now()
	if was == directory.Dirty && !e.Writers.Has(m.Src) {
		// Read of a dirty block: it becomes weak, and the current
		// writer is notified (the one read-triggered notice case).
		writer := e.Writers.Only()
		if !e.Notified.Has(writer) {
			dspEnd := n.ppAcquire(causal.KindFanout, m.Addr, n.noticeCost())
			sendEnd = dspEnd
			e.Notified.Add(writer)
			e.PendingAcks++
			n.send(writer, MsgNotice, m.Addr, 0, 0, 0)
		}
	}
	e.Recompute()
	// A reader joining a weak block is NOT marked notified and will
	// not invalidate its fresh copy at its next acquire: its data is
	// current as of this fetch, and any writer's next announcement
	// (which must follow the writer's own acquire-time invalidation,
	// since the writer was notified when the block went weak) sends
	// the reader a notice then. Marking readers here would make
	// consumers re-fetch producer data at every acquire — a thrash
	// the paper's miss rates (lazy never above eager) rule out.
	n.Dir.Check(m.Addr, e)
	n.replyAt(max(sendEnd, memEnd),
		n.msg(m.Src, MsgReadReply, m.Addr, n.lineBytes(), uint64(e.State), 0))
}

// lazyHomeWrite serves a write request: the requester becomes a writer;
// sharers that have not heard about the weak transition get notices, whose
// acknowledgements the home collects before declaring the write globally
// performed.
func lazyHomeWrite(n *Node, m mesh.Msg) {
	n.afterDir(m, m.Arg&wantData != 0, lazyHomeWriteDir)
}

// lazyHomeWriteDir is the directory transition of the write request m;
// if it asked for data, the memory fetch ends at memEnd.
func lazyHomeWriteDir(n *Node, m mesh.Msg, memEnd uint64) {
	e := n.Dir.Entry(m.Addr)
	e.Sharers.Add(m.Src)
	e.Writers.Add(m.Src)
	e.Recompute()

	// Dispatch notices to not-yet-notified sharers other than the
	// requester.
	targets := n.fanout[:0]
	if e.State == directory.Weak {
		e.Sharers.Visit(func(id int) {
			if id != m.Src && !e.Notified.Has(id) {
				targets = append(targets, id)
			}
		})
		e.Notified.Add(m.Src) // learns weakness from the reply
	}
	sendEnd := n.now()
	if len(targets) > 0 {
		// The one case the paper prices specially: directory access
		// plus per-sharer dispatch cost.
		dspEnd := n.ppAcquire(causal.KindFanout, m.Addr, uint64(len(targets))*n.noticeCost())
		sendEnd = dspEnd
		for _, id := range targets {
			e.Notified.Add(id)
			e.PendingAcks++
			n.send(id, MsgNotice, m.Addr, 0, 0, 0)
		}
	}
	n.Dir.Check(m.Addr, e)
	n.fanout = targets

	complete := e.PendingAcks == 0
	if !complete {
		e.WaitingWriters = append(e.WaitingWriters, m.Src)
	}
	if m.Arg&wantData != 0 {
		aux := uint64(0)
		if complete {
			aux = 1
		}
		n.replyAt(max(sendEnd, memEnd),
			n.msg(m.Src, MsgWriteData, m.Addr, n.lineBytes(), uint64(e.State), aux))
	} else if complete {
		n.replyAt(sendEnd, n.msg(m.Src, MsgWriteDone, m.Addr, 0, uint64(e.State), 0))
	}
}

// lazyHomeNoticeAck collects one notice acknowledgement; when the set
// completes, every writer that was told to wait is released at once.
func lazyHomeNoticeAck(n *Node, m mesh.Msg, _ uint64) {
	e := n.Dir.Entry(m.Addr)
	e.PendingAcks--
	if e.PendingAcks < 0 {
		panic(fmt.Sprintf("protocol: node %d negative pending acks for block %d", n.ID, m.Addr))
	}
	if e.PendingAcks == 0 {
		// Emptied, storage kept, before the sends: each may hash it.
		writers := e.WaitingWriters
		e.WaitingWriters = writers[:0]
		st := uint64(e.State)
		for _, w := range writers {
			n.send(w, MsgWriteDone, m.Addr, 0, st, 0)
		}
	}
}

// homeWriteThrough merges coalesced dirty words into home memory and
// acknowledges the writer.
func homeWriteThrough(n *Node, m mesh.Msg) {
	n.mergeHome(m.Addr, m.Vals, m.Arg)
	n.ackWriteAt(n.absorbPayload(m), m)
}

// homeDropCopy removes a processor's copy from the directory (acquire
// invalidation notification or eviction hint) and reverts the block's
// state per the paper's rule.
func homeDropCopy(n *Node, m mesh.Msg, _ uint64) {
	e := n.Dir.Peek(m.Addr)
	if e == nil {
		return
	}
	e.Sharers.Remove(m.Src)
	e.Writers.Remove(m.Src)
	e.Notified.Remove(m.Src)
	e.Recompute()
	n.Dir.Check(m.Addr, e)
}

// ---- Requester side ------------------------------------------------------

// lazyReadReply installs read data. If the block is weak it is queued for
// acquire-time invalidation immediately; if an invalidation arrived while
// the fill was in flight, the copy is dropped as soon as it lands.
func lazyReadReply(n *Node, m mesh.Msg) {
	n.mustTxn(m.Addr, "read reply")
	n.fillLine(m, cache.ReadOnly, lazyReadFilled)
}

func lazyReadFilled(n *Node, m mesh.Msg, _ uint64) {
	t := n.mustTxn(m.Addr, "read fill")
	t.Filled = true
	inv := t.InvalidateOnFill
	n.finishTxn(t) // reads complete at fill
	lazyRetireWB(n, m.Addr)
	if inv {
		n.dropFilledCopy(m.Addr)
	}
}

// lazyWriteData installs write-miss data, applies the buffered stores,
// and completes the transaction if the home said no acknowledgements were
// pending (aux == 1).
func lazyWriteData(n *Node, m mesh.Msg) {
	n.mustTxn(m.Addr, "write data")
	n.fillLine(m, cache.ReadWrite, lazyWriteFilled)
}

func lazyWriteFilled(n *Node, m mesh.Msg, _ uint64) {
	t := n.mustTxn(m.Addr, "write fill")
	t.Filled = true
	if directory.State(m.Arg) == directory.Weak {
		n.pendInv.add(m.Addr)
	}
	inv := t.InvalidateOnFill
	if m.Aux == 1 || t.DoneEarly {
		n.finishTxn(t)
	} else if !t.Data.IsOpen() {
		t.Data.Open()
	}
	if inv {
		n.dropFilledCopy(m.Addr)
	}
	// The line may have been evicted by a conflicting fill (or
	// dropped above) between data arrival and bus completion;
	// lazyRetireWB re-checks its state and restarts if necessary.
	lazyRetireWB(n, m.Addr)
}

// lazyWriteDone completes a write transaction once the home has collected
// all notice acknowledgements. If the (smaller, faster) done message
// overtook the data reply, completion is deferred to the fill.
func lazyWriteDone(n *Node, m mesh.Msg) {
	t := n.mustTxn(m.Addr, "write done")
	// A writer of a weak block queues it for invalidation at its own
	// next acquire: other writers' words may change under it.
	if directory.State(m.Arg) == directory.Weak && n.Cache.Lookup(m.Addr) != nil {
		n.pendInv.add(m.Addr)
	}
	if t.ExpectData && !t.Data.IsOpen() {
		t.DoneEarly = true
		return
	}
	n.finishTxn(t)
}

// lazyNotice processes an incoming write notice: the block joins the
// acquire-time invalidation set (it remains readable until then) and the
// collecting home is acknowledged.
func lazyNotice(n *Node, m mesh.Msg, _ uint64) {
	n.PS.NoticesIn++
	if n.Cache.Lookup(m.Addr) != nil || n.txn(m.Addr) != nil {
		n.pendInv.add(m.Addr)
	}
	n.send(m.Src, MsgNoticeAck, m.Addr, 0, 0, 0)
}

// dropFilledCopy invalidates a copy the moment its (already stale) fill
// lands — the notice raced the data reply.
func (n *Node) dropFilledCopy(block uint64) {
	if _, ok := n.Cache.Invalidate(block); ok {
		if e, ok := n.CB.Remove(block); ok {
			n.sendWriteThrough(e)
		}
		n.delayed.remove(block)
		n.Env.Class.Lose(n.ID, block, stats.LossCoherence)
		n.send(n.homeOf(block), MsgInvNotify, block, 0, 0, 0)
	}
}

// lazyRetireWB resolves a write-buffer entry for block after data has
// arrived. Depending on how the race resolved, the line may be:
//
//   - read-write: apply the words (the usual write-miss completion);
//   - read-only: a merged read fetched it first — take write permission
//     per the protocol's notice policy (eager WriteReq or deferred);
//   - absent: an invalidation landed first — restart the write miss when
//     the current transaction fully completes.
func lazyRetireWB(n *Node, block uint64) {
	if n.WB.Find(block) == nil {
		return
	}
	line := n.Cache.Lookup(block)
	switch {
	case line != nil && line.State == cache.ReadWrite:
		n.retireWB(block, (*Node).commitWT)
	case line != nil:
		n.Cache.Upgrade(block)
		n.retireWB(block, (*Node).commitWT)
		if n.Proto.(lazyNoticePolicy).EagerNotices() {
			if n.txn(block) == nil {
				t := n.newTxn(block)
				t.IsWrite = true
				t.Data.Open()
				n.send(n.homeOf(block), MsgWriteReq, block, 0, 0, 0)
			}
		} else {
			n.delayed.add(block)
		}
	default:
		// Invalidated while in flight: reissue once the transaction
		// machinery quiesces for this block.
		if t := n.txn(block); t != nil {
			t.Done.Subscribe(func() { lazyRestartWrite(n, block) })
		} else {
			lazyRestartWrite(n, block)
		}
	}
}

// lazyRestartWrite restarts the write miss as the notice policy asks:
// a write request, or a read whose write notice waits for the release.
func lazyRestartWrite(n *Node, block uint64) {
	if n.Proto.(lazyNoticePolicy).EagerNotices() {
		n.restartWrite(block, MsgWriteReq, wantData)
	} else {
		n.restartWrite(block, MsgReadReq, 0)
	}
}
