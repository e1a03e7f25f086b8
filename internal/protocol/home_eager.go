package protocol

import (
	"fmt"

	"lazyrc/internal/cache"
	"lazyrc/internal/causal"
	"lazyrc/internal/directory"
	"lazyrc/internal/mesh"
)

// This file implements the message handling shared by the two eager
// protocols (ERC, in the style of the DASH implementation, and the
// sequentially consistent baseline). The home-node logic is identical —
// an ownership-based MSI directory with 3-hop forwarding — and only the
// CPU side differs: ERC buffers writes and stalls at releases, SC stalls
// on every write.
//
// Unlike the lazy protocols, a write to a shared block invalidates every
// other sharer immediately; the home collects the invalidation
// acknowledgements and only then grants ownership. Requests that arrive
// for a block whose collection (or forwarding) is still in progress wait
// in the home's serializer (homeSerial) and are replayed afterwards. A
// forwarded request's directory change commits only when the owner
// confirms (XferDone) — a nacked transfer retries the original request
// against then-current state — and the block's other requests wait
// meanwhile: the DASH-style discipline that keeps two crossing ownership
// transfers from deadlocking or losing a copy. The open episode of a
// block lives in its serializer entry (serving).

// heldDrop is a copy-drop notification (eviction hint or write-back)
// that arrived for a block whose ownership transfer is still pending.
// The transfer's directory commit happens at XferDone — after the data
// already reached the requester — so a requester that obtains and then
// immediately replaces its copy can have its drop notification arrive
// before the commit that records the copy. Applying the drop early makes
// the commit resurrect a dead sharer (a copy the home can never
// invalidate again, or a phantom owner every future request is forwarded
// to and NACKed by, forever). Drops for mid-transfer blocks are held and
// applied in arrival order once the transfer commits or aborts.
type heldDrop struct {
	src int
	wb  bool // write-back (conditional owner removal) vs eviction hint
}

// eagerDispatch is the eager family's message interface: home side
// first, then the owner/sharer side, then the requester's replies.
var eagerDispatch = dispatch{
	MsgReadReq:   homeRequest(eagerHomeAdmit),
	MsgWriteReq:  homeRequest(eagerHomeAdmit),
	MsgInvalAck:  afterPP(causal.KindAck, (*Node).noticeCost, eagerHomeInvalAck),
	MsgWriteBack: on(eagerHomeWriteBack),
	MsgSharingWB: quiet(eagerHomeSharingWB),
	MsgXferDone:  on(eagerXferDone),
	MsgFwdNack:   on(eagerFwdNack),
	MsgEvict:     afterPP(causal.KindDir, (*Node).dirCost, eagerHomeDrop),

	MsgFwdRead:  afterPP(causal.KindNotice, (*Node).noticeCost, eagerOwnerForward),
	MsgFwdWrite: afterPP(causal.KindNotice, (*Node).noticeCost, eagerOwnerForward),
	MsgInval:    afterPP(causal.KindNotice, (*Node).noticeCost, eagerInval),

	MsgReadReply: on(eagerFill),
	MsgWriteData: on(eagerFill),
	MsgOwnerData: on(eagerFill),
	MsgWriteDone: on(eagerWriteDone),
}.withShared()

// eagerHomeAdmit takes the read or ownership request m, whose memory
// access (if any) ends at memEnd, to the serializer once the directory has
// been read: it resolves against the directory if its block is idle;
// everything else joins the back of the block's queue, remembering its
// already-started memory access.
func eagerHomeAdmit(n *Node, m mesh.Msg, memEnd uint64) {
	if n.home.enter(pendingReq{m: m, memEnd: memEnd}) {
		eagerProcess(n, m, memEnd)
	}
}

func eagerProcess(n *Node, m mesh.Msg, memEnd uint64) {
	if MsgKind(m.Kind) == MsgReadReq {
		eagerProcessRead(n, m, memEnd)
	} else {
		eagerProcessWrite(n, m, memEnd)
	}
}

// eagerLeave ends a request's hold on block — it was answered, or its
// transfer or collection closed — and services the head of the block's
// queue directly: protocol-processor occupancy is charged again (the
// directory is re-read), the memory access is not. Queue service is
// strictly FIFO: the block stays in service on the head's behalf while
// it is re-processed, so newly arriving requests join the back — without
// this, a re-serviced request re-enters the protocol processor behind
// fresh arrivals and can be starved indefinitely.
func eagerLeave(n *Node, block uint64) {
	p, ok := n.home.leave(block)
	if !ok {
		return
	}
	dirEnd := n.ppAcquire(causal.KindDir, block, n.dirCost())
	n.at(dirEnd, eagerProcess, p.m, p.memEnd)
}

// eagerGrantNow completes an ownership request nothing stands in the way
// of: data from memory (ready at memEnd) if the writer asked for it, a
// bare WriteDone otherwise. The block's hold ends with it.
func eagerGrantNow(n *Node, writer int, block uint64, wantsData bool, memEnd uint64) {
	if wantsData {
		n.replyAt(max(n.now(), memEnd),
			n.msg(writer, MsgWriteData, block, n.lineBytes(), uint64(directory.Dirty), 1))
	} else {
		n.send(writer, MsgWriteDone, block, 0, 0, 0)
	}
	eagerLeave(n, block)
}

// eagerProcessRead resolves an admitted read request against the current
// directory state: memory supplies clean data; dirty blocks are forwarded
// to their owner (the 3-hop transaction the lazy protocol eliminates).
func eagerProcessRead(n *Node, m mesh.Msg, memEnd uint64) {
	n.eagerUp = true
	e := n.Dir.Entry(m.Addr)
	switch e.State {
	case directory.Dirty:
		owner := e.Writers.Only()
		if owner != m.Src {
			// Forward to the owner; it supplies the reader and writes
			// the block back home concurrently. The directory commits
			// when the owner confirms; the block is busy until then.
			s := n.home.at(m.Addr)
			s.episode, s.req = xferOpen, m
			n.send(owner, MsgFwdRead, m.Addr, 0, uint64(m.Src), 0)
			return
		}
		// The owner itself re-reads: its write-back must be in flight.
		// Answer from memory.
		e.Writers.Clear()
		e.Recompute()
		fallthrough
	default:
		e.Sharers.Add(m.Src)
		e.Recompute()
		n.Dir.Check(m.Addr, e)
		n.replyAt(max(n.now(), memEnd),
			n.msg(m.Src, MsgReadReply, m.Addr, n.lineBytes(), uint64(e.State), 0))
		eagerLeave(n, m.Addr)
	}
}

// eagerProcessWrite resolves an admitted ownership request against the
// current directory state: sharers are invalidated immediately (their
// acknowledgements collected at the home), dirty blocks are forwarded to
// the owner, and the requester becomes the sole owner.
func eagerProcessWrite(n *Node, m mesh.Msg, memEnd uint64) {
	wantsData := m.Arg&wantData != 0
	n.eagerUp = true
	s := n.home.at(m.Addr)
	e := n.Dir.Entry(m.Addr)
	switch e.State {
	case directory.Dirty:
		owner := e.Writers.Only()
		if owner == m.Src {
			// The requester already owns the block at the directory
			// (its copy died in a race it has not yet observed);
			// complete with data so it can refill.
			eagerGrantNow(n, m.Src, m.Addr, wantsData, memEnd)
			return
		}
		// Transfer ownership through the current owner; the directory
		// commits when the owner confirms, and the block is busy until
		// then.
		s.episode, s.req = xferOpen, m
		n.send(owner, MsgFwdWrite, m.Addr, 0, uint64(m.Src), 0)

	case directory.Shared, directory.Uncached:
		others := s.invals[:0]
		e.Sharers.Visit(func(id int) {
			if id != m.Src {
				others = append(others, id)
			}
		})
		e.Sharers.Clear()
		e.Writers.Clear()
		e.Sharers.Add(m.Src)
		e.Writers.Add(m.Src)
		e.Recompute() // one sharer, writing: Dirty
		n.Dir.Check(m.Addr, e)
		s.invals = others
		if len(others) == 0 {
			eagerGrantNow(n, m.Src, m.Addr, wantsData, memEnd)
			return
		}
		// Invalidate every other sharer and collect acks here.
		dspEnd := n.ppAcquire(causal.KindFanout, m.Addr, uint64(len(others))*n.noticeCost())
		e.PendingAcks = len(others)
		s.episode, s.req = grantOpen, m
		n.at(dspEnd, eagerSendInvals, m, 0)

	default:
		panic(fmt.Sprintf("protocol: eager home write in state %v", e.State))
	}
}

// eagerSendInvals sends the invalidations of the grant the write request m
// opened, once the protocol processor has dispatched them. No ack can
// close the grant before they leave.
func eagerSendInvals(n *Node, m mesh.Msg, _ uint64) {
	s := n.home.at(m.Addr)
	for _, id := range s.invals {
		n.send(id, MsgInval, m.Addr, 0, 0, 0)
	}
	s.invals = s.invals[:0]
}

// eagerHomeInvalAck counts one invalidation acknowledgement; the last one
// releases the waiting writer and replays deferred requests.
func eagerHomeInvalAck(n *Node, m mesh.Msg, _ uint64) {
	e := n.Dir.Entry(m.Addr)
	e.PendingAcks--
	if e.PendingAcks < 0 {
		panic(fmt.Sprintf("protocol: node %d negative inval acks for block %d", n.ID, m.Addr))
	}
	if e.PendingAcks > 0 {
		return
	}
	s := n.home.at(m.Addr)
	if s == nil || s.episode != grantOpen {
		panic(fmt.Sprintf("protocol: node %d ack collection without grant for block %d", n.ID, m.Addr))
	}
	s.episode = noEpisode
	writer, wantsData := s.req.Src, s.req.Arg&wantData != 0
	var memEnd uint64
	if wantsData {
		memEnd = n.memAccess(n.lineBytes())
	}
	eagerGrantNow(n, writer, m.Addr, wantsData, memEnd)
}

// eagerHomeWriteBack absorbs a replaced dirty block. The owner check
// guards against the case where the owner re-fetched the block before
// its write-back landed. The directory mutation commits at dirEnd —
// protocol-processor completion times are monotone in delivery order, so
// every same-block message delivered after this one observes the
// post-write-back directory. Committing at max(dirEnd, memEnd) instead
// would let a re-fetch request delivered just after the write-back (the
// sequencer drains a parked successor in the same cycle a retransmitted
// write-back fills its gap) re-grant ownership first and have the stale
// guard then untrack the live copy. Only the acknowledgement waits for
// the memory access.
func eagerHomeWriteBack(n *Node, m mesh.Msg) {
	n.mergeHome(m.Addr, m.Vals, ^uint64(0))
	memEnd := n.memAccess(n.lineBytes())
	dirEnd := n.ppAcquire(causal.KindDir, m.Addr, n.dirCost())
	n.at(dirEnd, eagerHomeDrop, m, 0)
	n.ackWriteAt(max(dirEnd, memEnd), m)
}

// eagerHomeDrop commits the copy drop that the write-back or replacement
// hint m announces — or holds it, if the block's transfer is still pending.
func eagerHomeDrop(n *Node, m mesh.Msg, _ uint64) {
	eagerDropOrHold(n, m.Addr, heldDrop{src: m.Src, wb: MsgKind(m.Kind) == MsgWriteBack})
}

// eagerHomeSharingWB absorbs the owner's concurrent write-back of a
// block a third party read; nobody waits for it.
func eagerHomeSharingWB(n *Node, m mesh.Msg) {
	n.mergeHome(m.Addr, m.Vals, ^uint64(0))
	n.memAccess(m.Size)
}

// eagerDropOrHold applies one copy-drop notification to the directory —
// unless it comes from the requester of the block's still-pending
// ownership transfer, in which case it is held until the transfer
// commits (XferDone) or aborts (FwdNack). Such a notification refers to
// the very copy the pending transfer is about to record: the requester
// received the owner's data and replaced the line before the (lost and
// retransmitted) XferDone reached home, so applying it before the
// commit makes the commit resurrect the dead copy. Drops from any other
// node touch only that node's directory membership, which the commit
// does not dispute — they commute with it and apply immediately.
func eagerDropOrHold(n *Node, block uint64, d heldDrop) {
	n.eagerUp = true
	if s := n.home.at(block); s != nil && s.episode == xferOpen && s.req.Src == d.src {
		s.held = append(s.held, d)
		return
	}
	eagerApplyDrop(n, block, d)
}

// eagerApplyDrop commits one copy-drop notification. A write-back from
// a node the directory no longer records as owner is stale — the owner
// re-fetched the block before its write-back landed — and must not
// untrack the live copy; eviction hints are unconditional.
func eagerApplyDrop(n *Node, block uint64, d heldDrop) {
	e := n.Dir.Peek(block)
	if e == nil {
		return
	}
	if d.wb && !e.Writers.Has(d.src) {
		return
	}
	e.Sharers.Remove(d.src)
	e.Writers.Remove(d.src)
	e.Recompute()
	n.Dir.Check(block, e)
}

// eagerReleaseHeld applies, in arrival order, the copy drops that were
// held while block's ownership transfer was pending. Called after the
// transfer's directory commit (or abort) and before deferred-queue
// service, so replayed requests observe the drops.
func eagerReleaseHeld(n *Node, block uint64) {
	s := n.home.at(block)
	for _, d := range s.held {
		eagerApplyDrop(n, block, d)
	}
	s.held = s.held[:0]
}

// eagerOwnerForward handles a forwarded request at the current owner.
// With a valid copy in hand it supplies the original requester
// (transferring ownership for writes, downgrading and writing back for
// reads) and confirms with XferDone, upon which the home commits the
// directory change. Without a copy — it was evicted, or the grant that
// makes this node owner is still in flight — it NACKs, and the home
// retries the original request against then-current state, exactly as
// DASH retries forwarded requests. Waiting at the owner instead would
// let two crossing transfers deadlock.
func eagerOwnerForward(n *Node, m mesh.Msg, _ uint64) {
	req := int(m.Arg)
	// NACK when the copy is gone — or when this node's own access to
	// the block is still pending (the fill landed but the store that
	// motivated it has not committed): yielding now would let the
	// block ping-pong without any processor making progress.
	if n.Cache.Lookup(m.Addr) == nil || n.txn(m.Addr) != nil {
		n.send(m.Src, MsgFwdNack, m.Addr, 0, 0, 0)
		return
	}
	if MsgKind(m.Kind) == MsgFwdRead {
		vals := n.copyVals(m.Addr)
		n.Cache.Downgrade(m.Addr)
		// Concurrent sharing write-back to the home's memory.
		n.sendData(m.Src, MsgSharingWB, m.Addr, n.lineBytes(), 0, 0, vals)
		n.sendData(req, MsgOwnerData, m.Addr, n.lineBytes(), uint64(directory.Shared), 0, vals)
	} else {
		// Yield the block entirely.
		vals := n.copyVals(m.Addr)
		n.loseCopy(m.Addr)
		n.sendData(req, MsgOwnerData, m.Addr, n.lineBytes(), uint64(directory.Dirty), 1, vals)
	}
	n.send(m.Src, MsgXferDone, m.Addr, 0, 0, 0)
}

// eagerCloseXfer ends the transfer window the owner's reply m (XferDone
// or FwdNack) answers and returns what was being transferred.
func eagerCloseXfer(n *Node, m mesh.Msg) mesh.Msg {
	s := n.home.at(m.Addr)
	if s == nil || s.episode != xferOpen {
		panic(fmt.Sprintf("protocol: node %d %v without pending transfer (block %d)", n.ID, MsgKind(m.Kind), m.Addr))
	}
	s.episode = noEpisode
	return s.req
}

// eagerXferDone commits a confirmed ownership transfer in the directory
// and releases the block's deferred requests.
func eagerXferDone(n *Node, m mesh.Msg) {
	x := eagerCloseXfer(n, m)
	e := n.Dir.Entry(m.Addr)
	req := x.Src
	if MsgKind(x.Kind) == MsgWriteReq {
		e.Sharers.Clear()
		e.Writers.Clear()
		e.Sharers.Add(req)
		e.Writers.Add(req)
		e.Recompute() // one sharer, writing: Dirty
	} else {
		e.Sharers.Add(req) // the old owner keeps a read-only copy
		e.Writers.Clear()
		e.Recompute()
	}
	n.Dir.Check(m.Addr, e)
	eagerReleaseHeld(n, m.Addr)
	eagerLeave(n, m.Addr)
}

// eagerFwdNack retries a request whose forwarded service failed. The
// transfer window closes and the original request joins the BACK of the
// block's deferred queue: any request the stale owner itself has queued
// (it re-requests immediately after losing its copy) is served first,
// restoring an owner the retry can be forwarded to — putting the retry
// first instead starves the owner and livelocks.
func eagerFwdNack(n *Node, m mesh.Msg) {
	x := eagerCloseXfer(n, m)
	eagerReleaseHeld(n, m.Addr)
	n.home.wait(pendingReq{m: x, memEnd: n.now()})
	eagerLeave(n, m.Addr)
}

// eagerInval invalidates a (clean) sharer's copy immediately and
// acknowledges the collecting home. Copies still in flight are flagged to
// die on arrival.
func eagerInval(n *Node, m mesh.Msg, _ uint64) {
	// A data fill still in flight dies on arrival; a present copy
	// dies now — including one with an outstanding upgrade request,
	// which lost the ownership race and will be re-resolved when the
	// home replays it.
	// A pending write-miss fill is left alone: its grant is
	// serialized after this collection at the home and must survive.
	if t := n.txn(m.Addr); t != nil && t.ExpectData && !t.IsWrite && !t.Data.IsOpen() {
		t.InvalidateOnFill = true
	} else {
		n.loseCopy(m.Addr)
	}
	n.send(m.Src, MsgInvalAck, m.Addr, 0, 0, 0)
}

// ---- Requester side ------------------------------------------------------

// eagerSendWriteReq opens an ownership transaction for block and asks
// the home — for the data too when no copy is resident, for the upgrade
// alone otherwise.
func eagerSendWriteReq(n *Node, block uint64) *Txn {
	t := n.newTxn(block)
	t.IsWrite = true
	arg := uint64(0)
	if n.Cache.Lookup(block) == nil {
		arg = wantData
		t.ExpectData = true
	}
	n.send(n.homeOf(block), MsgWriteReq, block, 0, arg, 0)
	return t
}

// eagerFill completes a data reply (from the home's memory or from the
// old owner) at the requester: the line lands read-write if the reply
// grants ownership (Aux 1), read-only otherwise — unless a racing
// invalidation marked the transaction, in which case it dies on arrival;
// then any buffered stores for the block are resolved.
func eagerFill(n *Node, m mesh.Msg) {
	st := cache.ReadOnly
	if m.Aux == 1 {
		st = cache.ReadWrite
	}
	n.mustTxn(m.Addr, "data reply")
	n.fillLine(m, st, eagerFilled)
}

func eagerFilled(n *Node, m mesh.Msg, _ uint64) {
	t := n.mustTxn(m.Addr, "data fill")
	t.Filled = true
	inv := t.InvalidateOnFill
	n.finishTxn(t)
	if inv {
		n.loseCopy(m.Addr) // the invalidation raced the fill
	}
	eagerRetireWB(n, m.Addr)
}

func eagerWriteDone(n *Node, m mesh.Msg) {
	t := n.mustTxn(m.Addr, "write done")
	if l := n.Cache.Lookup(m.Addr); l != nil && l.State == cache.ReadOnly {
		n.Cache.Upgrade(m.Addr)
	}
	n.finishTxn(t)
	eagerRetireWB(n, m.Addr)
}

// eagerRetireWB resolves a write-buffer entry once a transaction for its
// block completes: apply the stores if ownership arrived, start an
// upgrade if only data arrived, restart the miss if an invalidation won
// the race.
func eagerRetireWB(n *Node, block uint64) {
	if n.WB.Find(block) == nil {
		return
	}
	line := n.Cache.Lookup(block)
	switch {
	case line != nil && line.State == cache.ReadWrite:
		n.retireWB(block, (*Node).commitWB)
	case line != nil:
		// Data arrived read-only (merged read); request ownership.
		if n.txn(block) == nil {
			eagerSendWriteReq(n, block)
		}
	default:
		if t := n.txn(block); t != nil {
			t.Done.Subscribe(func() { n.restartWrite(block, MsgWriteReq, wantData) })
		} else {
			n.restartWrite(block, MsgWriteReq, wantData)
		}
	}
}
