package protocol

// Home side of the timestamp protocol. The directory keeps one lease
// record per block — wts, rts, and at most one exclusive owner — and no
// sharer vector at all: readers are never tracked, so nothing fans out
// when a block is written. The home's only serialization duty is
// per-block: one request in service at a time, later arrivals deferred
// in FIFO order, and a write request finding an owner opens a recall
// episode that completes when the owner's data (or nack) lands.

import (
	"lazyrc/internal/causal"
	"lazyrc/internal/directory"
	"lazyrc/internal/mesh"
)

// tardisHomeRequest admits a lease request (read, renew, or write),
// deferring it while the block is in service.
func tardisHomeRequest(n *Node, m mesh.Msg) {
	if n.home.enter(pendingReq{m: m}) {
		tardisHomeService(n, m)
	}
}

// tardisHomeService starts servicing one admitted request. An exclusive
// owner's copy supersedes home memory, so any request — even a renewal —
// first recalls the owner.
func tardisHomeService(n *Node, m mesh.Msg) {
	b := m.Addr
	td := n.td()
	l := n.Dir.Lease(b)
	if l.Owner != directory.NoOwner && l.Owner != m.Src {
		td.recall[b] = tardisRecall{owner: l.Owner, pending: m}
		end := n.ppAcquire(causal.KindDir, b, n.dirCost())
		n.replyAt(end, n.msg(l.Owner, MsgTRecall, b, 0, 0, 0))
		return
	}
	if l.Owner == m.Src {
		// The owner itself is asking again: a control-only grant raced a
		// clean eviction, so the node holds ownership with no copy and no
		// committed words. Home memory is still current; just retake the
		// grant from scratch.
		l.Owner = directory.NoOwner
		n.Dir.CheckLease(b, l)
	}
	switch MsgKind(m.Kind) {
	case MsgTReadReq:
		tardisHomeRead(n, m)
	case MsgTRenewReq:
		if l.Wts == m.Aux {
			tardisHomeRenew(n, m)
		} else {
			tardisHomeRead(n, m) // copy stale: renewal becomes a refetch
		}
	default: // MsgTWriteReq: tsDispatch routes only these three kinds here
		tardisHomeWrite(n, m)
	}
}

// extendLease grants a read lease covering the requester's clock:
// rts' = max(rts, pts + leaseLen, wts).
func extendLease(l *directory.Lease, pts uint64) {
	want := pts + leaseLen
	if want < l.Wts {
		want = l.Wts
	}
	if want > l.Rts {
		l.Rts = want
	}
}

// tardisHomeRead serves a read miss (or a stale-copy renewal): memory
// access and directory occupancy overlap; the data reply carries the
// version's wts and the extended lease.
func tardisHomeRead(n *Node, m mesh.Msg) {
	n.afterDir(m, true, tardisHomeReadDir)
}

func tardisHomeReadDir(n *Node, m mesh.Msg, memEnd uint64) {
	l := n.Dir.Lease(m.Addr)
	extendLease(l, m.Arg)
	n.Dir.CheckLease(m.Addr, l)
	n.at(max(n.now(), memEnd), tardisHomeReply,
		n.msg(m.Src, MsgTReadReply, m.Addr, n.lineBytes(), l.Wts, l.Rts), 0)
}

// tardisHomeReply sends the reply that ends a request's service and moves
// to the block's next request.
func tardisHomeReply(n *Node, reply mesh.Msg, _ uint64) {
	sendReply(n, reply, 0)
	tardisHomeNext(n, reply.Addr)
}

// tardisHomeRenew serves the renewal fast path: the requester's copy is
// provably current (wts matched), so only the lease end moves and no
// memory access or data transfer happens at all — the traffic the
// invalidation protocols can never avoid.
func tardisHomeRenew(n *Node, m mesh.Msg) {
	n.afterDir(m, false, tardisHomeRenewDir)
}

func tardisHomeRenewDir(n *Node, m mesh.Msg, _ uint64) {
	l := n.Dir.Lease(m.Addr)
	extendLease(l, m.Arg)
	n.Dir.CheckLease(m.Addr, l)
	n.send(m.Src, MsgTRenewAck, m.Addr, 0, l.Wts, l.Rts)
	tardisHomeNext(n, m.Addr)
}

// tardisHomeWrite grants exclusive ownership at ts = max(pts, rts+1) —
// the new version is ordered after every read the outstanding leases
// could serve, which is why nobody needs to be invalidated. Data rides
// along only if the requester has no copy or its copy's wts is stale.
func tardisHomeWrite(n *Node, m mesh.Msg) {
	wts := n.Dir.Lease(m.Addr).Wts
	n.afterDir(m, m.Aux&1 != 0 || (m.Aux&2 != 0 && m.Aux>>2 != wts), tardisHomeWriteDir)
}

// tardisHomeWriteDir grants the write request m; data rides along iff a
// memory access was started for it (memEnd, when it ends, is then nonzero).
func tardisHomeWriteDir(n *Node, m mesh.Msg, memEnd uint64) {
	l := n.Dir.Lease(m.Addr)
	ts := m.Arg
	if l.Rts+1 > ts {
		ts = l.Rts + 1
	}
	l.Wts, l.Rts, l.Owner = ts, ts, m.Src
	n.Dir.CheckLease(m.Addr, l)
	reply := n.msg(m.Src, MsgTWriteReply, m.Addr, 0, ts, 0)
	if memEnd != 0 {
		reply.Size, reply.Aux = n.lineBytes(), 1
	}
	n.at(max(n.now(), memEnd), tardisHomeReply, reply, 0)
}

// tardisHomeNext closes one service slot for block: the oldest deferred
// request enters service, or the block goes idle.
func tardisHomeNext(n *Node, block uint64) {
	if next, ok := n.home.leave(block); ok {
		tardisHomeService(n, next.m)
	}
}

// tardisAdoptOwnerCopy merges an owner's returned data (yield or
// eviction write-back) into home memory and clears ownership. The
// owner's copy is the globally latest version, so every word merges and
// its wts supersedes the home's record.
func tardisAdoptOwnerCopy(n *Node, m mesh.Msg) {
	n.mergeHome(m.Addr, m.Vals, m.Arg)
	l := n.Dir.Lease(m.Addr)
	if l.Owner == m.Src {
		l.Owner = directory.NoOwner
	}
	if m.Aux > l.Wts {
		l.Wts = m.Aux
		if l.Rts < l.Wts {
			l.Rts = l.Wts
		}
	}
	n.Dir.CheckLease(m.Addr, l)
}

// tardisHomeEpisodeEnd resumes the request that triggered the recall the
// owner's yield or nack m answers (or, if none is open, just releases
// the service slot).
func tardisHomeEpisodeEnd(n *Node, m mesh.Msg, _ uint64) {
	td := n.td()
	if rc, ok := td.recall[m.Addr]; ok {
		delete(td.recall, m.Addr)
		tardisHomeService(n, rc.pending)
		return
	}
	tardisHomeNext(n, m.Addr)
}

// tardisHomeWB handles an evicted owned block's data arriving home.
// Values merge at delivery (FIFO order); the modeled memory write and
// the protocol-processor notice overlap before the ack.
func tardisHomeWB(n *Node, m mesh.Msg) {
	tardisAdoptOwnerCopy(n, m)
	n.ackWriteAt(n.absorbPayload(m), m)
}

// tardisHomeYield handles a recalled block's data: adopt the copy, then
// serve the request the recall was holding.
func tardisHomeYield(n *Node, m mesh.Msg) {
	tardisAdoptOwnerCopy(n, m)
	n.at(n.absorbPayload(m), tardisHomeEpisodeEnd, m, 0)
}

// tardisHomeNack handles a recall that found no copy: the owner's
// eviction write-back travelled the same FIFO channel ahead of this
// nack, so home memory is already current and ownership already cleared
// (cleared again here only defensively).
func tardisHomeNack(n *Node, m mesh.Msg) {
	l := n.Dir.Lease(m.Addr)
	if l.Owner == m.Src {
		l.Owner = directory.NoOwner
		n.Dir.CheckLease(m.Addr, l)
	}
	end := n.ppAcquire(causal.KindDir, m.Addr, n.noticeCost())
	n.at(end, tardisHomeEpisodeEnd, m, 0)
}
