package protocol

import (
	"fmt"

	"lazyrc/internal/causal"
	"lazyrc/internal/fold"
	"lazyrc/internal/mesh"
)

// This file holds what every home controller shares: the per-block
// request serializer, the memory/protocol-processor charges for data
// arriving home, and the node-level views (busy, residual) built on
// them. What a home *does* with an admitted request — collect notice
// acks, forward through an owner, recall a lease — is the family's own
// (home_lazy.go, home_eager.go, tardis_home.go).

// pendingReq is a deferred request together with the completion time of
// the memory access that was started speculatively when it first arrived.
// The memory module is charged exactly once per request — re-charging on
// every queue-service attempt would let the memory backlog outrun
// simulated time under contention.
type pendingReq struct {
	m      mesh.Msg
	memEnd uint64
}

// homeSerial serializes a home's requests per block: at most one request
// per block is in service, and the ones that arrive meanwhile wait in
// arrival order. It decides only *serve now or queue*; when a block
// counts as in service is the family's policy:
//
//   - timestamp homes hold the block from a request's arrival until its
//     reply is sent, across any recall in between;
//   - eager homes enter when the directory is read and leave in the same
//     event unless the request opened a forward (xfer) or an invalidation
//     collection (grant), which hold the block until they close — so
//     between events a block is in service only across such an episode
//     or the re-service of a queue head;
//   - lazy homes never enter: overlapping write requests share one
//     notice collection and reads are never forwarded.
//
// The zero value is ready to use.
type homeSerial struct {
	// q has a key per block in service; the value is that block's
	// waiters, oldest first.
	q map[uint64][]pendingReq
	// spare holds the emptied queues of blocks gone idle, storage the
	// next block to enter service reuses.
	spare [][]pendingReq
}

// enter claims p's block for p and reports true, or — the block being in
// service — queues p behind the earlier arrivals and reports false.
func (h *homeSerial) enter(p pendingReq) bool {
	block := p.m.Addr
	if q, inService := h.q[block]; inService {
		h.q[block] = append(q, p)
		return false
	}
	if h.q == nil {
		h.q = make(map[uint64][]pendingReq)
	}
	var q []pendingReq
	if k := len(h.spare); k > 0 {
		q, h.spare = h.spare[k-1], h.spare[:k-1]
	}
	h.q[block] = q
	return true
}

// wait puts p at the back of its block's queue without contending for
// service; the caller holds the block and is about to leave it.
func (h *homeSerial) wait(p pendingReq) {
	q, inService := h.q[p.m.Addr]
	if !inService {
		panic(fmt.Sprintf("protocol: home queues a request for block %d, which is not in service", p.m.Addr))
	}
	h.q[p.m.Addr] = append(q, p)
}

// leave ends the current request's service of block. The oldest waiter,
// if any, is handed over with the block still held on its behalf;
// otherwise the block goes idle.
func (h *homeSerial) leave(block uint64) (next pendingReq, ok bool) {
	q, inService := h.q[block]
	if !inService {
		panic(fmt.Sprintf("protocol: home leaves block %d, which is not in service", block))
	}
	if len(q) == 0 {
		delete(h.q, block)
		if cap(q) > 0 {
			h.spare = append(h.spare, q)
		}
		return pendingReq{}, false
	}
	next = q[0]
	k := copy(q, q[1:])
	q[k] = pendingReq{}
	h.q[block] = q[:k]
	return next, true
}

// inService reports whether block is held by a request.
func (h *homeSerial) inService(block uint64) bool {
	_, ok := h.q[block]
	return ok
}

// Residual reports the blocks still in service at the end of a run: a
// request was admitted and never finished.
func (h *homeSerial) Residual() error {
	if d := h.Debug(); d != "" {
		return fmt.Errorf("home service never finished:%s", d)
	}
	return nil
}

// Debug renders the blocks in service and how many requests wait behind
// each, for stall diagnostics.
func (h *homeSerial) Debug() string {
	s := ""
	for block, q := range h.q {
		s += fmt.Sprintf(" serving{block %d waiting:%d}", block, len(q))
	}
	return s
}

// fold adds a record per block in service, its queue in order.
func (h *homeSerial) fold(recs *fold.Bag) {
	for block, q := range h.q {
		r := fold.Record(fold.Serving, block)
		for i := range q {
			foldMsg(&r, &q[i].m)
		}
		recs.Add(r)
	}
}

// HomeBusy reports whether this node, as home, has transient protocol
// machinery open for block — a request in service (an eager ownership
// transfer or grant in progress, a timestamp recall), requests queued
// behind it, or acknowledgements pending. While any of it is open,
// directory state and remote caches may legitimately disagree, so
// mid-run audits of the block must be skipped.
func (n *Node) HomeBusy(block uint64) bool {
	if n.home.inService(block) {
		return true
	}
	e := n.Dir.Peek(block)
	return e != nil && e.PendingAcks > 0
}

// HomeResidual reports leftover home-side machinery at the end of a run:
// a block still in service, or an episode its family left open (eager
// grant, transfer or held copy-drop; timestamp recall).
func (n *Node) HomeResidual() error {
	if err := n.home.Residual(); err != nil {
		return err
	}
	if d := n.eagerHome.debug(n) + n.tardis.debug(); d != "" {
		return fmt.Errorf("home episode left open at end of run:%s", d)
	}
	return nil
}

// memAccess starts a memory-module access for b payload bytes now and
// returns its completion time.
func (n *Node) memAccess(b int) uint64 {
	req := n.now()
	start, end := n.Mem.Acquire(req, n.memCycles(b))
	n.Env.Causal.Service(causal.KindMem, n.ID, 0, req, start, end)
	return end
}

// afterDir starts the home's service of the request m: the memory fetch,
// if the reply will carry the line, overlaps the directory access, after
// which then runs, given the time the fetch ends (0 without one).
func (n *Node) afterDir(m mesh.Msg, fetch bool, then func(*Node, mesh.Msg, uint64)) {
	var memEnd uint64
	if fetch {
		memEnd = n.memAccess(n.lineBytes())
	}
	n.at(n.ppAcquire(causal.KindDir, m.Addr, n.dirCost()), then, m, memEnd)
}

// absorbPayload charges the home for a data message whose values were
// already merged at delivery: the protocol processor takes the notice
// while the memory module writes m's payload, and the later of the two
// completion times is returned.
func (n *Node) absorbPayload(m mesh.Msg) uint64 {
	ppEnd := n.ppAcquire(causal.KindDir, m.Addr, n.noticeCost())
	memEnd := n.memAccess(m.Size)
	return max(ppEnd, memEnd)
}

// ackWriteAt acknowledges the write-through or write-back m at time at,
// once home memory has absorbed it.
func (n *Node) ackWriteAt(at uint64, m mesh.Msg) {
	n.replyAt(at, n.msg(m.Src, MsgWTAck, m.Addr, 0, 0, 0))
}

// wtAck retires one write-through or write-back at its sender.
func wtAck(n *Node, _ mesh.Msg) {
	n.wtPending--
	n.checkDrain()
}
