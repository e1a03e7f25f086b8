package protocol

import (
	"fmt"
	"slices"

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
	// q has an entry per block in service, in no order: a search of the
	// few a home serves at once, which the state hash walks without a map.
	q []serving
}

// serving is a block in service and its waiters, oldest first, with the
// eager family's episode open on it, if any: the ownership request whose
// invalidations (invals, until sent) are being collected, or the request
// whose forwarded service the owner has yet to confirm, and the copy drops
// held until that transfer closes (eagerDropOrHold). The slots past the
// end of q keep the storage of blocks gone idle, which the next block to
// enter service reuses.
type serving struct {
	block   uint64
	waiting []pendingReq
	episode episode
	req     mesh.Msg
	invals  []int
	held    []heldDrop
}

// episode is the eager family's episode open on a block in service.
type episode uint8

const (
	noEpisode episode = iota
	grantOpen         // req's invalidation acknowledgements are being collected
	xferOpen          // the owner has yet to serve the forwarded req
)

// at returns block's entry, or nil if it is idle.
func (h *homeSerial) at(block uint64) *serving {
	if i := h.find(block); i >= 0 {
		return &h.q[i]
	}
	return nil
}

// find returns the index of block's entry in q, or -1 if it is idle.
func (h *homeSerial) find(block uint64) int {
	for i := range h.q {
		if h.q[i].block == block {
			return i
		}
	}
	return -1
}

// enter claims p's block for p and reports true, or — the block being in
// service — queues p behind the earlier arrivals and reports false.
func (h *homeSerial) enter(p pendingReq) bool {
	if i := h.find(p.m.Addr); i >= 0 {
		h.q[i].waiting = append(h.q[i].waiting, p)
		return false
	}
	h.q = slices.Grow(h.q, 1)[:len(h.q)+1]
	s := &h.q[len(h.q)-1]
	*s = serving{block: p.m.Addr, waiting: s.waiting[:0], invals: s.invals[:0], held: s.held[:0]}
	return true
}

// wait puts p at the back of its block's queue without contending for
// service; the caller holds the block and is about to leave it.
func (h *homeSerial) wait(p pendingReq) {
	i := h.find(p.m.Addr)
	if i < 0 {
		panic(fmt.Sprintf("protocol: home queues a request for block %d, which is not in service", p.m.Addr))
	}
	h.q[i].waiting = append(h.q[i].waiting, p)
}

// leave ends the current request's service of block. The oldest waiter,
// if any, is handed over with the block still held on its behalf;
// otherwise the block goes idle.
func (h *homeSerial) leave(block uint64) (next pendingReq, ok bool) {
	i := h.find(block)
	if i < 0 {
		panic(fmt.Sprintf("protocol: home leaves block %d, which is not in service", block))
	}
	q := h.q[i].waiting
	if len(q) == 0 {
		last := len(h.q) - 1
		h.q[i], h.q[last] = h.q[last], h.q[i]
		h.q = h.q[:last]
		return pendingReq{}, false
	}
	next = q[0]
	k := copy(q, q[1:])
	q[k] = pendingReq{}
	h.q[i].waiting = q[:k]
	return next, true
}

// Residual reports the blocks still in service at the end of a run: a
// request was admitted and never finished.
func (h *homeSerial) Residual() error {
	if d := h.Debug(); d != "" {
		return fmt.Errorf("home service never finished:%s", d)
	}
	return nil
}

// Debug renders the blocks in service, how many requests wait behind
// each and their open episodes, for stall diagnostics.
func (h *homeSerial) Debug() string {
	s := ""
	for _, b := range h.q {
		s += fmt.Sprintf(" serving{block %d waiting:%d}", b.block, len(b.waiting))
		switch b.episode {
		case grantOpen:
			s += fmt.Sprintf(" grant{block %d writer %d want:%v}", b.block, b.req.Src, b.req.Arg&wantData != 0)
		case xferOpen:
			s += fmt.Sprintf(" xfer{block %d req %d %v}", b.block, b.req.Src, MsgKind(b.req.Kind))
		}
		if len(b.held) > 0 {
			s += fmt.Sprintf(" held{block %d n:%d}", b.block, len(b.held))
		}
	}
	return s
}

// fold adds a record per block in service, its queue in order, and one
// per open episode and per held-drop list.
func (h *homeSerial) fold(recs *fold.Bag) {
	for i := range h.q {
		b := &h.q[i]
		r := fold.Record(fold.Serving, b.block)
		for i := range b.waiting {
			foldMsg(&r, &b.waiting[i].m)
		}
		recs.Add(r)
		switch b.episode {
		case grantOpen:
			r := fold.Record(fold.Grant, b.block)
			r.Word(uint64(b.req.Src)<<1 | bit(b.req.Arg&wantData != 0))
			recs.Add(r)
		case xferOpen:
			r := fold.Record(fold.Xfer, b.block)
			foldMsg(&r, &b.req)
			recs.Add(r)
		}
		if len(b.held) > 0 {
			r := fold.Record(fold.Held, b.block)
			for _, d := range b.held {
				r.Word(uint64(d.src)<<1 | bit(d.wb))
			}
			recs.Add(r)
		}
	}
}

// HomeBusy reports whether this node, as home, has transient protocol
// machinery open for block — a request in service (an eager ownership
// transfer or grant in progress, a timestamp recall), requests queued
// behind it, or acknowledgements pending. While any of it is open,
// directory state and remote caches may legitimately disagree, so
// mid-run audits of the block must be skipped.
func (n *Node) HomeBusy(block uint64) bool {
	if n.home.find(block) >= 0 {
		return true
	}
	e := n.Dir.Peek(block)
	return e != nil && e.PendingAcks > 0
}

// HomeResidual reports leftover home-side machinery at the end of a run:
// a block still in service (an eager episode holds its block), or a
// timestamp recall left open.
func (n *Node) HomeResidual() error {
	if err := n.home.Residual(); err != nil {
		return err
	}
	if d := n.tardis.debug(); d != "" {
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
