package protocol

// Tardis: timestamp coherence in the style of Yu & Devadas (PACT '15).
// Instead of tracking sharers and fanning out invalidations, the home
// hands every reader a logical lease [wts, rts] on the block's current
// version: the copy may satisfy loads while the reader's program
// timestamp pts stays within the lease. A write creates a new version at
// ts = max(pts, rts+1) — logically *after* every read the old lease
// could have served — so stale copies need never be hunted down; they
// simply expire. Reading a copy drags pts forward to its wts
// (physiological time), which is what makes the total order real.
//
// This file holds the machinery shared by both timestamp protocols (the
// per-node clock, lease cache, compression/rebase, the requester-side
// message paths) plus Tardis proper, the sequentially consistent flavor:
// stores stall until ownership is granted, exactly like SC, so the only
// relaxation relative to SC is temporal (leases instead of
// invalidations), not ordering.

import (
	"fmt"
	"math/bits"

	"lazyrc/internal/cache"
	"lazyrc/internal/causal"
	"lazyrc/internal/fold"
	"lazyrc/internal/mesh"
)

// tsLease is a node-side cached lease for one line: the version's write
// timestamp and the end of the read lease granted by the home.
type tsLease struct {
	wts, rts uint64
}

// tardisNode bundles the per-node state of the timestamp protocols:
// requester-side logical clock and lease cache, and the home's open
// recall episodes for the blocks homed here. Allocated on first touch;
// nil on nodes running invalidation protocols.
type tardisNode struct {
	pts     uint64 // program timestamp
	bts     uint64 // compression base: leases store deltas from here
	rebases uint64 // times the base moved (compression overflows)

	leases map[uint64]tsLease // cached leases by block

	// Home side: the block of an open recall is in service in n.home
	// on the pending request's behalf.
	recall map[uint64]*tardisRecall
}

// tardisRecall is one open recall episode at a home: the owner has been
// asked to yield block, and the request that triggered the recall waits
// for the yield (or nack) to land.
type tardisRecall struct {
	owner   int
	pending mesh.Msg
}

// td returns the node's timestamp state, allocating it on first touch —
// a load or store miss, a sync operation, or the first request served
// as home. Node.fold folds in whether it exists, so the point of
// first touch is visible to the model checker's state hash.
func (n *Node) td() *tardisNode {
	if n.tardis == nil {
		n.tardis = &tardisNode{
			leases: make(map[uint64]tsLease),
			recall: make(map[uint64]*tardisRecall),
		}
	}
	return n.tardis
}

// ---- Lease cache and timestamp compression ------------------------------

// tsMaxDelta returns the largest timestamp delta the node's bounded
// lease storage can represent (the compression knob).
func (n *Node) tsMaxDelta() uint64 {
	return 1<<uint(n.Env.Cfg.TSDeltaBits) - 1
}

// installLease records a lease for block, rebasing the compression base
// when the new lease's timestamps do not fit as deltas. A rebase clamps
// surviving leases' wts up to the new base (only weakens the renewal
// fast path — the home proves currency by wts match) and expires leases
// whose rts falls below it (a copy we can no longer prove fresh is
// treated as stale, which is always safe).
func (n *Node) installLease(block uint64, l tsLease) {
	td := n.td()
	if l.rts > td.bts+n.tsMaxDelta() {
		newBase := l.rts - n.tsMaxDelta()
		td.rebases++
		for b, old := range td.leases {
			if old.rts < newBase {
				delete(td.leases, b)
				continue
			}
			if old.wts < newBase {
				old.wts = newBase
				td.leases[b] = old
			}
		}
		td.bts = newBase
	}
	if l.wts < td.bts {
		l.wts = td.bts
	}
	td.leases[block] = l
}

// bumpPTS advances the program timestamp to ts (monotonic max).
func (n *Node) bumpPTS(ts uint64) {
	td := n.td()
	if ts > td.pts {
		td.pts = ts
	}
}

// ---- Fast paths ----------------------------------------------------------

// tardisReadHit is both timestamp protocols' load fast path: an owned
// line always satisfies the load; a read copy satisfies it while the
// lease covers pts. Reading drags pts to the version's wts
// (physiological time). Pure counter updates — runs on the processor's
// private clock.
func tardisReadHit(n *Node, block uint64) bool {
	line := n.Cache.Lookup(block)
	if line == nil {
		return false
	}
	td := n.td()
	l, ok := td.leases[block]
	if line.State == cache.ReadWrite {
		// Owner: the copy is the globally latest version.
		n.bumpPTS(l.wts)
		return true
	}
	if !ok {
		return false // lease lost to a rebase; refetch
	}
	if n.Env.Cfg.Mutation != "skip-lease-renewal" && td.pts > l.rts {
		return false // lease expired; CPURead renews it
	}
	n.bumpPTS(l.wts)
	return true
}

// tardisWriteHit is the store fast path: only the exclusive owner writes
// without messages. The store creates a new version at
// ts = max(pts, rts+1), after every load the old lease could serve.
func tardisWriteHit(n *Node, block uint64, word int) bool {
	line := n.Cache.Lookup(block)
	if line == nil || line.State != cache.ReadWrite {
		return false
	}
	td := n.td()
	l := td.leases[block]
	ts := td.pts
	if l.rts+1 > ts {
		ts = l.rts + 1
	}
	n.installLease(block, tsLease{wts: ts, rts: ts})
	td.pts = ts
	n.commitWB(block, word)
	return true
}

// ---- Load path -----------------------------------------------------------

// tardisCPURead performs a load that missed the fast path: merge onto an
// outstanding transaction, renew an expired lease (control-only when the
// copy is provably current), or fetch the line with a fresh lease.
func tardisCPURead(n *Node, block uint64, word int) {
	n.reclaimTxns()
	td := n.td()
	for {
		if tardisReadHit(n, block) {
			return
		}
		if t := n.txn(block); t != nil {
			if !t.Data.IsOpen() {
				n.PS.ReadStall += n.waitStall(&t.Data, t.CT, causal.StallRead, "merged read fill")
			} else {
				n.PS.ReadStall += n.waitStall(&t.Done, t.CT, causal.StallRead, "transaction completion")
			}
			continue
		}
		line := n.Cache.Lookup(block)
		if l, ok := td.leases[block]; ok && line != nil {
			// Expired lease on a resident copy: ask the home to extend
			// it, proving currency with the cached wts. The reply is an
			// ack (copy current) or a full data reply (copy stale).
			n.countMiss(block, word, true)
			t := n.newTxn(block)
			n.send(n.homeOf(block), MsgTRenewReq, block, 0, td.pts, l.wts)
			n.PS.ReadStall += n.waitStall(&t.Data, t.CT, causal.StallRead, "lease renewal")
			continue
		}
		n.countMiss(block, word, false)
		t := n.newTxn(block)
		t.ExpectData = true
		n.send(n.homeOf(block), MsgTReadReq, block, 0, td.pts, 0)
		n.PS.ReadStall += n.waitStall(&t.Data, t.CT, causal.StallRead, "read fill")
		if t.Filled {
			return
		}
	}
}

// tardisReadReply handles a data reply carrying a fresh lease (a read
// miss fill, or a renewal whose cached copy turned out stale).
func tardisReadReply(n *Node, m mesh.Msg) {
	n.mustTxn(m.Addr, "lease reply")
	n.installLease(m.Addr, tsLease{wts: m.Arg, rts: m.Aux})
	n.fillLine(m, cache.ReadOnly, tardisFilled)
}

// tardisFilled is the bus completion of the data reply m.
func tardisFilled(n *Node, m mesh.Msg, _ uint64) {
	tardisComplete(n, n.mustTxn(m.Addr, "fill"))
}

// tardisComplete finishes a transaction whose lease (and data, if any
// was due) has landed, then commits the block's buffered stores.
func tardisComplete(n *Node, t *Txn) {
	t.Filled = true
	n.finishTxn(t)
	tardisRetireWB(n, t.Block)
}

// tardisRenewAck handles the control-only renewal fast path: the cached
// copy was current, only the lease end moved.
func tardisRenewAck(n *Node, m mesh.Msg) {
	t := n.mustTxn(m.Addr, "renew ack")
	n.installLease(m.Addr, tsLease{wts: m.Arg, rts: m.Aux})
	tardisComplete(n, t)
}

// ---- Store path ----------------------------------------------------------

// tardisSendWriteReq opens an ownership transaction for block and asks
// the home. With a leased resident copy the request carries the cached
// wts so the home can grant control-only when the copy is current; a
// bare request asks for data unconditionally.
func tardisSendWriteReq(n *Node, block uint64) *Txn {
	td := n.td()
	t := n.newTxn(block)
	t.IsWrite = true
	aux := uint64(wantData)
	if l, ok := td.leases[block]; ok && n.Cache.Lookup(block) != nil {
		aux = 2 | l.wts<<2
	} else {
		t.ExpectData = true
	}
	n.send(n.homeOf(block), MsgTWriteReq, block, 0, td.pts, aux)
	return t
}

// tardisWriteReply handles an ownership grant. The store's version
// timestamp is Arg; data rides along iff the home could not prove our
// copy current (Aux&1). The buffered store commits in the same event as
// the grant.
func tardisWriteReply(n *Node, m mesh.Msg) {
	t := n.mustTxn(m.Addr, "write grant")
	n.installLease(m.Addr, tsLease{wts: m.Arg, rts: m.Arg})
	n.bumpPTS(m.Arg)
	if m.Aux&1 != 0 {
		n.fillLine(m, cache.ReadWrite, tardisFilled)
		return
	}
	// Control-only grant: upgrade the resident copy in place. The copy
	// can have been evicted while the request was in flight (a
	// conflicting fill); we are then an owner without data — retireWB's
	// restart path refetches, and recalls meanwhile find no copy and
	// nack, which is safe because the evicted copy was clean.
	if line := n.Cache.Lookup(m.Addr); line != nil {
		n.Cache.Upgrade(m.Addr)
	}
	tardisComplete(n, t)
}

// tardisRetireWB commits buffered stores for block once ownership and
// data are both present, mirroring the eager protocols' retirement: if
// the line is owned, drain the write buffer into it; if only a read copy
// (or nothing) is resident, (re)start the ownership request.
func tardisRetireWB(n *Node, block uint64) {
	if n.WB.Find(block) == nil {
		return
	}
	line := n.Cache.Lookup(block)
	switch {
	case line != nil && line.State == cache.ReadWrite:
		words := n.WB.Retire(block).Words
		for m := words; m != 0; m &= m - 1 {
			tardisWriteHit(n, block, bits.TrailingZeros64(m))
		}
		n.wbRetired()
	default:
		if t := n.txn(block); t != nil {
			t.Done.Subscribe(func() { tardisRetireWB(n, block) })
			return
		}
		tardisSendWriteReq(n, block)
	}
}

// ---- Recall (owner side) -------------------------------------------------

// tardisYieldOrNack answers the home's request to yield an owned block,
// once the protocol processor has taken the notice: the copy is dropped
// and its data travels home. A recall that finds no copy nacks — the
// owner's eviction write-back is already on the wire ahead of the nack
// (same FIFO channel), so the home always merges the data before trusting
// memory. An ownership grant whose fill is still in flight —
// the line sits in the cache read-write but the transaction is open —
// holds the recall until the fill lands: answering early would yield a
// copy missing the very store the grant was for, and the write requester
// behind the recall would restart into the same race, livelocking two
// contending writers.
func tardisYieldOrNack(n *Node, m mesh.Msg, _ uint64) {
	block := m.Addr
	line := n.Cache.Lookup(block)
	if line == nil || line.State != cache.ReadWrite {
		// No owned copy (and any in-flight transaction here is a request
		// still queued at the home — nacking now is what unblocks it).
		n.send(m.Src, MsgTNack, block, 0, 0, 0)
		return
	}
	if t := n.txn(block); t != nil {
		t.Done.Subscribe(func() { tardisYieldOrNack(n, m, 0) })
		return
	}
	// When resumed from the Done subscription this runs ahead of the
	// reply handler's own retirement; drain the write buffer first so the
	// yielded copy carries the granted store.
	tardisRetireWB(n, block)
	td := n.td()
	wts := td.leases[block].wts
	vals := n.copyVals(block)
	n.loseCopy(block)
	delete(td.leases, block)
	n.sendData(m.Src, MsgTYield, block, n.lineBytes(), ^uint64(0), wts, vals)
}

// tardisEvict ships a replaced owned line's data home (the home cleared
// us as owner when the write-back lands); clean read copies drop
// silently — the home keeps no sharer record to update, which is the
// protocol's whole point.
func tardisEvict(n *Node, v cache.Line) {
	td := n.td()
	wts := td.leases[v.Block].wts
	delete(td.leases, v.Block)
	if v.Dirty != 0 {
		n.wtPending++
		n.sendData(n.homeOf(v.Block), MsgTWB, v.Block, n.lineBytes(), ^uint64(0), wts, n.copyVals(v.Block))
	}
}

// debug renders the open recalls, for stall diagnostics and the
// end-of-run check: the request a recall holds was admitted and never
// finished service.
func (td *tardisNode) debug() string {
	if td == nil {
		return ""
	}
	s := ""
	for b, rc := range td.recall {
		s += fmt.Sprintf(" trecall{block %d owner %d}", b, rc.owner)
	}
	return s
}

func (td *tardisNode) fold(h *fold.Rec, recs *fold.Bag) {
	h.Word(td.pts)
	h.Word(td.bts)
	h.Word(td.rebases)
	for blk, l := range td.leases {
		r := fold.Record(fold.NodeLease, blk)
		r.Word(l.wts)
		r.Word(l.rts)
		recs.Add(r)
	}
	for blk, rc := range td.recall {
		r := fold.Record(fold.Recall, blk)
		r.Word(uint64(rc.owner))
		foldMsg(&r, &rc.pending)
		recs.Add(r)
	}
}

// ---- Shared protocol plumbing -------------------------------------------

// tsPaths is the timestamp family (tardis, tardis2): the fast paths,
// eviction, the lease home of tardis_home.go, and sync timestamp
// piggybacking. Acquires do no consistency work unless the protocol
// overrides AcquireEnd (tardis2's lease sweep).
type tsPaths struct{}

func (tsPaths) Lazy() bool                      { return false }
func (tsPaths) WriteBack() bool                 { return true }
func (tsPaths) handlers() *dispatch             { return tsDispatch }
func (tsPaths) AcquireBegin(n *Node)            {}
func (tsPaths) AcquireEnd(n *Node, done func()) { done() }

func (tsPaths) ReadHit(n *Node, block uint64) bool            { return tardisReadHit(n, block) }
func (tsPaths) WriteHit(n *Node, block uint64, word int) bool { return tardisWriteHit(n, block, word) }
func (tsPaths) Evict(n *Node, v cache.Line)                   { tardisEvict(n, v) }
func (tsPaths) CPURead(n *Node, block uint64, word int)       { tardisCPURead(n, block, word) }

// ReleaseTS stamps release-class sync messages with the releaser's
// clock; AcquireTS folds a grant's stamp into the acquirer's clock
// before AcquireEnd runs. Together they order lease expiry after the
// releases the program observed (physiological time across sync).
func (tsPaths) ReleaseTS(n *Node) uint64 { return n.td().pts }
func (tsPaths) AcquireTS(n *Node, ts uint64) {
	td := n.td()
	if ts > td.pts {
		td.pts = ts
	}
}

// tsDispatch is the timestamp family's message interface: home side
// first, then the requester's replies and the owner's recall.
var tsDispatch = dispatch{
	MsgTReadReq:  tardisHomeRequest,
	MsgTRenewReq: tardisHomeRequest,
	MsgTWriteReq: tardisHomeRequest,
	MsgTWB:       tardisHomeWB,
	MsgTYield:    tardisHomeYield,
	MsgTNack:     tardisHomeNack,

	MsgTReadReply:  tardisReadReply,
	MsgTRenewAck:   tardisRenewAck,
	MsgTWriteReply: tardisWriteReply,
	MsgTRecall:     afterPP(causal.KindDir, (*Node).noticeCost, tardisYieldOrNack),
}.withShared()

// ---- Tardis (sequentially consistent flavor) -----------------------------

// Tardis is the SC flavor: every store stalls until ownership is
// granted, so the memory order is exactly SC's and the protocols differ
// only in how readers learn about writes (lease expiry vs invalidation).
type Tardis struct{ tsPaths }

func (*Tardis) Name() string { return "tardis" }

// CPUWrite performs a stalling store, mirroring SC: the write buffer is
// a one-deep MSHR, and the CPU parks until the grant commits the store.
func (*Tardis) CPUWrite(n *Node, block uint64, word int) {
	stallingStore(n, block, word, tardisSendWriteReq, "prior transaction")
}

// Release is a no-op, as under SC: every store already performed before
// the program moved past it. In-flight eviction write-backs are safe to
// leave behind — the home defers requests for a recalled block until
// the owner's (FIFO-ordered) data lands.
func (*Tardis) Release(n *Node) {}
