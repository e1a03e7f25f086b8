package protocol

import (
	"fmt"

	"lazyrc/internal/cache"
	"lazyrc/internal/causal"
	"lazyrc/internal/config"
	"lazyrc/internal/directory"
	"lazyrc/internal/mesh"
	"lazyrc/internal/perf"
	"lazyrc/internal/sim"
	"lazyrc/internal/stats"
)

// Env is the machine-wide state shared by all protocol nodes.
type Env struct {
	Eng   *sim.Engine
	Net   *mesh.Network
	Cfg   config.Config
	Stats *stats.Machine
	Class *stats.Classifier
	Nodes []*Node

	// Vals, when non-nil, is the value store: what each cache copy and
	// home line actually holds (values.go). Nil for performance runs.
	Vals *Values

	// Causal, when non-nil, records every coherence transaction, stall
	// episode, and hardware service interval as causally-linked spans.
	// Strictly passive — it observes cycle stamps the timing model
	// already computed — and all hooks are nil-receiver no-ops.
	Causal *causal.Tracer

	// pageHome is the FirstTouch page-placement table (-1 = untouched).
	pageHome []int

	// conts parks the continuations Node.at has scheduled; an event of
	// contKind carries the handle.
	conts    sim.Slab[cont]
	contKind sim.Kind
}

// cont is a parked continuation: the second half of a message handler,
// due once the protocol processor, memory or bus has been occupied.
type cont struct {
	fn func(*Node, mesh.Msg, uint64)
	n  *Node
	m  mesh.Msg
	x  uint64
}

// at schedules fn(n, m, x) for time t without allocating. fn is a
// top-level function like the dispatch tables' handlers; m is usually the
// message whose handling it continues and x the one scalar the first half
// computed for it (when the memory access it started ends; 0 if none).
func (n *Node) at(t sim.Time, fn func(*Node, mesh.Msg, uint64), m mesh.Msg, x uint64) {
	env := n.Env
	slot := env.conts.Alloc()
	c := env.conts.At(slot)
	c.fn, c.n, c.m, c.x = fn, n, m, x
	env.Eng.Post(t, env.contKind, slot)
}

// runCont is the contKind event: it copies the continuation out and frees
// its slot before running it, as it may schedule others.
func (e *Env) runCont(slot uint32) {
	c := *e.conts.At(slot)
	e.conts.Free(slot)
	c.fn(c.n, c.m, c.x)
}

// HomeOf returns the home node of a coherence block. Shared pages are
// interleaved round-robin across the machine by default; under the
// FirstTouch policy a page that has been touched lives at its first
// toucher (untouched pages fall back to interleaving).
func (e *Env) HomeOf(block uint64) int {
	page := block * uint64(e.Cfg.LineSize) / uint64(e.Cfg.PageSize)
	if e.Cfg.FirstTouch && page < uint64(len(e.pageHome)) {
		if h := e.pageHome[page]; h >= 0 {
			return h
		}
	}
	return int(page % uint64(e.Cfg.Procs))
}

// TouchPage records the first simulated access to the page containing
// addr, assigning the page's home under the FirstTouch policy. Later
// touches are no-ops.
func (e *Env) TouchPage(addr uint64, node int) {
	if !e.Cfg.FirstTouch {
		return
	}
	page := addr / uint64(e.Cfg.PageSize)
	for uint64(len(e.pageHome)) <= page {
		e.pageHome = append(e.pageHome, -1)
	}
	if e.pageHome[page] < 0 {
		e.pageHome[page] = node
	}
}

// Txn is one outstanding coherence transaction at its requesting node —
// the equivalent of a RAC entry in the DASH protocol. At most one
// transaction per block is outstanding per node; later accesses to the
// same block merge onto it.
type Txn struct {
	Block uint64
	// Data opens when the block's data has been filled into the cache
	// (or, for data-less upgrades, when no data will come). CPU stalls
	// and write-buffer retirements wait here.
	Data sim.Gate
	// Done opens when the transaction is globally performed (ownership
	// granted, all notices acknowledged). Releases drain on this.
	Done sim.Gate
	// InvalidateOnFill is set when a notice or invalidation arrived for
	// a block whose fill is still in flight; the copy is dropped the
	// moment it lands.
	InvalidateOnFill bool
	// ExpectData marks a transaction that will receive a data reply.
	ExpectData bool
	// IsWrite marks an ownership-acquiring transaction. Invalidations
	// arriving while it waits concern the requester's old sharer status,
	// never the future grant (the home serializes collections against
	// grants), so they must not kill the fill when it finally lands.
	IsWrite bool
	// Filled records that the data reply actually arrived. A load parked
	// on this transaction is satisfied by the arriving data even when a
	// racing invalidation drops the copy in the same instant — the value
	// was bound when the line came in, as in real hardware. Without this
	// a contended read retries from scratch and write-heavy sharing
	// patterns amplify pathologically.
	Filled bool
	// DoneEarly records that the completion (WriteDone) overtook the
	// data reply in the network; the transaction finishes when the data
	// lands.
	DoneEarly bool
	// CT is the causal transaction id assigned at creation when tracing
	// is enabled (0 otherwise). Messages and stall episodes on this
	// transaction's chain reference it; finishTxn closes its root span.
	CT, ctRoot uint64
}

// Node is one processor node: CPU-side cache structures, the protocol
// processor, the local memory module and bus, and the directory for the
// blocks homed here.
type Node struct {
	ID    int
	Env   *Env
	Proto Protocol

	Cache *cache.Cache
	WB    *cache.WriteBuffer
	CB    *cache.CoalescingBuffer

	PP  *sim.Resource // protocol processor occupancy
	Mem *sim.Resource // local memory module
	Bus *sim.Resource // local bus (cache fills)

	Dir *directory.Directory

	CPU *sim.Context
	PS  *stats.Proc

	outstanding  map[uint64]*Txn
	nOutstanding int
	txnRetired   []*Txn // finished since the CPU entered its current access
	txnSpare     []*Txn // finished before it: free for newTxn
	wtPending    int    // write-throughs / write-backs awaiting memory acks

	pendInv    []uint64 // blocks to invalidate at the next acquire (FIFO)
	pendInvSet map[uint64]bool

	delayed    []uint64 // lazier protocol: unposted write notices (FIFO)
	delayedSet map[uint64]bool
	posting    []uint64 // the notices takeDelayed last handed out
	fanout     []int    // a home's notice targets, storage for the next

	releaseParked bool // CPU is parked in a release drain
	wbParked      bool // CPU is parked on a full write buffer

	seq      *mesh.Sequencer // exactly-once in-order delivery under faults
	handlers *dispatch       // the protocol family's message handlers

	home      homeSerial  // per-block request serialization for blocks homed here
	eagerHome *eagerState // lazily allocated eager-protocol home state
	tardis    *tardisNode // lazily allocated timestamp-protocol state

	sync syncNode
}

// NewNode builds a node; the machine package wires CPU contexts and
// workloads afterwards.
func NewNode(env *Env, id int, proto Protocol) *Node {
	cfg := env.Cfg
	n := &Node{
		ID:    id,
		Env:   env,
		Proto: proto,
		Cache: cache.New(cfg.Lines()),
		WB:    cache.NewWriteBuffer(cfg.WBEntries),
		CB:    cache.NewCoalescingBuffer(cfg.CBEntries),
		PP:    new(sim.Resource),
		Mem:   new(sim.Resource),
		Bus:   new(sim.Resource),
		Dir:   directory.New(cfg.Procs, cfg.CheckInvariants),
		PS:    &env.Stats.Procs[id],

		outstanding: make(map[uint64]*Txn),
		pendInvSet:  make(map[uint64]bool),
		delayedSet:  make(map[uint64]bool),
		seq:         mesh.NewSequencer(cfg.Procs),
		handlers:    proto.handlers(),
	}
	n.sync.init()
	n.reset()
	env.Net.Handle(id, n.Deliver)
	if env.contKind == 0 { // the machine's first node
		env.contKind = env.Eng.Register(perf.PhaseProtocol, env.runCont)
	}
	return n
}

// Reset rewinds the protocol state of the machine to what NewNode left
// it: no continuation parked, no page touched, no value held, and every
// node's parts and own state as new. The engine, network and statistics
// are the machine's to rewind; the wiring (handlers, event kind) stays.
func (e *Env) Reset() {
	e.conts.Reset()
	e.pageHome = e.pageHome[:0]
	if e.Vals != nil {
		e.Vals.reset()
	}
	for _, n := range e.Nodes {
		n.Cache.Reset()
		n.WB.Reset()
		n.CB.Reset()
		*n.PP, *n.Mem, *n.Bus = sim.Resource{}, sim.Resource{}, sim.Resource{}
		n.Dir.Reset()
		n.seq.Reset()
		n.reset()
	}
}

// reset sets the node's own state as NewNode leaves it, keeping storage:
// maps are cleared, queues emptied and retired transaction records made
// spare. The family's home state goes back to not allocated, which the
// state hash tells apart from allocated and empty.
func (n *Node) reset() {
	n.CPU = nil
	clear(n.outstanding)
	n.nOutstanding, n.wtPending = 0, 0
	n.reclaimTxns()
	n.pendInv, n.delayed, n.posting = n.pendInv[:0], n.delayed[:0], n.posting[:0]
	n.fanout = n.fanout[:0]
	clear(n.pendInvSet)
	clear(n.delayedSet)
	n.releaseParked, n.wbParked = false, false
	clear(n.home.q)
	n.eagerHome, n.tardis = nil, nil
	n.sync.reset()
}

// Deliver routes an arriving message to its handler in the family's
// dispatch table (synchronization traffic reaches the sync manager
// through the table's shared entries). Messages stamped with a
// transport sequence number (fault injection active) first pass through
// the node's sequencer, which suppresses duplicates and late
// retransmitted originals and holds early arrivals until the gap fills —
// a single point that makes every protocol and sync handler idempotent
// and order-safe under loss, duplication, and retransmission.
func (n *Node) Deliver(m mesh.Msg) {
	n.seq.Admit(m, n.deliver)
}

func (n *Node) deliver(m mesh.Msg) {
	if uint(m.Kind) < uint(len(n.handlers)) {
		if h := n.handlers[m.Kind]; h != nil {
			h(n, m)
			return
		}
	}
	panic(fmt.Sprintf("protocol: %s node %d got unexpected %v", n.Proto.Name(), n.ID, MsgKind(m.Kind)))
}

// msg builds a message from this node.
func (n *Node) msg(dst int, kind MsgKind, block uint64, size int, arg, aux uint64) mesh.Msg {
	return mesh.Msg{
		Src: n.ID, Dst: dst, Kind: int(kind), Size: size,
		Addr: block, Arg: arg, Aux: aux,
	}
}

// send dispatches a message from this node.
func (n *Node) send(dst int, kind MsgKind, block uint64, size int, arg, aux uint64) {
	n.Env.Net.Send(n.msg(dst, kind, block, size, arg, aux))
}

// sendData dispatches a payload-bearing message carrying a value snapshot
// for the value store (vals is nil when no store is attached).
func (n *Node) sendData(dst int, kind MsgKind, block uint64, size int, arg, aux uint64, vals []uint64) {
	m := n.msg(dst, kind, block, size, arg, aux)
	m.Vals = vals
	n.Env.Net.Send(m)
}

// replyAt dispatches m, a home's reply built now, at time t; one with a
// payload carries home memory's line as it is then.
func (n *Node) replyAt(t sim.Time, m mesh.Msg) { n.at(t, sendReply, m, 0) }

func sendReply(n *Node, m mesh.Msg, _ uint64) {
	if m.Size > 0 {
		m.Vals = n.homeVals(m.Addr)
	}
	n.Env.Net.Send(m)
}

func (n *Node) now() sim.Time       { return n.Env.Eng.Now() }
func (n *Node) homeOf(b uint64) int { return n.Env.HomeOf(b) }
func (n *Node) lineBytes() int      { return n.Env.Cfg.LineSize }
func (n *Node) noticeCost() uint64  { return n.Env.Cfg.NoticeCost }

// dirCost returns the home directory access cost for this node's
// protocol family (Table 1: 25 cycles lazy, 15 cycles eager/SC).
func (n *Node) dirCost() uint64 {
	if n.Proto.Lazy() {
		return n.Env.Cfg.DirCostLRC
	}
	return n.Env.Cfg.DirCostERC
}
func (n *Node) memCycles(b int) uint64 {
	return n.Env.Cfg.MemSetup + uint64((b+n.Env.Cfg.MemBW-1)/n.Env.Cfg.MemBW)
}
func (n *Node) busCycles(b int) uint64 {
	return uint64((b + n.Env.Cfg.BusBW - 1) / n.Env.Cfg.BusBW)
}

// ---- Outstanding transactions ----------------------------------------

// txn returns the outstanding transaction for block, or nil.
func (n *Node) txn(block uint64) *Txn { return n.outstanding[block] }

// mustTxn returns the outstanding transaction a reply of the given kind
// completes; a reply nobody asked for is a protocol bug.
func (n *Node) mustTxn(block uint64, reply string) *Txn {
	t := n.outstanding[block]
	if t == nil {
		panic(fmt.Sprintf("protocol: node %d %s without txn (block %d)", n.ID, reply, block))
	}
	return t
}

// newTxn opens an outstanding-transaction record for block, reusing a
// spare one when there is one. A second transaction for the same block is
// a protocol bug.
func (n *Node) newTxn(block uint64) *Txn {
	if n.outstanding[block] != nil {
		panic(fmt.Sprintf("protocol: node %d duplicate txn for block %d", n.ID, block))
	}
	var t *Txn
	if k := len(n.txnSpare); k > 0 {
		t, n.txnSpare = n.txnSpare[k-1], n.txnSpare[:k-1]
	} else {
		t = new(Txn)
	}
	*t = Txn{Block: block}
	t.CT, t.ctRoot = n.Env.Causal.BeginTxn(n.ID, block, n.now())
	n.outstanding[block] = t
	n.nOutstanding++
	return t
}

// finishTxn completes a transaction: opens Done (if still closed),
// removes it, and re-evaluates any release drain. The record retires: the
// CPU may still hold it — a woken load reads t.Filled after its wait, and
// a Done subscriber may open a transaction before that load resumes — so
// it becomes spare only once the CPU enters its next access (reclaimTxns).
func (n *Node) finishTxn(t *Txn) {
	if n.outstanding[t.Block] != t {
		panic(fmt.Sprintf("protocol: node %d finishing unknown txn for block %d", n.ID, t.Block))
	}
	delete(n.outstanding, t.Block)
	n.nOutstanding--
	n.Env.Causal.EndTxn(t.ctRoot, n.now())
	if !t.Data.IsOpen() {
		t.Data.Open()
	}
	if !t.Done.IsOpen() {
		t.Done.Open()
	}
	n.txnRetired = append(n.txnRetired, t)
	n.checkDrain()
}

// reclaimTxns makes the records retired so far spare. Every CPU-side
// access path (load, store) calls it on entry, when the CPU holds no
// record from an earlier access.
func (n *Node) reclaimTxns() {
	n.txnSpare = append(n.txnSpare, n.txnRetired...)
	n.txnRetired = n.txnRetired[:0]
}

// ---- Causal-tracing brackets --------------------------------------------

// waitStall brackets a gate wait with a causal stall span. Every
// CPU-stall charge site goes through this (or parkStall), so the sum of
// recorded stall-episode lengths equals the stats stall aggregate by
// construction. tid is the transaction the CPU is stalled on when known.
func (n *Node) waitStall(g *sim.Gate, tid uint64, class causal.StallClass, why string) uint64 {
	c := n.Env.Causal
	if c == nil {
		return g.Wait(n.CPU, why)
	}
	sid := c.BeginStall(n.ID, tid, class, why, n.now())
	w := g.Wait(n.CPU, why)
	c.EndStall(sid, n.now())
	return w
}

// parkStall brackets a raw CPU park with a causal stall span.
func (n *Node) parkStall(tid uint64, class causal.StallClass, why string) uint64 {
	c := n.Env.Causal
	if c == nil {
		return n.CPU.Park(why)
	}
	sid := c.BeginStall(n.ID, tid, class, why, n.now())
	w := n.CPU.Park(why)
	c.EndStall(sid, n.now())
	return w
}

// ppAcquire charges the protocol processor and records a causal service
// span of the given kind covering both the queueing and the occupancy.
// It returns the completion time, like PP.Acquire's second result.
func (n *Node) ppAcquire(kind causal.Kind, block uint64, cost uint64) uint64 {
	req := n.now()
	start, end := n.PP.Acquire(req, cost)
	n.Env.Causal.Service(kind, n.ID, block, req, start, end)
	return end
}

// ---- Release draining --------------------------------------------------

// drained reports whether all writes by this node are globally performed:
// write buffer flushed, outstanding transactions serviced, and memory has
// acknowledged outstanding write-backs/write-throughs (§2's three release
// conditions).
func (n *Node) drained() bool {
	return n.WB.Empty() && n.nOutstanding == 0 && n.wtPending == 0
}

// checkDrain wakes a CPU parked in a release once the node drains.
func (n *Node) checkDrain() {
	if n.releaseParked && n.drained() {
		n.releaseParked = false
		n.CPU.Wake()
	}
}

// waitDrained parks the CPU (which must be the caller) until drained,
// charging the wait to SyncStall.
func (n *Node) waitDrained() {
	if n.drained() {
		return
	}
	n.releaseParked = true
	n.PS.SyncStall += n.parkStall(n.Env.Causal.Current(), causal.StallSync, "release drain")
}

// wbRetired wakes a CPU stalled on a full write buffer.
func (n *Node) wbRetired() {
	if n.wbParked {
		n.wbParked = false
		n.CPU.Wake()
	}
	n.checkDrain()
}

// stallWBFull parks the CPU until some write-buffer entry retires,
// charging WriteStall.
func (n *Node) stallWBFull() {
	n.wbParked = true
	n.PS.WriteStall += n.parkStall(0, causal.StallWrite, "write buffer slot")
}

// ---- Cache fills and evictions -----------------------------------------

// fillLine installs the block of the data message m (state st) on its
// arrival: the line streams over the node bus, the victim (if any) is
// processed, and at bus completion filled(n, m, 0) runs (protocols open
// the transaction's Data gate there; m is without its data snapshot by
// then). Must be called from an event handler at data arrival time.
func (n *Node) fillLine(m mesh.Msg, st cache.LineState, filled func(*Node, mesh.Msg, uint64)) {
	block := m.Addr
	victim, evicted := n.Cache.Fill(block, st)
	if evicted {
		n.evictVictim(victim)
	}
	if n.Env.Vals != nil && m.Vals != nil {
		n.Env.Vals.fill(n.ID, block, m.Vals)
	}
	n.Env.Class.Fill(n.ID, block)
	req := n.now()
	start, end := n.Bus.Acquire(req, n.busCycles(n.lineBytes()))
	n.Env.Causal.Service(causal.KindBus, n.ID, block, req, start, end)
	m.Vals = nil
	n.at(end, filled, m, 0)
}

// evictVictim handles a conflict/capacity replacement: pending coalesced
// writes drain to memory, the home learns the copy is gone, and the
// classifier records an eviction loss. Write-back protocols send the
// dirty data home instead of a hint.
func (n *Node) evictVictim(v cache.Line) {
	block := v.Block
	n.Env.Class.Lose(n.ID, block, stats.LossEviction)
	if n.pendInvSet[block] {
		// The paper: no need to keep invalidate-set entries for lines
		// dropped from the cache.
		delete(n.pendInvSet, block)
		for i, b := range n.pendInv {
			if b == block {
				n.pendInv = append(n.pendInv[:i], n.pendInv[i+1:]...)
				break
			}
		}
	}
	if e, ok := n.CB.Remove(block); ok {
		n.sendWriteThrough(e)
	}
	if n.delayedSet[block] {
		// Lazier protocol: a written block is being replaced; its
		// deferred notice must be posted now, before the home forgets us.
		n.removeDelayed(block)
		n.postNotice(block)
	}
	n.Proto.Evict(n, v)
}

// evictInval is the invalidation protocols' eviction tail: write-back
// protocols send dirty data home, everyone else sends a copy-gone hint
// so the directory can drop the sharer.
func (n *Node) evictInval(v cache.Line) {
	block := v.Block
	if v.Dirty != 0 && n.Proto.WriteBack() {
		n.wtPending++
		n.sendData(n.homeOf(block), MsgWriteBack, block, n.lineBytes(), v.Dirty, 0, n.copyVals(block))
	} else {
		n.send(n.homeOf(block), MsgEvict, block, 0, 0, 0)
	}
}

// loseCopy drops this node's copy of block to a coherence action (an
// invalidation, a yielded ownership, an expired lease), recording the
// loss for miss classification. It reports whether a copy was resident.
func (n *Node) loseCopy(block uint64) bool {
	_, ok := n.Cache.Invalidate(block)
	if ok {
		n.Env.Class.Lose(n.ID, block, stats.LossCoherence)
	}
	return ok
}

// ---- Write-through path (lazy protocols) --------------------------------

// commitWT performs a store on a resident read-write line under the
// write-through protocols: per-word dirty bookkeeping, the classifier's
// committed-write stream, and the coalescing buffer (possibly draining
// its oldest entry on capacity pressure).
func (n *Node) commitWT(block uint64, word int) {
	n.Cache.MarkDirty(block, word)
	n.Env.Class.CommitWrite(n.ID, block, word)
	if n.Env.Vals != nil {
		n.Env.Vals.commit(n.ID, block, word)
	}
	if e, drain := n.CB.Put(block, word); drain {
		n.sendWriteThrough(e)
	}
}

// commitWB performs a store on a resident read-write line under the
// write-back protocols: per-word dirty bookkeeping plus the classifier's
// committed-write stream. The data travels home only on eviction or
// ownership transfer.
func (n *Node) commitWB(block uint64, word int) {
	n.Cache.MarkDirty(block, word)
	n.Env.Class.CommitWrite(n.ID, block, word)
	if n.Env.Vals != nil {
		n.Env.Vals.commit(n.ID, block, word)
	}
}

// FastWriteHit attempts the write-hit fast path: a store that requires
// no messages and therefore no synchronization with the event loop (the
// processor may be running ahead on its private clock). It reports
// whether the store was performed; on false the caller must sync to
// engine time and take the full CPUWrite path. The behaviour is the
// protocol's (the timestamp protocols also advance their logical clock
// here).
func (n *Node) FastWriteHit(block uint64, word int) bool {
	return n.Proto.WriteHit(n, block, word)
}

// writeHitInval is the invalidation protocols' shared write-hit fast
// path: a store to a resident read-write line.
func (n *Node) writeHitInval(block uint64, word int) bool {
	line := n.Cache.Lookup(block)
	if line == nil || line.State != cache.ReadWrite {
		return false
	}
	if n.Proto.WriteBack() {
		n.commitWB(block, word)
		return true
	}
	if n.CB.Len() >= n.CB.Cap() && !n.CB.Has(block) {
		return false // a coalescing-buffer drain would send a message
	}
	n.commitWT(block, word)
	return true
}

// sendWriteThrough ships one coalescing-buffer entry to the block's home
// memory and tracks the pending acknowledgement. The value snapshot
// carries the whole line; the home merges only the words in the mask.
func (n *Node) sendWriteThrough(e cache.CBEntry) {
	n.wtPending++
	n.PS.WriteThroughs++
	n.sendData(n.homeOf(e.Block), MsgWriteThrough, e.Block, e.DirtyBytes(config.WordSize), e.Words, 0, n.copyVals(e.Block))
}

// flushCB drains every coalescing-buffer entry (the release-point flush).
func (n *Node) flushCB() {
	for _, e := range n.CB.DrainAll() {
		n.sendWriteThrough(e)
	}
}

// ---- Pending invalidations (lazy protocols) -----------------------------

// addPendInv queues block for invalidation at the next acquire.
func (n *Node) addPendInv(block uint64) {
	if n.pendInvSet[block] {
		return
	}
	n.pendInvSet[block] = true
	n.pendInv = append(n.pendInv, block)
}

// processPendInv invalidates every queued line: coalesced writes drain
// first, the home is notified so the directory can revert the block's
// state, and the classifier records a coherence loss. It returns the time
// at which the protocol processor finishes the batch. In-flight fills are
// flagged to invalidate on arrival.
func (n *Node) processPendInv() sim.Time {
	if n.Env.Cfg.Mutation == "skip-acquire-inval" {
		// Deliberate bug for checker self-tests: queued write notices are
		// never acted on, so stale copies survive into critical sections.
		return n.now()
	}
	work := 0
	for _, block := range n.pendInv {
		delete(n.pendInvSet, block)
		if t := n.txn(block); t != nil && !t.Data.IsOpen() {
			t.InvalidateOnFill = true
			continue
		}
		if _, ok := n.Cache.Invalidate(block); ok {
			if e, ok := n.CB.Remove(block); ok {
				n.sendWriteThrough(e)
			}
			n.removeDelayed(block)
			n.Env.Class.Lose(n.ID, block, stats.LossCoherence)
			n.PS.InvalsAtAcquire++
			n.send(n.homeOf(block), MsgInvNotify, block, 0, 0, 0)
			work++
		}
	}
	n.pendInv = n.pendInv[:0]
	if work == 0 {
		return n.now()
	}
	return n.ppAcquire(causal.KindNotice, 0, uint64(work)*n.noticeCost())
}

// ---- Delayed notices (lazier protocol) ----------------------------------

func (n *Node) addDelayed(block uint64) {
	if n.delayedSet[block] {
		return
	}
	n.delayedSet[block] = true
	n.delayed = append(n.delayed, block)
}

// takeDelayed empties the deferred notices and returns them in order; the
// slice is good until the next call, whose storage it becomes.
func (n *Node) takeDelayed() []uint64 {
	blocks := n.delayed
	n.delayed, n.posting = n.posting[:0], blocks
	for _, b := range blocks {
		delete(n.delayedSet, b)
	}
	return blocks
}

func (n *Node) removeDelayed(block uint64) {
	if !n.delayedSet[block] {
		return
	}
	delete(n.delayedSet, block)
	for i, b := range n.delayed {
		if b == block {
			n.delayed = append(n.delayed[:i], n.delayed[i+1:]...)
			return
		}
	}
}

// postNotice sends the deferred write notice for block to its home,
// opening a transaction that completes when the home has collected all
// notice acknowledgements.
func (n *Node) postNotice(block uint64) {
	if t := n.txn(block); t != nil {
		// A transaction is already outstanding for this block (e.g., the
		// data fetch that preceded the silent upgrade is still pending);
		// fold the notice into it by posting when it finishes.
		t.Done.Subscribe(func() { n.postNotice(block) })
		return
	}
	t := n.newTxn(block)
	t.Data.Open() // no data will come
	n.send(n.homeOf(block), MsgWriteReq, block, 0, 0, 0)
}

// ---- Classification ------------------------------------------------------

// Debug renders non-quiescent node state for deadlock diagnostics; it
// returns "" when the node has nothing outstanding.
func (n *Node) Debug() string {
	s := ""
	for b, t := range n.outstanding {
		s += fmt.Sprintf(" txn{block %d data:%v done:%v expect:%v}", b, t.Data.IsOpen(), t.Done.IsOpen(), t.ExpectData)
	}
	if !n.WB.Empty() {
		s += fmt.Sprintf(" wb:%d", n.WB.Len())
	}
	if n.wtPending > 0 {
		s += fmt.Sprintf(" wt:%d", n.wtPending)
	}
	s += n.home.Debug() + n.eagerHome.debug(n) + n.tardis.debug()
	return s
}

// ---- Auditor accessors ---------------------------------------------------

// OutstandingCount returns the number of coherence transactions this node
// has in flight.
func (n *Node) OutstandingCount() int { return n.nOutstanding }

// HasTxn reports whether this node has an outstanding transaction for
// block.
func (n *Node) HasTxn(block uint64) bool { return n.outstanding[block] != nil }

// WTPendingCount returns the write-throughs/write-backs awaiting memory
// acknowledgement.
func (n *Node) WTPendingCount() int { return n.wtPending }

// PendingInvals returns how many blocks are queued for invalidation at
// this node's next acquire.
func (n *Node) PendingInvals() int { return len(n.pendInv) }

// DelayedNotices returns how many write notices the lazier protocol is
// holding unposted at this node (0 for protocols without delayed
// notices).
func (n *Node) DelayedNotices() int { return len(n.delayed) }

// SyncWaiting reports whether this node's CPU is currently blocked in a
// synchronization acquire (lock or barrier wait gate open).
func (n *Node) SyncWaiting() bool { return n.sync.gate != nil }

// DuplicatesIgnored returns how many duplicate or late-retransmitted
// deliveries this node's sequencer discarded.
func (n *Node) DuplicatesIgnored() uint64 { return n.seq.Suppressed() }

// SeqParked returns how many out-of-order arrivals this node's sequencer
// held for gap fill (cumulative).
func (n *Node) SeqParked() uint64 { return n.seq.Parked() }

// SeqWaiting returns how many arrivals are currently parked in this
// node's sequencer — nonzero at quiescence means a message was lost and
// never recovered.
func (n *Node) SeqWaiting() int { return n.seq.Waiting() }

// countMiss classifies and tallies a miss by this processor on
// (block, word).
func (n *Node) countMiss(block uint64, word int, upgradeOnly bool) {
	k := n.Env.Class.Classify(n.ID, block, word, upgradeOnly)
	n.PS.Misses[k]++
}
