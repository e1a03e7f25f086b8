// Package causal stitches the simulator's coherence and synchronization
// activity into causally-linked span trees: every coherence transaction
// (read/write miss → directory lookup → write-notice fan-out → acks →
// completion) and every synchronization episode becomes a tree of
// cycle-stamped spans keyed by a transaction ID that is threaded through
// mesh messages and engine event chains. On top of the span store sit a
// critical-path analyzer (critpath.go) that attributes every stalled CPU
// cycle to a protocol cause, and a Chrome trace-event / Perfetto exporter
// (perfetto.go) so a run can be opened in ui.perfetto.dev.
//
// Like the telemetry registry, tracing is strictly passive: it observes
// cycle stamps the timing model already computed and never schedules
// events or changes an Acquire, so a traced run is bit-identical to an
// untraced one. A nil *Tracer is a valid no-op receiver for every hook —
// the disabled path is a single nil check with zero allocations.
package causal

import (
	"fmt"
	"sort"

	"lazyrc/internal/fold"
)

// Kind classifies one span.
type Kind uint8

const (
	// KindTxn is a coherence-transaction root span at the requesting
	// node: opened at transaction creation (the miss), closed when the
	// transaction is globally performed.
	KindTxn Kind = iota
	// KindSync is a synchronization-episode root span: a lock acquire or
	// release, a barrier wait, a flag set/wait, or a fence.
	KindSync
	// KindStall is a CPU stall episode: the interval a processor context
	// spent parked, classified by the stats bucket it was charged to.
	KindStall
	// KindNet is one message's network flight from send to delivery,
	// including NIC port queueing at both ends.
	KindNet
	// KindDir is a home-side directory access at the protocol processor
	// (queueing recorded separately in Wait).
	KindDir
	// KindMem is a memory-module access at the home.
	KindMem
	// KindBus is the local bus streaming of a cache fill.
	KindBus
	// KindFanout is the home's write-notice or invalidation dispatch
	// occupancy (the per-sharer protocol-processor cost).
	KindFanout
	// KindNotice is remote protocol-processor work triggered by a peer: a
	// write notice, an eager invalidation, an owner forward, or
	// acquire-time invalidation processing.
	KindNotice
	// KindAck is home-side acknowledgement collection work (one
	// protocol-processor occupancy per arriving ack).
	KindAck
	// KindRetx is a reliable-transport retransmission wait: the interval
	// from a (lost) send attempt to the timeout that resent it. Wait
	// carries the attempt number (backoff depth).
	KindRetx
)

var kindNames = [...]string{
	"txn", "sync", "stall", "net", "dir", "mem", "bus", "fanout", "notice", "ack", "retx",
}

// String returns the span-kind mnemonic.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// StallClass mirrors the stats cycle-breakdown bucket a stall episode was
// charged to.
type StallClass uint8

const (
	// StallRead is a read-miss stall (stats.Proc.ReadStall).
	StallRead StallClass = iota
	// StallWrite is a write-path stall (stats.Proc.WriteStall).
	StallWrite
	// StallSync is a synchronization stall (stats.Proc.SyncStall).
	StallSync

	// NumStallClasses is the number of stall classes.
	NumStallClasses
)

var stallClassNames = [NumStallClasses]string{"read", "write", "sync"}

// String returns the class name as used in the stats breakdown.
func (c StallClass) String() string {
	if c < NumStallClasses {
		return stallClassNames[c]
	}
	return fmt.Sprintf("StallClass(%d)", uint8(c))
}

// Span is one cycle-stamped interval of protocol work. Root spans
// (KindTxn, KindSync) define a transaction ID; every other span carries
// the TID of the transaction whose causal chain it belongs to.
type Span struct {
	// ID is the span's unique id (1-based; 0 is the nil span).
	ID uint64
	// TID is the transaction this span belongs to (the root span's own
	// TID for roots; 0 when work ran outside any transaction context).
	TID uint64
	// Cause, on stall spans, is the TID of the transaction whose
	// completion woke the processor — the causal edge the critical-path
	// analyzer walks backward through.
	Cause uint64
	// Kind classifies the span.
	Kind Kind
	// Class, on stall spans, is the stats bucket the cycles were charged
	// to.
	Class StallClass
	open  bool // begun and not yet ended
	// Node is the node the span's work happened at.
	Node int32
	// Peer is the other endpoint where one exists: the destination of a
	// net span, the notice target of a fanout. -1 when not applicable.
	Peer int32
	// MsgKind is the protocol message kind of a net span (-1 otherwise).
	MsgKind int32
	// Block is the coherence block concerned (0 when not applicable).
	Block uint64
	// Obj is the synchronization object id (sync spans).
	Obj uint64
	// Begin and End are the span's cycle stamps; End >= Begin always.
	Begin, End uint64
	// Wait is the pre-service queueing portion at the span's start: PP or
	// memory occupancy wait for service spans, sender-side NIC port
	// queueing for net spans.
	Wait uint64
	// Wait2 is the post-service queueing portion at the span's end:
	// receiver-side NIC port queueing for net spans (0 otherwise).
	Wait2 uint64
	// Why labels stall spans with the park reason and root spans with the
	// operation ("read", "write", "lock-acquire", ...).
	Why string
}

// Dur returns the span's length in cycles.
func (s *Span) Dur() uint64 { return s.End - s.Begin }

// Tracer is the span store plus the causal-context machinery. It
// implements sim.TaskTracer (Capture/Restore), so attaching it to the
// engine threads the current transaction ID through every scheduled
// event chain — a home-side continuation, and the reply it sends, inherit
// the TID of the request that triggered them without any hand-threading.
//
// A span is folded into the digest when it closes and, while the store is
// under its cap, retained then too: the retained spans are always a prefix
// of the digested stream, in the same order.
//
// All methods are safe on a nil receiver (no-ops), so instrumentation
// sites cost one nil check when tracing is disabled.
type Tracer struct {
	cur     uint64 // current causal context (transaction id)
	nextTID uint64
	nextSID uint64

	// Open spans wait in slab, addressed by handle = slot + 1 (0 is the nil
	// handle), until they close; free lists the slots that have. An open
	// span costs no allocation or map.
	slab  []Span
	free  []uint32
	nOpen int

	limit   int    // retained-store cap; 0 in digest-only mode
	spans   []Span // the first limit closed spans, in close order
	hash    uint64 // running digest over closed spans, in close order
	closed  uint64 // spans closed (folded into the digest)
	dropped uint64 // closed spans not retained because the cap was hit
}

// DefaultLimit caps retained spans; spans closing beyond it are counted as
// dropped (the digest still folds them, so determinism survives
// truncation).
const DefaultLimit = 8 << 20

// New returns a tracer that retains the full span store (for export and
// critical-path analysis), capped at limit spans (<=0: DefaultLimit).
func New(limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Tracer{limit: limit, hash: fold.Seed}
}

// NewDigest returns a tracer in digest-only mode: spans are folded into a
// running fingerprint at close time and discarded, so memory stays
// bounded by the number of concurrently open spans. Used by the
// experiment runner, which wants the determinism fingerprint but not the
// store.
func NewDigest() *Tracer { return &Tracer{hash: fold.Seed} }

// ---- Causal context (sim.TaskTracer) --------------------------------------

// Capture returns the causal context for an event being scheduled.
func (t *Tracer) Capture() uint64 { return t.Current() }

// Restore swaps ctx in as the current causal context and returns the
// previous one. The engine brackets every event execution with a
// Restore(captured) / Restore(previous) pair.
func (t *Tracer) Restore(ctx uint64) uint64 {
	if t == nil {
		return 0
	}
	prev := t.cur
	t.cur = ctx
	return prev
}

// Current returns the TID of the transaction context in scope (0 when
// none) — the value the mesh stamps onto outgoing messages.
func (t *Tracer) Current() uint64 {
	if t == nil {
		return 0
	}
	return t.cur
}

// ---- Span recording --------------------------------------------------------

// open parks a span to be ended later in the slab and returns its handle.
func (t *Tracer) open(s *Span) uint64 {
	t.nextSID++
	s.ID = t.nextSID
	s.open = true
	t.nOpen++
	if n := len(t.free); n > 0 {
		slot := t.free[n-1]
		t.free = t.free[:n-1]
		t.slab[slot] = *s
		return uint64(slot) + 1
	}
	t.slab = append(t.slab, *s)
	return uint64(len(t.slab))
}

// release takes an open span out of the slab, freeing its slot; nil
// when the handle is nil or its span already ended.
func (t *Tracer) release(h uint64) *Span {
	if t == nil || h == 0 || !t.slab[h-1].open {
		return nil
	}
	sp := &t.slab[h-1]
	sp.open = false
	t.nOpen--
	t.free = append(t.free, uint32(h-1))
	return sp
}

// endOpen closes an open span at cycle end.
func (t *Tracer) endOpen(h, end uint64) {
	if sp := t.release(h); sp != nil {
		sp.End = end
		t.close(sp)
	}
}

// record closes one already-complete span (e.g. a network flight whose
// delivery the mesh resolved eagerly).
func (t *Tracer) record(s *Span) {
	t.nextSID++
	s.ID = t.nextSID
	t.close(s)
}

// close folds a span into the digest and retains it if the store has room.
func (t *Tracer) close(s *Span) {
	t.fold(s)
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, *s)
	} else if t.limit > 0 {
		t.dropped++
	}
}

// BeginTxn opens a coherence-transaction root span at node for block and
// makes the new TID the current causal context (the request message sent
// next, and the whole event chain it triggers, inherit it). It returns
// the TID and the root span's handle, which EndTxn takes.
func (t *Tracer) BeginTxn(node int, block uint64, now uint64) (tid, root uint64) {
	return t.beginRoot(KindTxn, node, block, 0, "txn", now)
}

// EndTxn closes a transaction's root span.
func (t *Tracer) EndTxn(root, now uint64) { t.endOpen(root, now) }

// BeginSync opens a synchronization-episode root span (op names the
// operation: "lock-acquire", "lock-release", "barrier", "flag-set",
// "flag-wait", "fence") and makes its TID current. It returns the TID
// and the root span's handle, which EndSync takes.
func (t *Tracer) BeginSync(node int, obj uint64, op string, now uint64) (tid, root uint64) {
	return t.beginRoot(KindSync, node, 0, obj, op, now)
}

// EndSync closes a synchronization episode's root span.
func (t *Tracer) EndSync(root, now uint64) { t.endOpen(root, now) }

// beginRoot opens the root span of a new transaction id.
func (t *Tracer) beginRoot(kind Kind, node int, block, obj uint64, why string, now uint64) (tid, root uint64) {
	if t == nil {
		return 0, 0
	}
	t.nextTID++
	tid = t.nextTID
	t.cur = tid
	return tid, t.open(&Span{
		TID: tid, Kind: kind, Node: int32(node), Peer: -1, MsgKind: -1,
		Block: block, Obj: obj, Begin: now, End: now, Why: why,
	})
}

// BeginStall opens a CPU stall-episode span at node. tid is the
// transaction the processor is stalled on when known (0 otherwise); the
// waker's TID is captured at EndStall from the causal context the wake
// event carried. Returns the span's handle to pass to EndStall.
func (t *Tracer) BeginStall(node int, tid uint64, class StallClass, why string, now uint64) uint64 {
	if t == nil {
		return 0
	}
	return t.open(&Span{
		TID: tid, Kind: KindStall, Class: class, Node: int32(node),
		Peer: -1, MsgKind: -1, Begin: now, End: now, Why: why,
	})
}

// EndStall closes a stall episode, recording the current causal context
// (the transaction whose completion event woke the processor) as the
// episode's cause. Zero-length episodes are discarded: no cycles were
// charged, so they carry no attribution weight. The cause is stamped
// before the span is folded, so who woke whom is part of the digest.
func (t *Tracer) EndStall(h, now uint64) {
	if sp := t.release(h); sp != nil && sp.Begin != now {
		sp.End, sp.Cause = now, t.cur
		t.close(sp)
	}
}

// Net records one message's network flight: src→dst, protocol message
// kind, begin (send) and end (delivery) cycles, and the NIC port
// queueing at the sending (outWait) and receiving (inWait) ends. tid is
// the causal context stamped on the message at send time.
func (t *Tracer) Net(tid uint64, src, dst, msgKind int, block uint64, begin, end, outWait, inWait uint64) {
	if t == nil {
		return
	}
	t.record(&Span{
		TID: tid, Kind: KindNet, Node: int32(src), Peer: int32(dst),
		MsgKind: int32(msgKind), Block: block, Begin: begin, End: end,
		Wait: outWait, Wait2: inWait,
	})
}

// Retransmit records one reliable-transport retransmission wait: the
// message from src to dst was sent (or resent) at lastSend, presumed
// lost, and resent at now — the attempt-th retransmission. tid is the
// causal context stamped on the message, so the lost time lands on the
// transaction that was waiting for it and the critical-path analyzer can
// attribute loss-induced stalls (CauseRetx).
func (t *Tracer) Retransmit(tid uint64, src, dst, msgKind int, block uint64, lastSend, now uint64, attempt int) {
	if t == nil {
		return
	}
	t.record(&Span{
		TID: tid, Kind: KindRetx, Node: int32(src), Peer: int32(dst),
		MsgKind: int32(msgKind), Block: block, Begin: lastSend, End: now,
		Wait: uint64(attempt), Why: "retx",
	})
}

// OpenStalls returns copies of the currently-open stall spans — what each
// processor is parked on right now, for watchdog reports — ordered by
// begin cycle then node (deterministic).
func (t *Tracer) OpenStalls() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, s := range t.slab {
		if s.open && s.Kind == KindStall {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Begin != out[j].Begin {
			return out[i].Begin < out[j].Begin
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// Service records one home- or remote-side hardware service interval —
// directory access, memory access, bus fill, notice fan-out, notice or
// ack processing. reqAt is when the work was requested, start/end the
// actual occupancy window (start-reqAt is the queueing delay). The span
// is attributed to the current causal context.
func (t *Tracer) Service(kind Kind, node int, block uint64, reqAt, start, end uint64) {
	if t == nil {
		return
	}
	t.record(&Span{
		TID: t.cur, Kind: kind, Node: int32(node), Peer: -1, MsgKind: -1,
		Block: block, Begin: reqAt, End: end, Wait: start - reqAt,
	})
}

// ---- Store accessors -------------------------------------------------------

// Spans returns the retained span store in close order: the first spans
// of the digested stream, all of them unless Dropped is nonzero. Nil in
// digest-only mode.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Count returns the number of spans folded into the digest (recorded
// complete plus closed), the canonical span count of a run.
func (t *Tracer) Count() uint64 {
	if t == nil {
		return 0
	}
	return t.closed
}

// OpenCount returns the number of spans opened but not yet closed.
func (t *Tracer) OpenCount() int {
	if t == nil {
		return 0
	}
	return t.nOpen
}

// Dropped returns the closed spans not retained because the cap was hit.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Digest returns the run's span-stream fingerprint: every closed span
// folded in close order (see fold) plus the total count, rendered as
// "<count>-<hash>". The simulation is single-threaded and deterministic,
// so the digest is identical across repeated runs, worker counts, and
// machines — and is compared by the experiment regression gate.
func (t *Tracer) Digest() string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("%d-%016x", t.closed, t.hash)
}

// fold mixes one closed span into the digest, a 64-bit word per step, in
// the record layout of DESIGN.md §11 (a format: changing it re-pins every
// stored digest). Words alternate between two lanes — a continues the
// running state, b starts from the seed — joined by a last step, so a span
// adds a chain of six dependent multiplies, not eleven.
func (t *Tracer) fold(s *Span) {
	t.closed++
	why := s.Why
	a, b := t.hash, fold.Seed
	a = fold.Mix(a, s.TID)
	b = fold.Mix(b, s.Cause)
	a = fold.Mix(a, uint64(s.Kind)|uint64(s.Class)<<8|uint64(uint32(s.MsgKind))<<16|uint64(len(why))<<48)
	b = fold.Mix(b, uint64(uint32(s.Node))|uint64(uint32(s.Peer))<<32)
	a = fold.Mix(a, s.Block)
	b = fold.Mix(b, s.Obj)
	a = fold.Mix(a, s.Begin)
	b = fold.Mix(b, s.End)
	a = fold.Mix(a, s.Wait)
	b = fold.Mix(b, s.Wait2)
	for ; len(why) >= 8; why = why[8:] {
		b = fold.Mix(b, uint64(why[0])|uint64(why[1])<<8|uint64(why[2])<<16|uint64(why[3])<<24|
			uint64(why[4])<<32|uint64(why[5])<<40|uint64(why[6])<<48|uint64(why[7])<<56)
	}
	if len(why) > 0 {
		var v uint64
		for i := 0; i < len(why); i++ {
			v |= uint64(why[i]) << (8 * i)
		}
		b = fold.Mix(b, v)
	}
	t.hash = fold.Mix(a, b)
}

// byTID returns retained spans grouped by TID, each group in close order.
func (t *Tracer) byTID() map[uint64][]*Span {
	m := make(map[uint64][]*Span)
	for i := range t.spans {
		s := &t.spans[i]
		m[s.TID] = append(m[s.TID], s)
	}
	return m
}
