package mesh

import (
	"fmt"
	"sort"

	"lazyrc/internal/faults"
	"lazyrc/internal/sim"
)

// Reliable-delivery transport. Hardware meshes are lossless, so the
// zero-fault machine never pays for any of this: the transport exists
// only while a fault injector is attached, and with none the send path is
// byte-identical to the reliable fabric. With an injector, every
// cross-node message is stamped with a per-(src,dst) sequence number and
// tracked in a pending ledger until its delivery event fires; a
// per-message timeout timer retransmits the original message (through the
// injector again — a retransmission is as droppable as a first attempt)
// with seeded-deterministic exponential backoff plus jitter. The ack is
// implicit and free: the simulator is omniscient, so the delivery event
// itself settles the ledger entry, modeling the paper's assumption that
// acknowledgments ride the fabric for free — "timers cancel on reply; no
// ack traffic when nothing is lost".
//
// Loss breaks the mesh's per-(src,dst) FIFO guarantee at the wire level
// (a retransmission lands after messages sent later), so exactly-once
// in-order delivery is restored at the receiver: protocol nodes run
// arrivals through a Sequencer, which suppresses duplicates and late
// originals and parks early arrivals until the gap fills.

const (
	// retrySlack pads the ideal flight time to cover port queueing,
	// injected jitter, and reorder holds before a timeout is declared.
	retrySlack = 1024
	// retryMaxWait caps the exponential backoff so a long link outage is
	// probed at a bounded period rather than backed off past its end.
	retryMaxWait = 1 << 16
	// retryMaxAttempts bounds retransmissions per message; exceeding it
	// panics — the fault plan starves a message beyond the retry budget
	// (an outage longer than ~attempts x retryMaxWait cycles).
	retryMaxAttempts = 32
	// retrySeedSalt derives the transport's jitter stream from the
	// injector seed; an independent stream keeps backoff jitter from
	// perturbing the injector's fault schedule.
	retrySeedSalt = 0x9e3779b97f4a7c15
)

// pendKey identifies one tracked message: its (src,dst) channel and its
// sequence number on that channel. Sequence numbers are never reused, so
// a stale timer whose entry has been settled finds nothing.
type pendKey struct {
	pair int
	seq  uint64
}

type pendEntry struct {
	m         Msg
	attempt   int // retransmissions so far
	firstSend sim.Time
	lastSend  sim.Time
}

// transport is the sender-side reliable-delivery state, attached to the
// Network iff a fault injector is.
type transport struct {
	net     *Network
	rng     *faults.RNG
	plan    faults.Plan
	seq     []uint64 // per (src*nprocs+dst) channel, last assigned sequence
	pending map[pendKey]*pendEntry

	retransmits uint64 // retransmissions sent
	recovered   uint64 // messages delivered after >=1 retransmission
	outageDrops uint64 // losses to link-outage windows
	brownDrops  uint64 // losses to receive brownouts
	maxDepth    uint64 // deepest backoff attempt that still delivered
}

func newTransport(n *Network, inj *faults.Injector) *transport {
	return &transport{
		net:     n,
		rng:     faults.NewRNG(inj.Seed() ^ retrySeedSalt),
		plan:    inj.Plan(),
		seq:     make([]uint64, n.nprocs*n.nprocs),
		pending: make(map[pendKey]*pendEntry),
	}
}

// track enters a freshly stamped message into the pending ledger and arms
// its first timeout timer.
func (tr *transport) track(m Msg) {
	k := pendKey{m.Src*tr.net.nprocs + m.Dst, m.Seq}
	now := tr.net.eng.Now()
	e := &pendEntry{m: m, firstSend: now, lastSend: now}
	tr.pending[k] = e
	tr.arm(k, e)
}

// timeout returns the retransmission wait for the given attempt: the
// ideal flight time plus slack, doubled per attempt up to a cap, plus
// deterministic jitter so synchronized losses don't retransmit in
// lockstep.
func (tr *transport) timeout(m Msg, attempt int) uint64 {
	base := tr.net.hopLat*tr.net.Hops(m.Src, m.Dst) + tr.net.TransferCycles(m.Size) + retrySlack
	wait := base
	for i := 0; i < attempt && wait < retryMaxWait; i++ {
		wait <<= 1
	}
	if wait > retryMaxWait {
		wait = retryMaxWait
	}
	return wait + tr.rng.Uint64n(base/4+1)
}

// arm schedules the timeout timer for the entry's current attempt. The
// timer is a regular (non-background) event: a lost message must keep the
// simulation alive until its retransmission lands. A timer whose entry
// has been settled — or already re-armed by a newer attempt — is a no-op.
func (tr *transport) arm(k pendKey, e *pendEntry) {
	attempt := e.attempt
	tr.net.eng.After(tr.timeout(e.m, attempt), func() {
		if cur, ok := tr.pending[k]; !ok || cur != e || cur.attempt != attempt {
			return
		}
		tr.resend(k, e)
	})
}

// resend retransmits the original message through the injector path (a
// retransmission is as faultable as a first attempt) and re-arms the
// timer at the next backoff step.
func (tr *transport) resend(k pendKey, e *pendEntry) {
	now := tr.net.eng.Now()
	e.attempt++
	if e.attempt > retryMaxAttempts {
		panic(fmt.Sprintf(
			"mesh: %s %d->%d seq %d undelivered after %d retransmissions (injector seed %d): fault plan starves the message beyond the retry budget",
			faults.KindName(e.m.Kind), e.m.Src, e.m.Dst, e.m.Seq, retryMaxAttempts, tr.net.inj.Seed()))
	}
	tr.retransmits++
	tr.net.causal.Retransmit(e.m.CT, e.m.Src, e.m.Dst, e.m.Kind, e.m.Addr, e.lastSend, now, e.attempt)
	e.lastSend = now
	tr.net.dispatch(e.m)
	tr.arm(k, e)
}

// ack settles the ledger entry for a delivered message. Idempotent:
// duplicate deliveries of an already-settled message find no entry.
func (tr *transport) ack(m Msg) {
	if m.Seq == 0 {
		return
	}
	k := pendKey{m.Src*tr.net.nprocs + m.Dst, m.Seq}
	e, ok := tr.pending[k]
	if !ok {
		return
	}
	delete(tr.pending, k)
	if e.attempt > 0 {
		tr.recovered++
		if d := uint64(e.attempt); d > tr.maxDepth {
			tr.maxDepth = d
		}
		tr.net.tel.observeRetx(uint64(e.attempt), tr.net.eng.Now()-e.firstSend)
	}
}

// routeDown reports whether the XY route from src to dst crosses a link
// that is inside an outage window at simulated time now.
func (n *Network) routeDown(src, dst int, now sim.Time) bool {
	if n.tr == nil || len(n.tr.plan.Outages) == 0 {
		return false
	}
	cur := src
	cx, cy := cur%n.w, cur/n.w
	dx, dy := dst%n.w, dst/n.w
	for cx != dx {
		step := 1
		if dx < cx {
			step = -1
		}
		next := cy*n.w + cx + step
		if n.tr.plan.LinkDown(cur, next, now) {
			return true
		}
		cur, cx = next, cx+step
	}
	for cy != dy {
		step := 1
		if dy < cy {
			step = -1
		}
		next := (cy+step)*n.w + cx
		if n.tr.plan.LinkDown(cur, next, now) {
			return true
		}
		cur, cy = next, cy+step
	}
	return false
}

// TransportActive reports whether the reliable-delivery transport is
// engaged (true iff a fault injector is attached).
func (n *Network) TransportActive() bool { return n.tr != nil }

// TransportStats returns the transport counters: retransmissions sent,
// messages recovered after at least one retransmission, losses to link
// outages and to receive brownouts, the deepest backoff attempt that
// still delivered, and the ledger entries currently awaiting delivery.
func (n *Network) TransportStats() (retransmits, recovered, outageDrops, brownoutDrops, maxDepth uint64, pending int) {
	if n.tr == nil {
		return 0, 0, 0, 0, 0, 0
	}
	return n.tr.retransmits, n.tr.recovered, n.tr.outageDrops, n.tr.brownDrops, n.tr.maxDepth, len(n.tr.pending)
}

// TransportSummary renders the transport's activity, or "" when inactive.
func (n *Network) TransportSummary() string {
	if n.tr == nil {
		return ""
	}
	return fmt.Sprintf("transport: %d retransmitted, %d recovered after loss, %d outage-dropped, %d brownout-dropped, max backoff depth %d, %d pending",
		n.tr.retransmits, n.tr.recovered, n.tr.outageDrops, n.tr.brownDrops, n.tr.maxDepth, len(n.tr.pending))
}

// RetxEntry describes one pending ledger entry that has been
// retransmitted at least once — the messages the fabric is currently
// failing to deliver.
type RetxEntry struct {
	Src, Dst, Kind int
	Seq            uint64
	Attempt        int
	FirstSend      sim.Time
	LastSend       sim.Time
	CT             uint64
}

// PendingRetransmits returns the in-flight entries with at least one
// retransmission, oldest first (deterministically ordered).
func (n *Network) PendingRetransmits() []RetxEntry {
	if n.tr == nil {
		return nil
	}
	var out []RetxEntry
	for _, e := range n.tr.pending {
		if e.attempt == 0 {
			continue
		}
		out = append(out, RetxEntry{
			Src: e.m.Src, Dst: e.m.Dst, Kind: e.m.Kind,
			Seq: e.m.Seq, Attempt: e.attempt,
			FirstSend: e.firstSend, LastSend: e.lastSend, CT: e.m.CT,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.FirstSend != b.FirstSend {
			return a.FirstSend < b.FirstSend
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Seq < b.Seq
	})
	return out
}

// TransportTop renders the k oldest pending retransmit entries for stall
// reports.
func (n *Network) TransportTop(k int) []string {
	entries := n.PendingRetransmits()
	if len(entries) > k {
		entries = entries[:k]
	}
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = fmt.Sprintf("retx in flight: %s %d->%d seq %d, attempt %d, first sent @%d, last @%d (txn %d)",
			faults.KindName(e.Kind), e.Src, e.Dst, e.Seq, e.Attempt, e.FirstSend, e.LastSend, e.CT)
	}
	return out
}

// Sequencer restores exactly-once in-order delivery at a receiving node.
// Loss plus retransmission breaks wire-level per-(src,dst) FIFO — a
// retransmitted message lands after messages its sender issued later —
// and duplication delivers some messages twice. Each protocol node runs
// arrivals through a Sequencer: unstamped messages (Seq 0: no injector,
// or node-local) pass straight through; stamped messages are delivered in
// per-source sequence order, with duplicates and late originals
// suppressed and early arrivals parked until the gap fills.
type Sequencer struct {
	next       []uint64 // per source, next expected sequence (1-based)
	held       []map[uint64]Msg
	suppressed uint64 // duplicates and late originals discarded
	parked     uint64 // out-of-order arrivals held for gap fill
}

// NewSequencer returns a sequencer for arrivals from nprocs sources.
func NewSequencer(nprocs int) *Sequencer {
	s := &Sequencer{next: make([]uint64, nprocs), held: make([]map[uint64]Msg, nprocs)}
	s.Reset()
	return s
}

// Reset rewinds the sequencer to what NewSequencer returns: every source
// expects sequence number 1, nothing is held, the counters are zero.
func (s *Sequencer) Reset() {
	for i := range s.next {
		s.next[i] = 1
	}
	for _, h := range s.held {
		clear(h)
	}
	s.suppressed, s.parked = 0, 0
}

// Admit processes one arrival, invoking deliver zero or more times: once
// for the message itself if it is next in sequence, plus once for each
// parked successor the delivery unblocks.
func (s *Sequencer) Admit(m Msg, deliver func(Msg)) {
	if m.Seq == 0 {
		deliver(m)
		return
	}
	src := m.Src
	switch {
	case m.Seq < s.next[src]:
		s.suppressed++
	case m.Seq > s.next[src]:
		if _, dup := s.held[src][m.Seq]; dup {
			s.suppressed++
			return
		}
		if s.held[src] == nil {
			s.held[src] = make(map[uint64]Msg)
		}
		s.held[src][m.Seq] = m
		s.parked++
	default:
		s.next[src]++
		deliver(m)
		for {
			hm, ok := s.held[src][s.next[src]]
			if !ok {
				return
			}
			delete(s.held[src], s.next[src])
			s.next[src]++
			deliver(hm)
		}
	}
}

// Suppressed returns how many duplicates and late originals were
// discarded.
func (s *Sequencer) Suppressed() uint64 { return s.suppressed }

// Parked returns how many out-of-order arrivals were held for gap fill
// (cumulative).
func (s *Sequencer) Parked() uint64 { return s.parked }

// Waiting returns how many arrivals are currently parked — nonzero at
// quiescence means a gap never filled.
func (s *Sequencer) Waiting() int {
	n := 0
	for _, m := range s.held {
		n += len(m)
	}
	return n
}
