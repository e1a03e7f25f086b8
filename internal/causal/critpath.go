package causal

import (
	"fmt"
	"sort"
	"strings"
)

// Cause is the protocol-level reason a stalled cycle is attributed to.
// The analyzer walks each stall episode backwards through the span DAG of
// the transaction it was stalled on and assigns every cycle of the
// episode to exactly one cause, so per-cause totals sum to the machine's
// stall-cycle total exactly.
type Cause uint8

const (
	// CauseBus: the local bus was streaming the fill into the cache.
	CauseBus Cause = iota
	// CauseMem: the home memory module was servicing the access.
	CauseMem
	// CauseDirService: the home protocol processor was actively working
	// on this transaction (directory lookup/update).
	CauseDirService
	// CauseFanout: the home protocol processor was dispatching write
	// notices or invalidations for this transaction.
	CauseFanout
	// CauseNoticeProc: a remote protocol processor was applying a write
	// notice / invalidation / forwarded request on this chain.
	CauseNoticeProc
	// CauseAck: the home was collecting acknowledgements.
	CauseAck
	// CauseDirQueue: the transaction sat in a protocol-processor or
	// memory queue behind other transactions (directory occupancy).
	CauseDirQueue
	// CauseNet: a message on the chain was in wire flight between nodes.
	CauseNet
	// CauseNetPort: a message on the chain was queued at a NIC port
	// (port contention).
	CauseNetPort
	// CauseRetx: a message on the chain was lost and the transport was
	// waiting out a retransmission timeout — the loss-induced stall time
	// the chaos harness wants attributed.
	CauseRetx
	// CauseWBDrain: the processor was waiting for its own write buffer to
	// drain (release semantics or a full coalescing buffer) with no
	// single covering transaction.
	CauseWBDrain
	// CauseSerialization: a synchronization stall not covered by protocol
	// work — waiting for another processor to release a lock, reach a
	// barrier, or set a flag.
	CauseSerialization
	// CauseOther: stalled cycles no recorded span covers.
	CauseOther

	// NumCauses is the number of attribution causes.
	NumCauses
)

var causeNames = [...]string{
	"bus", "mem", "dir-service", "fanout", "notice-proc", "ack",
	"dir-queue", "net", "net-port", "retx-wait", "wb-drain", "serialization", "other",
}

// String returns the cause mnemonic used in attribution tables.
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("Cause(%d)", uint8(c))
}

// Segment is one attributed slice of a stall episode.
type Segment struct {
	Begin, End uint64
	Cause      Cause
	// Node is where the covering work happened (-1 for uncovered slices).
	Node int32
	// Block is the covering span's block (0 when none).
	Block uint64
}

// Dur returns the segment length in cycles.
func (s Segment) Dur() uint64 { return s.End - s.Begin }

// Episode is one analyzed stall with its cycle attribution.
type Episode struct {
	// Span is the stall span itself.
	Span *Span
	// Segments partition [Span.Begin, Span.End) in cycle order.
	Segments []Segment
}

// Dur returns the episode length in cycles.
func (e *Episode) Dur() uint64 { return e.Span.Dur() }

// Chain renders the episode's attributed cause chain, longest slices
// first, e.g. "dir-queue:412 net:220 mem:96".
func (e *Episode) Chain(max int) string {
	agg := make(map[Cause]uint64)
	for _, s := range e.Segments {
		agg[s.Cause] += s.Dur()
	}
	type cc struct {
		c Cause
		n uint64
	}
	var parts []cc
	for c, n := range agg {
		parts = append(parts, cc{c, n})
	}
	sort.Slice(parts, func(i, j int) bool {
		if parts[i].n != parts[j].n {
			return parts[i].n > parts[j].n
		}
		return parts[i].c < parts[j].c
	})
	if max > 0 && len(parts) > max {
		parts = parts[:max]
	}
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", p.c, p.n)
	}
	return b.String()
}

// Attribution is the whole-run critical-path breakdown.
type Attribution struct {
	// ByCause[class][cause] is the stalled cycles of that stats class
	// attributed to that cause.
	ByCause [NumStallClasses][NumCauses]uint64
	// Episodes lists every stall episode with its segment attribution,
	// in close order.
	Episodes []Episode
}

// Total returns all attributed cycles; by construction it equals the sum
// of every stall episode's length, which the instrumentation guarantees
// equals the stats stall-cycle aggregate.
func (a *Attribution) Total() uint64 {
	var n uint64
	for _, row := range a.ByCause {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// ClassTotal returns the attributed cycles of one stall class.
func (a *Attribution) ClassTotal(class StallClass) uint64 {
	var n uint64
	for _, v := range a.ByCause[class] {
		n += v
	}
	return n
}

// CauseTotal returns the attributed cycles of one cause across classes.
func (a *Attribution) CauseTotal(cause Cause) uint64 {
	var n uint64
	for class := StallClass(0); class < NumStallClasses; class++ {
		n += a.ByCause[class][cause]
	}
	return n
}

// TopN returns the n longest stall episodes, longest first (ties broken
// by begin cycle, then open order, for determinism).
func (a *Attribution) TopN(n int) []*Episode {
	out := make([]*Episode, len(a.Episodes))
	for i := range out {
		out[i] = &a.Episodes[i]
	}
	sort.Slice(out, func(x, y int) bool {
		ex, ey := out[x], out[y]
		if ex.Dur() != ey.Dur() {
			return ex.Dur() > ey.Dur()
		}
		if ex.Span.Begin != ey.Span.Begin {
			return ex.Span.Begin < ey.Span.Begin
		}
		return ex.Span.ID < ey.Span.ID
	})
	return out[:min(n, len(out))]
}

// candidate is a clipped covering interval competing for stall cycles.
type candidate struct {
	begin, end uint64
	cause      Cause
	prio       int    // lower wins
	order      uint64 // tie-break: the stalled-on chain first, then open order
	node       int32
	block      uint64
}

// causePrio ranks causes when several spans cover the same stalled
// cycle: actual service work beats queueing beats wire time, so the
// attribution names the resource that was *doing* something (or that the
// transaction was queued behind) rather than double-counting overlap.
var causePrio = [NumCauses]int{
	CauseBus:        0,
	CauseMem:        1,
	CauseDirService: 2,
	CauseFanout:     3,
	CauseNoticeProc: 4,
	CauseAck:        5,
	CauseDirQueue:   6,
	CauseNet:        7,
	CauseNetPort:    8,
	// A retransmission wait is pure lost time: any real work or queueing
	// overlapping it should win the cycle, so it ranks below everything
	// that names an active resource.
	CauseRetx: 9,
	// Fallback causes never appear as candidates.
	CauseWBDrain:       90,
	CauseSerialization: 91,
	CauseOther:         92,
}

// spanCandidates converts one protocol-work span into attribution
// candidates, splitting queueing from service where the span records it.
func spanCandidates(s *Span, out []candidate, order uint64) []candidate {
	add := func(b, e uint64, c Cause) []candidate {
		if e <= b {
			return out
		}
		return append(out, candidate{
			begin: b, end: e, cause: c, prio: causePrio[c], order: order,
			node: s.Node, block: s.Block,
		})
	}
	switch s.Kind {
	case KindBus:
		out = add(s.Begin, s.End, CauseBus)
	case KindMem:
		out = add(s.Begin, s.Begin+s.Wait, CauseDirQueue)
		out = add(s.Begin+s.Wait, s.End, CauseMem)
	case KindDir:
		out = add(s.Begin, s.Begin+s.Wait, CauseDirQueue)
		out = add(s.Begin+s.Wait, s.End, CauseDirService)
	case KindFanout:
		out = add(s.Begin, s.Begin+s.Wait, CauseDirQueue)
		out = add(s.Begin+s.Wait, s.End, CauseFanout)
	case KindNotice:
		out = add(s.Begin, s.Begin+s.Wait, CauseDirQueue)
		out = add(s.Begin+s.Wait, s.End, CauseNoticeProc)
	case KindAck:
		out = add(s.Begin, s.Begin+s.Wait, CauseDirQueue)
		out = add(s.Begin+s.Wait, s.End, CauseAck)
	case KindNet:
		out = add(s.Begin, s.Begin+s.Wait, CauseNetPort)
		out = add(s.Begin+s.Wait, s.End-s.Wait2, CauseNet)
		out = add(s.End-s.Wait2, s.End, CauseNetPort)
	case KindRetx:
		out = add(s.Begin, s.End, CauseRetx)
	}
	return out
}

// fallbackCause picks the bucket for stalled cycles no span covers.
func fallbackCause(stall *Span) Cause {
	switch {
	case strings.Contains(stall.Why, "drain") || strings.Contains(stall.Why, "write buffer"):
		return CauseWBDrain
	case stall.Class == StallSync:
		return CauseSerialization
	}
	return CauseOther
}

// Analyze attributes every stalled cycle recorded by a retaining tracer.
// For each stall episode it collects the spans of the transaction the
// processor was stalled on (the episode's own TID and the causal TID the
// wake event carried), clips them to the stall window, and partitions the
// window into segments, each charged to the highest-priority covering
// cause; uncovered cycles fall back to wb-drain / serialization / other.
func Analyze(t *Tracer) *Attribution {
	a := &Attribution{}
	if t == nil || t.limit == 0 {
		return a
	}
	byTID := t.byTID()
	for i := range t.spans {
		s := &t.spans[i]
		if s.Kind != KindStall {
			continue
		}
		ep := analyzeEpisode(s, byTID)
		for _, seg := range ep.Segments {
			a.ByCause[s.Class][seg.Cause] += seg.Dur()
		}
		a.Episodes = append(a.Episodes, ep)
	}
	return a
}

// analyzeEpisode partitions one stall window among its covering spans.
func analyzeEpisode(stall *Span, byTID map[uint64][]*Span) Episode {
	var cands []candidate
	collect := func(tid, rank uint64) {
		if tid == 0 {
			return
		}
		for _, s := range byTID[tid] {
			if s.Kind == KindStall || s.Kind == KindTxn || s.Kind == KindSync {
				continue
			}
			if s.End <= stall.Begin || s.Begin >= stall.End {
				continue
			}
			cands = spanCandidates(s, cands, rank|s.ID)
		}
	}
	collect(stall.TID, 0)
	if stall.Cause != stall.TID {
		collect(stall.Cause, 1<<63)
	}

	fb := fallbackCause(stall)
	ep := Episode{Span: stall}

	// Boundary sweep: clip candidates to the window, gather cut points,
	// and pick the best-priority covering candidate per elementary slice.
	cuts := map[uint64]struct{}{stall.Begin: {}, stall.End: {}}
	for i := range cands {
		c := &cands[i]
		if c.begin < stall.Begin {
			c.begin = stall.Begin
		}
		if c.end > stall.End {
			c.end = stall.End
		}
		if c.begin < c.end {
			cuts[c.begin] = struct{}{}
			cuts[c.end] = struct{}{}
		}
	}
	pts := make([]uint64, 0, len(cuts))
	for p := range cuts {
		pts = append(pts, p)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })

	push := func(seg Segment) {
		n := len(ep.Segments)
		if n > 0 {
			last := &ep.Segments[n-1]
			if last.End == seg.Begin && last.Cause == seg.Cause &&
				last.Node == seg.Node && last.Block == seg.Block {
				last.End = seg.End
				return
			}
		}
		ep.Segments = append(ep.Segments, seg)
	}
	for i := 0; i+1 < len(pts); i++ {
		lo, hi := pts[i], pts[i+1]
		best := -1
		for j := range cands {
			c := &cands[j]
			if c.begin <= lo && c.end >= hi {
				if best < 0 || c.prio < cands[best].prio ||
					(c.prio == cands[best].prio && c.order < cands[best].order) {
					best = j
				}
			}
		}
		if best >= 0 {
			c := &cands[best]
			push(Segment{Begin: lo, End: hi, Cause: c.cause, Node: c.node, Block: c.block})
		} else {
			push(Segment{Begin: lo, End: hi, Cause: fb, Node: -1})
		}
	}
	return ep
}
