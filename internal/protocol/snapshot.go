package protocol

import (
	"lazyrc/internal/cache"
	"lazyrc/internal/fold"
	"lazyrc/internal/mesh"
)

// This file folds the machine's state into the hash the model checker
// keys visited states by. Everything protocol-visible at a node goes in:
// cache frames, buffered writes, outstanding transactions, pending
// invalidations, deferred notices, synchronization-object state, the
// home's request serializer, the family's home machinery, and the
// directory. Queues fold in order, as words; every table — a map, or a
// slice in no particular order — folds as one record per entry, which
// the hash gathers in no order, so two nodes in the same logical state
// fold alike regardless of the path that led there and a hash sorts no
// keys and allocates nothing. A node's fold is kept as its digest and
// redone only when stale: no handler reaches another node's state, so a
// node changes only in an event that runs on it — a delivery, a
// continuation, its processor's resuming — and each of those that can
// change it calls Touch first.

// StateHash returns a fingerprint of the machine's canonical protocol
// state: every node's digest, and the messages in flight. Simulated time
// is deliberately excluded — the model checker uses the hash to recognize
// logically identical states reached along different schedules, a
// (conservative-in-coverage) pruning heuristic. A hash taken inside an
// event leaves the event's node stale, as the event may change it yet.
func (e *Env) StateHash() uint64 {
	h := fold.Rec(fold.Seed)
	for _, n := range e.Nodes {
		if n.stale {
			d := fold.Rec(fold.Seed)
			var recs fold.Bag
			n.fold(&d, &recs)
			d.Bag(recs)
			n.digest, n.stale = d.Sum(), n == e.running
		}
		h.Word(n.digest)
	}
	h.Bag(e.Net.InFlightDigest())
	return h.Sum()
}

// Touch is the state hash's write barrier: the node's digest is stale,
// and the event running runs on it.
func (n *Node) Touch() { n.stale, n.Env.running = true, n }

// EndEvent says no event is running, so the next hash folds the node the
// last one ran on for good.
func (e *Env) EndEvent() { e.running = nil }

// ForgetDigests makes every node stale, so the next hash folds the whole
// machine afresh, as the first after NewNode or Reset does.
func (e *Env) ForgetDigests() {
	for _, n := range e.Nodes {
		n.stale = true
	}
}

func bit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// foldMsg folds the fields of a held request that decide its service.
func foldMsg(r *fold.Rec, m *mesh.Msg) {
	r.Word(uint64(uint32(m.Kind)) | uint64(uint32(m.Src))<<32)
	r.Word(m.Arg)
	r.Word(m.Aux)
}

// fold folds this node's protocol state and directory: what is ordered
// into h, a record per key of every map into recs.
func (n *Node) fold(h *fold.Rec, recs *fold.Bag) {
	h.Word(uint64(n.ID))

	n.Cache.VisitValid(func(l *cache.Line) {
		h.Word(l.Block)
		h.Word(uint64(l.State))
		h.Word(l.Dirty)
	})
	h.End()

	for _, b := range [...]*cache.Buffer{n.WB, n.CB} {
		for _, e := range b.Entries() {
			h.Word(e.Block)
			h.Word(e.Words)
		}
		h.End()
	}

	for _, t := range n.outstanding {
		r := fold.Record(fold.Txn, t.Block)
		r.Word(bit(t.Data.IsOpen()) | bit(t.Done.IsOpen())<<1 | bit(t.InvalidateOnFill)<<2 |
			bit(t.ExpectData)<<3 | bit(t.IsWrite)<<4 | bit(t.Filled)<<5 | bit(t.DoneEarly)<<6)
		recs.Add(r)
	}

	for _, q := range [...]*blockQueue{&n.pendInv, &n.delayed} {
		for _, blk := range q.order {
			h.Word(blk)
		}
		h.End()
	}
	h.Word(uint64(n.wtPending))
	// A family's home state is allocated at first use, and whether it
	// exists yet is part of the state: the point of first use is visible
	// to the search (TestExplorationGolden pins it).
	h.Word(bit(n.releaseParked) | bit(n.wbParked)<<1 | bit(n.sync.waiting)<<2 |
		bit(n.eagerUp)<<3 | bit(n.tardis != nil)<<4)

	// A synchronization object's record: its state word, its timestamp
	// and the nodes queued on it, in order.
	for _, o := range n.sync.objs {
		r := fold.Record(o.key.kind, o.key.id)
		r.Word(o.state)
		r.Word(o.ts)
		for _, w := range o.queue {
			r.Word(uint64(w))
		}
		recs.Add(r)
	}

	n.home.fold(recs)
	if td := n.tardis; td != nil {
		td.fold(h, recs)
	}
	n.Dir.Fold(recs)
}
