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
// directory. Slices are queues and fold in order, as words; every map
// folds as one record per key, which the hash gathers in no order, so
// two nodes in the same logical state fold alike regardless of the path
// that led there (map iteration never leaks into the hash) and a hash
// sorts no keys and allocates nothing.

// StateHash returns a fingerprint of the machine's canonical protocol
// state: every node's, and the messages in flight. Simulated time is
// deliberately excluded — the model checker uses the hash to recognize
// logically identical states reached along different schedules, a
// (conservative-in-coverage) pruning heuristic.
func (e *Env) StateHash() uint64 {
	h := fold.Rec(fold.Seed)
	for _, n := range e.Nodes {
		var recs fold.Bag
		n.fold(&h, &recs)
		h.Bag(recs)
	}
	h.Bag(e.Net.InFlightDigest())
	return h.Sum()
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

// syncRec is the record of one synchronization object: its state word,
// its timestamp and the nodes queued on it, in order.
func syncRec(s fold.Section, id, state, ts uint64, waiting []int) fold.Rec {
	r := fold.Record(s, id)
	r.Word(state)
	r.Word(ts)
	for _, w := range waiting {
		r.Word(uint64(w))
	}
	return r
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

	n.WB.Visit(func(e cache.WBEntry) { h.Word(e.Block); h.Word(e.Words) })
	h.End()
	n.CB.Visit(func(e cache.CBEntry) { h.Word(e.Block); h.Word(e.Words) })
	h.End()

	for blk, t := range n.outstanding {
		r := fold.Record(fold.Txn, blk)
		r.Word(bit(t.Data.IsOpen()) | bit(t.Done.IsOpen())<<1 | bit(t.InvalidateOnFill)<<2 |
			bit(t.ExpectData)<<3 | bit(t.IsWrite)<<4 | bit(t.Filled)<<5 | bit(t.DoneEarly)<<6)
		recs.Add(r)
	}

	for _, q := range [...][]uint64{n.pendInv, n.delayed} {
		for _, blk := range q {
			h.Word(blk)
		}
		h.End()
	}
	h.Word(uint64(n.wtPending))
	// A family's home state is allocated at first use, and whether it
	// exists yet is part of the state: the point of first use is visible
	// to the search (TestExplorationGolden pins it).
	h.Word(bit(n.releaseParked) | bit(n.wbParked)<<1 | bit(n.sync.gate != nil)<<2 |
		bit(n.eagerHome != nil)<<3 | bit(n.tardis != nil)<<4)

	for id, l := range n.sync.locks {
		recs.Add(syncRec(fold.Lock, id, bit(l.held), l.ts, l.queue))
	}
	for id, b := range n.sync.bars {
		recs.Add(syncRec(fold.Barrier, id, uint64(b.arrived), b.ts, b.waiting))
	}
	for id, f := range n.sync.flags {
		recs.Add(syncRec(fold.Flag, id, bit(f.set), f.ts, f.waiters))
	}

	n.home.fold(recs)
	if es := n.eagerHome; es != nil {
		es.fold(recs)
	}
	if td := n.tardis; td != nil {
		td.fold(h, recs)
	}
	n.Dir.Fold(recs)
}
