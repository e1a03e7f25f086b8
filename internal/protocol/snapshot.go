package protocol

import (
	"encoding/binary"
	"slices"

	"lazyrc/internal/cache"
	"lazyrc/internal/mesh"
)

// This file implements the canonical state snapshot the model checker
// hashes for visited-state deduplication. Everything protocol-visible at
// a node is encoded in a deterministic order: cache frames, buffered
// writes, outstanding transactions, pending invalidations, deferred
// notices, synchronization-object state, the home's request serializer,
// and the family's home machinery. Two nodes in the same logical state
// produce identical bytes regardless of the path that led there (map
// iteration never leaks into the encoding).

type snapBuf struct {
	b    []byte
	keys []uint64 // sortedKeys scratch
}

func (s *snapBuf) u64(v uint64) { s.b = binary.LittleEndian.AppendUint64(s.b, v) }

func (s *snapBuf) bit(v bool) {
	if v {
		s.b = append(s.b, 1)
	} else {
		s.b = append(s.b, 0)
	}
}

// end closes a variable-length section (or one record of it).
func (s *snapBuf) end() { s.u64(^uint64(0)) }

// ids encodes a queue of node ids and closes it.
func (s *snapBuf) ids(q []int) {
	for _, id := range q {
		s.u64(uint64(id))
	}
	s.end()
}

// msg encodes the fields of a held request that decide its service.
func (s *snapBuf) msg(m mesh.Msg) {
	s.u64(uint64(m.Kind))
	s.u64(uint64(m.Src))
	s.u64(m.Arg)
	s.u64(m.Aux)
}

// sortedKeys returns m's keys in ascending order. The slice is s's
// scratch: it is valid until the next call.
func sortedKeys[V any](s *snapBuf, m map[uint64]V) []uint64 {
	s.keys = s.keys[:0]
	for k := range m {
		s.keys = append(s.keys, k)
	}
	slices.Sort(s.keys)
	return s.keys
}

// AppendSnapshot appends a canonical byte encoding of this node's
// protocol state to b and returns the extended slice.
func (n *Node) AppendSnapshot(b []byte) []byte {
	s := &snapBuf{b: b}
	s.u64(uint64(n.ID))

	n.Cache.VisitValid(func(l *cache.Line) {
		s.u64(l.Block)
		s.b = append(s.b, byte(l.State))
		s.u64(l.Dirty)
	})
	s.end()

	n.WB.Visit(func(e cache.WBEntry) { s.u64(e.Block); s.u64(e.Words) })
	s.end()
	n.CB.Visit(func(e cache.CBEntry) { s.u64(e.Block); s.u64(e.Words) })
	s.end()

	for _, blk := range sortedKeys(s, n.outstanding) {
		t := n.outstanding[blk]
		s.u64(blk)
		s.bit(t.Data.IsOpen())
		s.bit(t.Done.IsOpen())
		s.bit(t.InvalidateOnFill)
		s.bit(t.ExpectData)
		s.bit(t.IsWrite)
		s.bit(t.Filled)
		s.bit(t.DoneEarly)
	}
	s.end()

	for _, blk := range n.pendInv {
		s.u64(blk)
	}
	s.end()
	for _, blk := range n.delayed {
		s.u64(blk)
	}
	s.end()
	s.u64(uint64(n.wtPending))
	s.bit(n.releaseParked)
	s.bit(n.wbParked)
	s.bit(n.sync.gate != nil)

	for _, id := range sortedKeys(s, n.sync.locks) {
		l := n.sync.locks[id]
		s.u64(id)
		s.bit(l.held)
		s.u64(l.ts)
		s.ids(l.queue)
	}
	s.end()
	for _, id := range sortedKeys(s, n.sync.bars) {
		bar := n.sync.bars[id]
		s.u64(id)
		s.u64(uint64(bar.arrived))
		s.u64(bar.ts)
		s.ids(bar.waiting)
	}
	s.end()
	for _, id := range sortedKeys(s, n.sync.flags) {
		f := n.sync.flags[id]
		s.u64(id)
		s.bit(f.set)
		s.u64(f.ts)
		s.ids(f.waiters)
	}
	s.end()

	n.home.appendSnapshot(s)
	if es := n.eagerHome; es != nil {
		es.appendSnapshot(s)
	}
	if td := n.tardis; td != nil {
		td.appendSnapshot(s)
	}
	return s.b
}
