package protocol

import (
	"encoding/binary"

	"lazyrc/internal/config"
)

// The simulator decouples timing from data in the usual execution-driven
// way: workload values live in one backing store, so a stale cached copy
// still "reads" the freshest value. Values re-couples them: it holds what
// home memory and each cached copy actually contain, word by word, moved
// only where the protocol moves data — fills, store commits and merges
// into home memory. Payload-bearing messages carry a value snapshot
// (mesh.Msg.Vals) taken when the message is sent, so a fill installs the
// values the sender held at send time, not at arrival time. With a store
// attached (Config.TrackValues) a processor's loads return what the
// protocol delivered to it; without one (every cell but §4.2's) the
// hooks below cost one nil check each.

// Values is a machine's value store. Everything is dense: home memory is
// one word array, seeded from the backing store when a run begins; each
// node has one copy per cache frame (the cache is direct-mapped), tagged
// with its block; a store is staged from the moment the CPU issues it
// until the protocol commits it to the copy. It is not safe for
// concurrent use (the simulator is single-threaded).
type Values struct {
	words, frames int
	home          []uint64 // block*words + word
	tags          []uint64 // node*frames + frame: 1 + the block held there, 0 for none
	copies        []uint64 // (node*frames + frame)*words + word
	staged        [][]stagedStore
	snaps         []uint64 // the snapshot chunk: carved up to its length
}

// stagedStore is a CPU store the protocol has not yet committed.
type stagedStore struct {
	block uint64
	word  int
	val   uint64
}

// NewValues returns an empty store for a machine configured as cfg.
func NewValues(cfg config.Config) *Values {
	v := &Values{words: cfg.WordsPerLine(), frames: cfg.Lines()}
	v.tags = make([]uint64, cfg.Procs*v.frames)
	v.copies = make([]uint64, len(v.tags)*v.words)
	v.staged = make([][]stagedStore, cfg.Procs)
	return v
}

// reset forgets every copy and staged store (Env.Reset); home memory is
// seeded afresh when the next run begins.
func (v *Values) reset() {
	clear(v.tags)
	v.snaps = v.snaps[:0]
	for i := range v.staged {
		v.staged[i] = v.staged[i][:0]
	}
}

// Seed sets home memory to mem, the backing store's little-endian image:
// whatever a workload's Setup poked before the run.
func (v *Values) Seed(mem []byte) {
	line := v.words * config.WordSize
	n := (len(mem) + line - 1) / line * v.words
	v.home = append(v.home[:0], make([]uint64, n)...)
	for i := 0; i+config.WordSize <= len(mem); i += config.WordSize {
		v.home[i/config.WordSize] = binary.LittleEndian.Uint64(mem[i:])
	}
}

// Stage records node's store of val to (block, word) as the CPU issues it.
func (v *Values) Stage(node int, block uint64, word int, val uint64) {
	if s := v.stagedAt(node, block, word); s != nil {
		s.val = val
		return
	}
	v.staged[node] = append(v.staged[node], stagedStore{block, word, val})
}

// Read returns the value a load by node observes: its own staged store if
// one is in flight, else its cached copy, else home memory.
func (v *Values) Read(node int, block uint64, word int) uint64 {
	if s := v.stagedAt(node, block, word); s != nil {
		return s.val
	}
	if c := v.copyOf(node, block); c != nil {
		return c[word]
	}
	return v.homeLine(block)[word]
}

func (v *Values) stagedAt(node int, block uint64, word int) *stagedStore {
	st := v.staged[node]
	for i := range st {
		if st[i].block == block && st[i].word == word {
			return &st[i]
		}
	}
	return nil
}

func (v *Values) homeLine(block uint64) []uint64 {
	i := int(block) * v.words
	return v.home[i : i+v.words]
}

// frame returns the index of the copy node may hold of block.
func (v *Values) frame(node int, block uint64) int {
	return node*v.frames + int(block%uint64(v.frames))
}

// copyOf returns node's copy of block, or nil when its frame holds none.
func (v *Values) copyOf(node int, block uint64) []uint64 {
	f := v.frame(node, block)
	if v.tags[f] != block+1 {
		return nil
	}
	return v.copies[f*v.words : (f+1)*v.words]
}

// fill installs vals as node's copy of block.
func (v *Values) fill(node int, block uint64, vals []uint64) {
	f := v.frame(node, block)
	v.tags[f] = block + 1
	copy(v.copies[f*v.words:(f+1)*v.words], vals)
}

// commit moves node's staged store to (block, word) into its copy, made
// from home memory if it has none. A re-commit after the stage already
// landed is a no-op: the value is in place.
func (v *Values) commit(node int, block uint64, word int) {
	s := v.stagedAt(node, block, word)
	if s == nil {
		return
	}
	c := v.copyOf(node, block)
	if c == nil {
		v.fill(node, block, v.homeLine(block))
		c = v.copyOf(node, block)
	}
	c[word] = s.val
	st := v.staged[node]
	*s = st[len(st)-1]
	v.staged[node] = st[:len(st)-1]
}

// mergeHome merges the words selected by mask (a bit per word) from vals
// into home memory's line.
func (v *Values) mergeHome(block uint64, vals []uint64, mask uint64) {
	h := v.homeLine(block)
	for w := range h {
		if mask&(1<<uint(w)) != 0 {
			h[w] = vals[w]
		}
	}
}

// snapshot returns a copy of line carved from the snapshot chunk, which
// reset rewinds: no message outlives a run. A full chunk is left to the
// messages holding it; the next has twice its lines, 1 to 64, so a
// litmus machine's first run does not pay for a 64p cell's.
func (v *Values) snapshot(line []uint64) []uint64 {
	n := len(v.snaps)
	if n+v.words > cap(v.snaps) {
		v.snaps, n = make([]uint64, 0, min(max(2*cap(v.snaps), v.words), 64*v.words)), 0
	}
	v.snaps = append(v.snaps, line...)
	return v.snaps[n : n+v.words : n+v.words]
}

// homeVals snapshots home memory's line for a data reply, or nil without
// a value store.
func (n *Node) homeVals(block uint64) []uint64 {
	if v := n.Env.Vals; v != nil {
		return v.snapshot(v.homeLine(block))
	}
	return nil
}

// copyVals snapshots this node's cached copy (home memory's line if it
// has none) for an owner-supplied data message or write-back, or nil
// without a value store.
func (n *Node) copyVals(block uint64) []uint64 {
	v := n.Env.Vals
	if v == nil {
		return nil
	}
	c := v.copyOf(n.ID, block)
	if c == nil {
		c = v.homeLine(block)
	}
	return v.snapshot(c)
}

// mergeHome merges arriving write data into the value store's home
// memory. Called at delivery-handler entry — not at the modeled memory
// completion time — so value application follows per-(src,dst) FIFO
// message order even when modeled memory timings overlap.
func (n *Node) mergeHome(block uint64, vals []uint64, mask uint64) {
	if n.Env.Vals != nil && vals != nil {
		n.Env.Vals.mergeHome(block, vals, mask)
	}
}
