package cache

import (
	"math/bits"

	"lazyrc/internal/telemetry"
)

// Buffer is a bounded FIFO of pending stores with one entry per line: a
// store to a line already buffered merges into that entry's word mask.
// It is both the CPU-side write buffer of the relaxed protocols (4
// entries in the paper's configuration), whose entries await permission
// to perform in the cache, and the coalescing write-through buffer the
// lazy protocols place after their caches (16 entries, after Jouppi),
// whose entries drain to the block's home memory.
//
// What happens when the buffer is full is the protocol's choice: the
// processor stalls on a full write buffer, and a full coalescing buffer
// drains its oldest entry to make room. The buffer tracks contents and
// FIFO age only.
type Buffer struct {
	cap     int
	entries []Entry
	drained []Entry // the last DrainAll's entries; their storage is reused

	// Telemetry (nil clock = disabled): entries are stamped with their
	// allocation cycle so every removal can observe residency.
	clock func() uint64
	resid *telemetry.Histogram
}

// Entry is one line's worth of buffered stores.
type Entry struct {
	Block uint64
	Words uint64 // mask of words written while buffered

	born uint64 // allocation cycle (telemetry only; excluded from snapshots)
}

// DirtyBytes returns the payload size of draining this entry, given the
// word size in bytes.
func (e Entry) DirtyBytes(wordSize int) int { return bits.OnesCount64(e.Words) * wordSize }

// NewBuffer returns a buffer with the given entry capacity.
func NewBuffer(capacity int) *Buffer {
	if capacity < 1 {
		panic("cache: buffer needs capacity >= 1")
	}
	return &Buffer{cap: capacity}
}

// Reset empties the buffer, as NewBuffer returns it; attached telemetry
// stays.
func (b *Buffer) Reset() { b.entries, b.drained = b.entries[:0], b.drained[:0] }

// EnableTelemetry stamps entries with their allocation cycle (via clock)
// and observes each entry's residency into resid when it leaves — by
// Remove, PopOldest or DrainAll.
func (b *Buffer) EnableTelemetry(clock func() uint64, resid *telemetry.Histogram) {
	b.clock = clock
	b.resid = resid
}

func (b *Buffer) observe(e Entry) {
	if b.clock != nil {
		b.resid.Observe(b.clock() - e.born)
	}
}

// Len returns the number of occupied entries.
func (b *Buffer) Len() int { return len(b.entries) }

// Full reports whether a store to a new line would find no entry.
func (b *Buffer) Full() bool { return len(b.entries) >= b.cap }

// Empty reports whether the buffer has drained.
func (b *Buffer) Empty() bool { return len(b.entries) == 0 }

// Entries returns the entries oldest first — canonical iteration for
// state snapshots. The slice is good until the buffer next changes.
func (b *Buffer) Entries() []Entry { return b.entries }

// Find returns the entry for block, or nil.
func (b *Buffer) Find(block uint64) *Entry {
	for i := range b.entries {
		if b.entries[i].Block == block {
			return &b.entries[i]
		}
	}
	return nil
}

// Put records a store to word of block. It reports whether the store
// merged into an existing entry (ok=true, allocated=false), allocated a
// new entry (ok=true, allocated=true), or found the buffer full (ok=false).
func (b *Buffer) Put(block uint64, word int) (allocated, ok bool) {
	if e := b.Find(block); e != nil {
		e.Words |= 1 << uint(word)
		return false, true
	}
	if b.Full() {
		return false, false
	}
	e := Entry{Block: block, Words: 1 << uint(word)}
	if b.clock != nil {
		e.born = b.clock()
	}
	b.entries = append(b.entries, e)
	return true, true
}

// Remove extracts the entry for block if present.
func (b *Buffer) Remove(block uint64) (e Entry, present bool) {
	for i := range b.entries {
		if b.entries[i].Block == block {
			e = b.entries[i]
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			b.observe(e)
			return e, true
		}
	}
	return Entry{}, false
}

// PopOldest removes and returns the oldest entry; the buffer must not be
// empty.
func (b *Buffer) PopOldest() Entry {
	e := b.entries[0]
	b.entries = b.entries[:copy(b.entries, b.entries[1:])]
	b.observe(e)
	return e
}

// DrainAll removes and returns every entry oldest first — the release-
// point flush. The slice is good until the next DrainAll.
func (b *Buffer) DrainAll() []Entry {
	out := b.entries
	b.entries, b.drained = b.drained[:0], out
	for _, e := range out {
		b.observe(e)
	}
	return out
}
