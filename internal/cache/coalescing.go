package cache

import "lazyrc/internal/telemetry"

// CoalescingBuffer is the fully associative coalescing buffer the lazy
// protocols place after their write-through caches (16 entries in the
// paper's configuration, after Jouppi). It merges word-granularity
// write-throughs to the same block so that data traffic stays comparable
// to a write-back cache while preserving the simple design and low
// release-synchronization cost of write-through.
//
// Entries drain to the block's home memory: on capacity pressure (oldest
// first), when the block leaves the cache, and en masse at release
// operations. The protocol layer performs the drains and tracks their
// acknowledgements; the buffer tracks contents and FIFO age.
type CoalescingBuffer struct {
	cap     int
	entries []CBEntry
	drained []CBEntry // the last DrainAll's entries; their storage is reused

	merges    uint64 // writes absorbed into an existing entry
	inserts   uint64 // new entries created
	capDrains uint64 // entries pushed out by capacity pressure

	// Telemetry (nil clock = disabled): entries are stamped with their
	// allocation cycle so every drain path can observe residency.
	clock func() uint64
	resid *telemetry.Histogram
}

// CBEntry is the pending write-through state for one block.
type CBEntry struct {
	Block uint64
	Words uint64 // mask of words to merge into memory

	born uint64 // allocation cycle (telemetry only; excluded from snapshots)
}

// DirtyBytes returns the payload size of draining this entry, given the
// word size in bytes.
func (e CBEntry) DirtyBytes(wordSize int) int {
	n := 0
	for m := e.Words; m != 0; m &= m - 1 {
		n++
	}
	return n * wordSize
}

// NewCoalescingBuffer returns a buffer with the given capacity.
func NewCoalescingBuffer(capacity int) *CoalescingBuffer {
	if capacity < 1 {
		panic("cache: coalescing buffer needs capacity >= 1")
	}
	b := &CoalescingBuffer{cap: capacity}
	b.Reset()
	return b
}

// Reset empties the buffer and zeroes its counters, as
// NewCoalescingBuffer returns it; attached telemetry stays.
func (b *CoalescingBuffer) Reset() {
	b.entries, b.drained = b.entries[:0], b.drained[:0]
	b.merges, b.inserts, b.capDrains = 0, 0, 0
}

// EnableTelemetry stamps entries with their allocation cycle (via clock)
// and observes each entry's buffer residency into resid when it drains —
// by capacity pressure, targeted removal, or a release-point flush.
func (b *CoalescingBuffer) EnableTelemetry(clock func() uint64, resid *telemetry.Histogram) {
	b.clock = clock
	b.resid = resid
}

// observeDrain records one draining entry's residency.
func (b *CoalescingBuffer) observeDrain(e CBEntry) {
	if b.clock != nil {
		b.resid.Observe(b.clock() - e.born)
	}
}

// Cap returns the entry capacity.
func (b *CoalescingBuffer) Cap() int { return b.cap }

// Len returns the number of occupied entries.
func (b *CoalescingBuffer) Len() int { return len(b.entries) }

// Empty reports whether the buffer has drained.
func (b *CoalescingBuffer) Empty() bool { return len(b.entries) == 0 }

// Put merges a write to word of block. If the buffer is full and block
// has no entry, the oldest entry is evicted and returned for draining
// (drain=true). The new write is always accepted.
func (b *CoalescingBuffer) Put(block uint64, word int) (drained CBEntry, drain bool) {
	for i := range b.entries {
		if b.entries[i].Block == block {
			b.entries[i].Words |= 1 << uint(word)
			b.merges++
			return CBEntry{}, false
		}
	}
	if len(b.entries) >= b.cap {
		drained = b.entries[0]
		b.entries = b.entries[:copy(b.entries, b.entries[1:])]
		b.capDrains++
		drain = true
		b.observeDrain(drained)
	}
	e := CBEntry{Block: block, Words: 1 << uint(word)}
	if b.clock != nil {
		e.born = b.clock()
	}
	b.entries = append(b.entries, e)
	b.inserts++
	return drained, drain
}

// Visit calls fn for every entry in FIFO order — canonical iteration for
// state snapshots.
func (b *CoalescingBuffer) Visit(fn func(CBEntry)) {
	for _, e := range b.entries {
		fn(e)
	}
}

// Has reports whether block has a pending entry.
func (b *CoalescingBuffer) Has(block uint64) bool {
	for i := range b.entries {
		if b.entries[i].Block == block {
			return true
		}
	}
	return false
}

// Remove extracts the entry for block if present (e.g., the block is
// being invalidated or evicted and its pending update must be pushed to
// memory first).
func (b *CoalescingBuffer) Remove(block uint64) (e CBEntry, present bool) {
	for i := range b.entries {
		if b.entries[i].Block == block {
			e = b.entries[i]
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			b.observeDrain(e)
			return e, true
		}
	}
	return CBEntry{}, false
}

// DrainAll removes and returns every entry in FIFO order — the release-
// point flush. The slice is good until the next DrainAll.
func (b *CoalescingBuffer) DrainAll() []CBEntry {
	out := b.entries
	b.entries, b.drained = b.drained[:0], out
	for _, e := range out {
		b.observeDrain(e)
	}
	return out
}

// Stats returns inserts, merges, and capacity drains.
func (b *CoalescingBuffer) Stats() (inserts, merges, capDrains uint64) {
	return b.inserts, b.merges, b.capDrains
}
