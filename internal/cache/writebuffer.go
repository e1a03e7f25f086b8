package cache

import "lazyrc/internal/telemetry"

// WriteBuffer is the small CPU-side write buffer used by the relaxed
// protocols (4 entries in the paper's configuration). Reads bypass it;
// writes to the same cache line coalesce into one entry; the processor
// stalls when it is full and at release points until it drains.
//
// Each entry represents a pending store awaiting permission to be
// performed in the cache (data return for a miss, ownership or
// write-notice acknowledgement depending on the protocol). The protocol
// retires entries; the buffer only tracks membership and order.
type WriteBuffer struct {
	cap     int
	entries []WBEntry

	stalls    uint64 // times the CPU found the buffer full
	coalesced uint64 // stores merged into an existing entry
	total     uint64 // stores presented

	// Telemetry (nil clock = disabled): entries are stamped with their
	// allocation cycle so retirement can observe residency — the drain
	// latency a store waits in the buffer before being performed.
	clock func() uint64
	resid *telemetry.Histogram
}

// WBEntry is one pending line's worth of buffered stores.
type WBEntry struct {
	Block uint64
	Words uint64 // mask of words written while buffered

	born uint64 // allocation cycle (telemetry only; excluded from snapshots)
}

// NewWriteBuffer returns a buffer with the given entry capacity.
func NewWriteBuffer(capacity int) *WriteBuffer {
	if capacity < 1 {
		panic("cache: write buffer needs capacity >= 1")
	}
	w := &WriteBuffer{cap: capacity}
	w.Reset()
	return w
}

// Reset empties the buffer and zeroes its counters, as NewWriteBuffer
// returns it; attached telemetry stays.
func (w *WriteBuffer) Reset() {
	w.entries = w.entries[:0]
	w.stalls, w.coalesced, w.total = 0, 0, 0
}

// EnableTelemetry stamps entries with their allocation cycle (via clock)
// and observes each entry's buffer residency into resid when it retires.
func (w *WriteBuffer) EnableTelemetry(clock func() uint64, resid *telemetry.Histogram) {
	w.clock = clock
	w.resid = resid
}

// Cap returns the entry capacity.
func (w *WriteBuffer) Cap() int { return w.cap }

// Len returns the number of occupied entries.
func (w *WriteBuffer) Len() int { return len(w.entries) }

// Full reports whether a store to a new line would stall.
func (w *WriteBuffer) Full() bool { return len(w.entries) >= w.cap }

// Empty reports whether the buffer has drained.
func (w *WriteBuffer) Empty() bool { return len(w.entries) == 0 }

// Find returns the entry for block, or nil.
func (w *WriteBuffer) Find(block uint64) *WBEntry {
	for i := range w.entries {
		if w.entries[i].Block == block {
			return &w.entries[i]
		}
	}
	return nil
}

// Put records a store to word of block. It reports whether the store
// coalesced into an existing entry (ok=true, allocated=false), allocated
// a new entry (ok=true, allocated=true), or found the buffer full
// (ok=false) — in which case the processor must stall and retry.
func (w *WriteBuffer) Put(block uint64, word int) (allocated, ok bool) {
	w.total++
	if e := w.Find(block); e != nil {
		e.Words |= 1 << uint(word)
		w.coalesced++
		return false, true
	}
	if w.Full() {
		w.stalls++
		w.total--
		return false, false
	}
	e := WBEntry{Block: block, Words: 1 << uint(word)}
	if w.clock != nil {
		e.born = w.clock()
	}
	w.entries = append(w.entries, e)
	return true, true
}

// Retire removes the entry for block, returning it. Retiring an absent
// block panics: protocols must retire exactly what they queued.
func (w *WriteBuffer) Retire(block uint64) WBEntry {
	for i := range w.entries {
		if w.entries[i].Block == block {
			e := w.entries[i]
			w.entries = append(w.entries[:i], w.entries[i+1:]...)
			if w.clock != nil {
				w.resid.Observe(w.clock() - e.born)
			}
			return e
		}
	}
	panic("cache: retiring absent write-buffer entry")
}

// Visit calls fn for every entry in FIFO order — canonical iteration for
// state snapshots.
func (w *WriteBuffer) Visit(fn func(WBEntry)) {
	for _, e := range w.entries {
		fn(e)
	}
}

// Stats returns stores presented, stores coalesced, and full stalls.
func (w *WriteBuffer) Stats() (total, coalesced, stalls uint64) {
	return w.total, w.coalesced, w.stalls
}
