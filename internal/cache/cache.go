// Package cache models the per-processor memory-side data structures of
// the simulated nodes: a direct-mapped data cache with per-word dirty
// bits, and one store buffer type that serves as both the small CPU-side
// write buffer of the relaxed-consistency protocols and the coalescing
// write-through buffer the lazy protocols place between the cache and
// the memory system (§2 of the paper, after Jouppi's coalescing buffer).
//
// These are pure state containers: all timing decisions (what a miss
// costs, when a buffer drains) belong to the protocol layer.
package cache

import "fmt"

// LineState is the state of a line in a local cache. This is the minor,
// per-copy state of the paper — invalid, read-only, or read-write — not
// the global directory state.
type LineState uint8

const (
	// Invalid marks a line with no valid copy.
	Invalid LineState = iota
	// ReadOnly marks a clean copy that may be read but not written.
	ReadOnly
	// ReadWrite marks a copy the local processor is writing.
	ReadWrite
)

var lineStateNames = [...]string{"INV", "RO", "RW"}

// String returns a short mnemonic for the state.
func (s LineState) String() string {
	if int(s) < len(lineStateNames) {
		return lineStateNames[s]
	}
	return fmt.Sprintf("LineState(%d)", uint8(s))
}

// Line is one cache frame. Block is the global block number (address /
// line size); Dirty has one bit per word written locally since the line
// was filled (meaningful for write-back caches and for coalescing).
type Line struct {
	Block uint64
	State LineState
	Dirty uint64
}

// Cache is a direct-mapped cache over fixed-size blocks. Addresses are
// managed in units of blocks; address-to-block translation lives with the
// caller, which knows the line size.
type Cache struct {
	nLines uint64
	lines  []Line
}

// New returns a direct-mapped cache with nLines frames.
func New(nLines int) *Cache {
	if nLines < 1 {
		panic("cache: need at least one line")
	}
	return &Cache{nLines: uint64(nLines), lines: make([]Line, nLines)}
}

// Reset empties the cache, as New returns it: every frame Invalid, the
// zero state.
func (c *Cache) Reset() { clear(c.lines) }

func (c *Cache) frame(block uint64) *Line { return &c.lines[block%c.nLines] }

// Lookup returns the frame holding block, or nil on a miss (including
// when the frame holds a different block).
func (c *Cache) Lookup(block uint64) *Line {
	l := c.frame(block)
	if l.State != Invalid && l.Block == block {
		return l
	}
	return nil
}

// Fill installs block with the given state, returning the victim line
// (valid only if evicted is true — a conflict/capacity eviction of a
// different block). Filling over the same block updates state in place.
func (c *Cache) Fill(block uint64, st LineState) (victim Line, evicted bool) {
	if st == Invalid {
		panic("cache: filling with Invalid state")
	}
	l := c.frame(block)
	if l.State != Invalid && l.Block != block {
		victim, evicted = *l, true
	}
	if l.State == Invalid || l.Block != block {
		l.Dirty = 0
	}
	l.Block = block
	l.State = st
	return victim, evicted
}

// Invalidate drops block from the cache, returning the line contents as
// they were (for write-back of dirty words) and whether it was present.
func (c *Cache) Invalidate(block uint64) (old Line, present bool) {
	l := c.frame(block)
	if l.State == Invalid || l.Block != block {
		return Line{}, false
	}
	old = *l
	l.State = Invalid
	l.Dirty = 0
	return old, true
}

// Upgrade promotes a present read-only line to read-write in place
// (write permission arrived or, in the lazy protocols, was taken
// locally). Upgrading an absent or invalid block panics.
func (c *Cache) Upgrade(block uint64) {
	l := c.Lookup(block)
	if l == nil {
		panic(fmt.Sprintf("cache: upgrading absent block %d", block))
	}
	l.State = ReadWrite
}

// Downgrade demotes a present line to read-only, clearing its dirty bits
// (the owner supplied the data to a reader and kept a clean copy).
// Downgrading an absent block panics.
func (c *Cache) Downgrade(block uint64) {
	l := c.Lookup(block)
	if l == nil {
		panic(fmt.Sprintf("cache: downgrading absent block %d", block))
	}
	l.State = ReadOnly
	l.Dirty = 0
}

// MarkDirty sets the dirty bit for word in block; the block must be
// present in state ReadWrite.
func (c *Cache) MarkDirty(block uint64, word int) {
	l := c.Lookup(block)
	if l == nil || l.State != ReadWrite {
		panic(fmt.Sprintf("cache: MarkDirty on absent or non-RW block %d", block))
	}
	l.Dirty |= 1 << uint(word)
}

// VisitValid calls fn for every valid line. Used by release-time flushes
// and by invariant checks.
func (c *Cache) VisitValid(fn func(*Line)) {
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			fn(&c.lines[i])
		}
	}
}
