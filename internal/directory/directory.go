// Package directory implements the distributed directory state of the
// simulated machine. The directory entry for a block lives at the block's
// home node and records the block's global state — Uncached, Shared,
// Dirty, or Weak — together with the set of processors caching it, which
// of them are writing it, and which have been notified that the block has
// entered the weak state (§2 of the paper). Two counters (sharers,
// writers) are kept implicitly by the set representation.
//
// The package stores state and enforces invariants; the legal transitions
// belong to the protocol implementations, which differ between eager and
// lazy release consistency (the eager protocols never use Weak).
package directory

import (
	"cmp"
	"fmt"
	"slices"

	"lazyrc/internal/fold"
)

// State is the global state of a coherence block.
type State uint8

const (
	// Uncached: no processor has a copy. Initial state of every block.
	Uncached State = iota
	// Shared: one or more processors cache the block; none writes it.
	Shared
	// Dirty: exactly one processor caches the block and is writing it.
	Dirty
	// Weak: two or more processors cache the block and at least one is
	// writing it (lazy protocols only).
	Weak
)

var stateNames = [...]string{"UNCACHED", "SHARED", "DIRTY", "WEAK"}

// String returns the state mnemonic.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Entry is one block's directory record.
type Entry struct {
	// State starts Uncached and is written by Recompute alone, which moves
	// the owning directory's per-state counts with it.
	State State
	// Sharers is the set of processors holding a copy.
	Sharers ProcSet
	// Writers ⊆ Sharers is the set of processors writing the block
	// (the per-pointer "writing" bit of the paper).
	Writers ProcSet
	// Notified ⊆ Sharers is the set of processors that have been sent a
	// write notice for the current weak episode (the per-pointer
	// "notified" bit).
	Notified ProcSet

	// PendingAcks counts outstanding write-notice acknowledgements the
	// home is collecting for this block; WaitingWriters are the
	// processors to acknowledge once collection completes.
	PendingAcks    int
	WaitingWriters []int

	// counts is the owning directory's per-state tally; nil for an entry
	// built outside a directory.
	counts *[4]int
}

const maxEntryChunk = 64

// Directory is the home-node side table for the blocks homed at one node.
// Entries are created on first touch.
type Directory struct {
	nprocs  int
	entries map[uint64]*Entry
	// leases is the timestamp protocol's home-side table (see lease.go);
	// empty under the invalidation protocols. spare and spareEntries
	// hold the records Reset forgot, for Lease and Entry to take first.
	leases       map[uint64]*Lease
	spare        []*Lease
	spareEntries []*Entry
	// counts[s] is the number of entries in state s, kept at the
	// transitions (Entry.Recompute). Derived: not part of Fold.
	counts [4]int
	// sorted is what Entries returns, until entries grows past it.
	sorted []BlockEntry
	// arena is the storage new entries and their set words are carved
	// from once spareEntries is empty, as many entries at a time as were
	// ever carved (1 to maxEntryChunk). Its uncarved rest is still zero,
	// so it survives Reset.
	arena struct {
		entries []Entry
		words   []uint64
		carved  int
	}

	// check enables invariant verification after mutations.
	check bool
}

// New returns an empty directory for a machine with nprocs processors.
func New(nprocs int, check bool) *Directory {
	d := &Directory{nprocs: nprocs, entries: make(map[uint64]*Entry), check: check}
	d.Reset()
	return d
}

// Reset forgets every entry and lease, as New returns the directory.
// Each entry goes to the spare list zeroed, keeping its set words and
// its waiting-writer capacity.
func (d *Directory) Reset() {
	for _, e := range d.entries {
		e.Sharers.Clear()
		e.Writers.Clear()
		e.Notified.Clear()
		*e = Entry{Sharers: e.Sharers, Writers: e.Writers, Notified: e.Notified, WaitingWriters: e.WaitingWriters[:0]}
		d.spareEntries = append(d.spareEntries, e)
	}
	clear(d.entries)
	for _, l := range d.leases {
		d.spare = append(d.spare, l)
	}
	clear(d.leases)
	d.counts = [4]int{}
	clear(d.sorted)
	d.sorted = d.sorted[:0]
}

// Entry returns the record for block, creating an Uncached entry on first
// touch.
func (d *Directory) Entry(block uint64) *Entry {
	e := d.entries[block]
	if e == nil {
		if n := len(d.spareEntries); n > 0 {
			e, d.spareEntries = d.spareEntries[n-1], d.spareEntries[:n-1]
		} else {
			a, w := &d.arena, (d.nprocs+63)/64
			if len(a.entries) == 0 {
				chunk := min(max(a.carved, 1), maxEntryChunk)
				a.entries, a.words = make([]Entry, chunk), make([]uint64, 3*w*chunk)
			}
			e, a.entries = &a.entries[0], a.entries[1:]
			a.carved++
			for _, s := range [...]*ProcSet{&e.Sharers, &e.Writers, &e.Notified} {
				s.words, a.words = a.words[:w:w], a.words[w:]
			}
		}
		e.counts = &d.counts
		d.counts[Uncached]++
		d.entries[block] = e
	}
	return e
}

// Peek returns the record for block without creating it.
func (d *Directory) Peek(block uint64) *Entry { return d.entries[block] }

// BlockEntry is an entry with the block it records.
type BlockEntry struct {
	Block uint64
	*Entry
}

// Entries returns every record in ascending block order. The slice is the
// directory's own and must not be written to; records are never removed,
// so it is rebuilt only after Entry has added one.
func (d *Directory) Entries() []BlockEntry {
	if len(d.sorted) != len(d.entries) {
		d.sorted = d.sorted[:0]
		for b, e := range d.entries {
			d.sorted = append(d.sorted, BlockEntry{b, e})
		}
		slices.SortFunc(d.sorted, func(x, y BlockEntry) int { return cmp.Compare(x.Block, y.Block) })
	}
	return d.sorted
}

// StateCounts returns how many recorded blocks sit in each state, indexed
// by State.
func (d *Directory) StateCounts() [4]int { return d.counts }

// Check verifies e's invariants if checking is enabled, panicking with a
// description on violation. Protocols call it after each transition.
func (d *Directory) Check(block uint64, e *Entry) {
	if !d.check {
		return
	}
	if err := e.Validate(); err != nil {
		panic(fmt.Sprintf("directory: block %d: %v", block, err))
	}
}

// Validate checks the entry's structural invariants.
func (e *Entry) Validate() error {
	ns, nw := e.Sharers.Len(), e.Writers.Len()
	if !e.Writers.SubsetOf(&e.Sharers) {
		return fmt.Errorf("writers not a subset of sharers (state %v)", e.State)
	}
	if !e.Notified.SubsetOf(&e.Sharers) {
		return fmt.Errorf("notified not a subset of sharers (state %v)", e.State)
	}
	switch e.State {
	case Uncached:
		if ns != 0 || nw != 0 {
			return fmt.Errorf("UNCACHED with %d sharers %d writers", ns, nw)
		}
	case Shared:
		if ns < 1 || nw != 0 {
			return fmt.Errorf("SHARED with %d sharers %d writers", ns, nw)
		}
	case Dirty:
		if ns != 1 || nw != 1 {
			return fmt.Errorf("DIRTY with %d sharers %d writers", ns, nw)
		}
	case Weak:
		if ns < 2 || nw < 1 {
			return fmt.Errorf("WEAK with %d sharers %d writers", ns, nw)
		}
	}
	if e.PendingAcks < 0 {
		return fmt.Errorf("negative pending acks %d", e.PendingAcks)
	}
	return nil
}

// Recompute derives the state from the sharer/writer sets after any change
// to them — the one place State is written, so the directory's per-state
// counts move here — and clears stale notified bits when the block leaves
// Weak. It returns the new state.
// This implements the paper's rule: "If a block no longer has any
// processors writing it, it reverts to the shared state; if it has no
// processors sharing it at all, it reverts to the uncached state."
func (e *Entry) Recompute() State {
	ns, nw := e.Sharers.Len(), e.Writers.Len()
	s := Weak
	switch {
	case ns == 0:
		s = Uncached
	case nw == 0:
		s = Shared
	case ns == 1:
		s = Dirty
	}
	if e.counts != nil {
		e.counts[e.State]--
		e.counts[s]++
	}
	e.State = s
	if s != Weak {
		e.Notified.Clear()
	}
	return s
}

// Fold adds the directory's state to recs for visited-state hashing, one
// record per entry (block, state, the sharer, writer and notified sets,
// the pending-ack count and the waiting writers in queue order) and one
// per lease (lease.go). Records fold in no order, so two directories in
// the same logical state fold alike whatever order their records were
// created in. (The entries are walked through Entries for its slice, not
// for its order: ranging over a small map costs several times as much.)
func (d *Directory) Fold(recs *fold.Bag) {
	for _, e := range d.Entries() {
		r := fold.Record(fold.DirEntry, e.Block)
		r.Word(uint64(e.State))
		for _, s := range [...]*ProcSet{&e.Sharers, &e.Writers, &e.Notified} {
			for _, w := range s.words {
				r.Word(w)
			}
		}
		r.Word(uint64(e.PendingAcks))
		for _, w := range e.WaitingWriters {
			r.Word(uint64(w))
		}
		recs.Add(r)
	}
	if len(d.leases) == 0 {
		return // starting a walk of no leases costs as much as a record
	}
	for blk, l := range d.leases {
		r := fold.Record(fold.DirLease, blk)
		r.Word(l.Wts)
		r.Word(l.Rts)
		r.Word(uint64(int64(l.Owner)))
		recs.Add(r)
	}
}
