package mc

// The simulator normally decouples timing from data: every shared datum
// lives in one backing store, so workloads compute real results while the
// protocols only model timing. That is exactly wrong for a model checker
// — litmus outcomes are *about* which values each processor's reads can
// observe. The tracker restores per-copy data semantics: it implements
// protocol.DataMemory, shadowing home memory and every node's cached copy
// at word granularity, with values moved only by the protocol's own fill,
// commit, and home-merge events (each carrying value snapshots on the
// messages themselves, so a value arrives exactly when its message does).
//
// A staged write models the window between a CPU store issuing and the
// protocol committing it to the local copy: reads by the same processor
// forward from the stage (processors always see their own stores), and
// the commit moves the staged value into the copy.

type copyKey struct {
	node  int
	block uint64
}

type stageKey struct {
	node  int
	block uint64
	word  int
}

// Tracker shadows data values for a single machine. It is not safe for
// concurrent use (the simulator is single-threaded).
type Tracker struct {
	words  int // words per line
	home   map[uint64][]uint64
	copies map[copyKey][]uint64
	staged map[stageKey]uint64
}

// NewTracker returns a tracker for a machine with the given words-per-line.
func NewTracker(wordsPerLine int) *Tracker {
	t := &Tracker{
		words:  wordsPerLine,
		home:   make(map[uint64][]uint64),
		copies: make(map[copyKey][]uint64),
		staged: make(map[stageKey]uint64),
	}
	t.Reset()
	return t
}

// Reset forgets every value, for the machine's next run after
// Machine.Reset.
func (t *Tracker) Reset() {
	clear(t.home)
	clear(t.copies)
	clear(t.staged)
}

func (t *Tracker) homeLine(block uint64) []uint64 {
	l := t.home[block]
	if l == nil {
		l = make([]uint64, t.words)
		t.home[block] = l
	}
	return l
}

// StageWrite records a CPU store before it is played through the timing
// model. The litmus harness calls it immediately before Proc.WriteI64.
func (t *Tracker) StageWrite(node int, block uint64, word int, val uint64) {
	t.staged[stageKey{node, block, word}] = val
}

// Read returns the value a load by node observes: its own staged store if
// one is in flight, else its cached copy, else home memory.
func (t *Tracker) Read(node int, block uint64, word int) uint64 {
	if v, ok := t.staged[stageKey{node, block, word}]; ok {
		return v
	}
	if c, ok := t.copies[copyKey{node, block}]; ok {
		return c[word]
	}
	return t.homeLine(block)[word]
}

// HomeLine implements protocol.DataMemory.
func (t *Tracker) HomeLine(block uint64) []uint64 {
	return append([]uint64(nil), t.homeLine(block)...)
}

// CopyLine implements protocol.DataMemory.
func (t *Tracker) CopyLine(node int, block uint64) []uint64 {
	if c, ok := t.copies[copyKey{node, block}]; ok {
		return append([]uint64(nil), c...)
	}
	return append([]uint64(nil), t.homeLine(block)...)
}

// Fill implements protocol.DataMemory: a data reply installs vals as
// node's copy of block.
func (t *Tracker) Fill(node int, block uint64, vals []uint64) {
	c := make([]uint64, t.words)
	copy(c, vals)
	t.copies[copyKey{node, block}] = c
}

// Commit implements protocol.DataMemory: the protocol applies node's
// buffered store to word of its cached copy.
func (t *Tracker) Commit(node int, block uint64, word int) {
	k := stageKey{node, block, word}
	v, ok := t.staged[k]
	if !ok {
		return // re-commit after the stage already landed; value is in place
	}
	ck := copyKey{node, block}
	c := t.copies[ck]
	if c == nil {
		c = append([]uint64(nil), t.homeLine(block)...)
		t.copies[ck] = c
	}
	c[word] = v
	delete(t.staged, k)
}

// MergeHome implements protocol.DataMemory: a write-through or write-back
// arriving at the home merges the masked words into home memory.
func (t *Tracker) MergeHome(block uint64, vals []uint64, mask uint64) {
	h := t.homeLine(block)
	for w := 0; w < t.words && w < len(vals); w++ {
		if mask&(1<<uint(w)) != 0 {
			h[w] = vals[w]
		}
	}
}
