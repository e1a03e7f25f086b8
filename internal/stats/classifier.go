package stats

// Classifier decides the category of each miss. It watches the global
// stream of committed writes at word granularity and each processor's
// copy lifetimes (fill → loss), and classifies a re-miss by asking
// whether the word now being touched was modified by another processor
// while the local copy was away — the touch-based criterion for
// separating true from false sharing.
type Classifier struct {
	nprocs int
	// blocks is indexed by block number — dense: blocks number a shared
	// address space that grows from 0 — and holds the nseen ever touched.
	blocks []*blockTrack
	nseen  int

	ver uint64 // global committed-write version counter
}

type blockTrack struct {
	wordVer    []uint64 // last committed-write version per word
	wordWriter []int32  // last committed writer per word (-1 none)
	copies     []copyTrack
}

type copyTrack struct {
	everCached bool
	valid      bool
	fillVer    uint64
	loss       LossReason
}

// NewClassifier returns a classifier for nprocs processors and
// wordsPerLine-word coherence blocks.
func NewClassifier(nprocs, wordsPerLine int) *Classifier {
	return &Classifier{nprocs: nprocs}
}

func (c *Classifier) track(block uint64, words int) *blockTrack {
	if block >= uint64(len(c.blocks)) {
		c.blocks = append(c.blocks, make([]*blockTrack, block+1-uint64(len(c.blocks)))...)
	}
	b := c.blocks[block]
	if b == nil {
		b = &blockTrack{
			wordVer:    make([]uint64, words),
			wordWriter: make([]int32, words),
			copies:     make([]copyTrack, c.nprocs),
		}
		for i := range b.wordWriter {
			b.wordWriter[i] = -1
		}
		c.blocks[block] = b
		c.nseen++
	}
	if len(b.wordVer) < words { // line-size change between runs is a bug
		panic("stats: inconsistent words-per-line")
	}
	return b
}

// CommitWrite records a committed write by proc to word of block.
func (c *Classifier) CommitWrite(proc int, block uint64, word, wordsPerLine int) {
	b := c.track(block, wordsPerLine)
	c.ver++
	b.wordVer[word] = c.ver
	b.wordWriter[word] = int32(proc)
}

// Fill records that proc's copy of block became valid now.
func (c *Classifier) Fill(proc int, block uint64, wordsPerLine int) {
	b := c.track(block, wordsPerLine)
	cp := &b.copies[proc]
	cp.everCached = true
	cp.valid = true
	cp.fillVer = c.ver
	cp.loss = LossNone
}

// Lose records that proc's copy of block went away for the given reason.
// Losing an invalid copy is a no-op (e.g., a notice for a block that was
// already evicted).
func (c *Classifier) Lose(proc int, block uint64, reason LossReason, wordsPerLine int) {
	b := c.track(block, wordsPerLine)
	cp := &b.copies[proc]
	if !cp.valid {
		return
	}
	cp.valid = false
	cp.loss = reason
}

// Classify categorizes a data miss by proc on (block, word).
// upgradeOnly marks a write that found the block cached but not writable
// (a write-permission miss; no data transfer).
func (c *Classifier) Classify(proc int, block uint64, word, wordsPerLine int, upgradeOnly bool) MissKind {
	if upgradeOnly {
		return WriteMiss
	}
	b := c.track(block, wordsPerLine)
	cp := &b.copies[proc]
	if !cp.everCached {
		return Cold
	}
	switch cp.loss {
	case LossEviction:
		return Eviction
	case LossCoherence:
		// True sharing iff the touched word was committed by another
		// processor after our copy was last current.
		if b.wordVer[word] > cp.fillVer && b.wordWriter[word] != int32(proc) {
			return TrueShare
		}
		return FalseShare
	default:
		// A miss without a recorded loss can only happen if the copy was
		// dropped silently; attribute to eviction (conservative).
		return Eviction
	}
}

// Blocks returns how many distinct blocks the classifier has seen.
func (c *Classifier) Blocks() int { return c.nseen }
