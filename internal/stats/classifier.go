package stats

// Classifier decides the category of each miss. It watches the global
// stream of committed writes at word granularity and each processor's
// copy lifetimes (fill → loss), and classifies a re-miss by asking
// whether the word now being touched was modified by another processor
// while the local copy was away — the touch-based criterion for
// separating true from false sharing.
type Classifier struct {
	nprocs, words int
	// blocks is indexed by block number — dense: blocks number a shared
	// address space that grows from 0 — and holds the nseen ever touched.
	blocks []*blockTrack
	nseen  int

	ver uint64 // global committed-write version counter

	// arena is the storage the next tracks are carved from, as many
	// blocks' worth at a time as were seen so far (1 to maxTrackChunk), so
	// a litmus machine touching three blocks does not pay for a 64p cell's.
	arena struct {
		tracks []blockTrack
		words  []wordTrack
		copies []copyTrack
	}
}

const maxTrackChunk = 64

type blockTrack struct {
	words  []wordTrack
	copies []copyTrack
}

// wordTrack is a word's last committed write: its version (0 none) and
// its writer.
type wordTrack struct {
	ver    uint64
	writer int32
}

// copyTrack is one processor's copy of a block in one word: the version
// committed when it was last filled (the low verBits; 2⁶⁰ committed writes
// are out of any run's reach), whether it is valid, why it last went away,
// and whether it was ever cached.
type copyTrack uint64

const (
	verBits             = 60
	validBit  copyTrack = 1 << verBits
	lossShift           = verBits + 1 // two bits of LossReason
	lossMask  copyTrack = 3 << lossShift
	cachedBit copyTrack = 1 << 63
)

func (cp copyTrack) fillVer() uint64  { return uint64(cp &^ (cachedBit | lossMask | validBit)) }
func (cp copyTrack) loss() LossReason { return LossReason(cp & lossMask >> lossShift) }

// NewClassifier returns a classifier for nprocs processors and
// wordsPerLine-word coherence blocks.
func NewClassifier(nprocs, wordsPerLine int) *Classifier {
	c := &Classifier{nprocs: nprocs, words: wordsPerLine}
	c.Reset()
	return c
}

// Reset forgets every block's history, as NewClassifier returns it: the
// tracks stay, zeroed, for the same blocks to take again.
func (c *Classifier) Reset() {
	for _, b := range c.blocks {
		if b != nil {
			clear(b.words)
			clear(b.copies)
		}
	}
	c.ver = 0
}

func (c *Classifier) track(block uint64) *blockTrack {
	if block >= uint64(len(c.blocks)) {
		c.blocks = append(c.blocks, make([]*blockTrack, block+1-uint64(len(c.blocks)))...)
	}
	b := c.blocks[block]
	if b == nil {
		b = c.newTrack()
		c.blocks[block] = b
		c.nseen++
	}
	return b
}

// newTrack carves a fresh block's track from the arena.
func (c *Classifier) newTrack() *blockTrack {
	a := &c.arena
	if len(a.tracks) == 0 {
		chunk := min(max(c.nseen, 1), maxTrackChunk)
		a.tracks = make([]blockTrack, chunk)
		a.words = make([]wordTrack, chunk*c.words)
		a.copies = make([]copyTrack, chunk*c.nprocs)
	}
	b := &a.tracks[0]
	a.tracks = a.tracks[1:]
	b.words, a.words = a.words[:c.words:c.words], a.words[c.words:]
	b.copies, a.copies = a.copies[:c.nprocs:c.nprocs], a.copies[c.nprocs:]
	return b
}

// CommitWrite records a committed write by proc to word of block.
func (c *Classifier) CommitWrite(proc int, block uint64, word int) {
	b := c.track(block)
	c.ver++
	b.words[word] = wordTrack{c.ver, int32(proc)}
}

// Fill records that proc's copy of block became valid now.
func (c *Classifier) Fill(proc int, block uint64) {
	b := c.track(block)
	b.copies[proc] = cachedBit | validBit | copyTrack(c.ver)
}

// Lose records that proc's copy of block went away for the given reason.
// Losing an invalid copy is a no-op (e.g., a notice for a block that was
// already evicted).
func (c *Classifier) Lose(proc int, block uint64, reason LossReason) {
	b := c.track(block)
	cp := &b.copies[proc]
	if *cp&validBit == 0 {
		return
	}
	*cp = *cp&^(validBit|lossMask) | copyTrack(reason)<<lossShift
}

// Classify categorizes a data miss by proc on (block, word).
// upgradeOnly marks a write that found the block cached but not writable
// (a write-permission miss; no data transfer).
func (c *Classifier) Classify(proc int, block uint64, word int, upgradeOnly bool) MissKind {
	if upgradeOnly {
		return WriteMiss
	}
	b := c.track(block)
	cp := b.copies[proc]
	if cp&cachedBit == 0 {
		return Cold
	}
	switch cp.loss() {
	case LossEviction:
		return Eviction
	case LossCoherence:
		// True sharing iff the touched word was committed by another
		// processor after our copy was last current.
		if w := b.words[word]; w.ver > cp.fillVer() && w.writer != int32(proc) {
			return TrueShare
		}
		return FalseShare
	default:
		// A miss without a recorded loss can only happen if the copy was
		// dropped silently; attribute to eviction (conservative).
		return Eviction
	}
}
