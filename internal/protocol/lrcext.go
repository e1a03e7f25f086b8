package protocol

import "lazyrc/internal/causal"

// LRCExt is the lazier variant of §2: the protocol processor refrains
// from sending write notices for as long as possible, buffering them
// locally and posting them only when the processor performs a release —
// or when a written block is replaced in the cache, which bounds the
// buffer at the cache size and spares the directory from writes by
// processors that no longer cache a block.
//
// As the paper shows, this wins on miss rate but moves the coherence
// work into the critical path of the release, and loses to LRC on
// overall execution time for all applications but fft.
type LRCExt struct{ lazyPaths }

var _ Protocol = (*LRCExt)(nil)
var _ lazyNoticePolicy = (*LRCExt)(nil)

// Name returns "lrc-ext".
func (*LRCExt) Name() string { return "lrc-ext" }

// EagerNotices reports false: notices are deferred to release time.
func (*LRCExt) EagerNotices() bool { return false }

// CPUWrite performs a store. Unlike LRC, taking write permission on a
// resident read-only line is purely local: no message leaves the node
// until the next release (or until the block is evicted).
func (*LRCExt) CPUWrite(n *Node, block uint64, word int) {
	lazyCPUWrite(n, block, word, false)
}

// Release posts every deferred write notice, flushes the coalescing
// buffer, and stalls until the home nodes have collected all notice
// acknowledgements and memory has absorbed all write-throughs. This is
// where the lazier protocol pays: work LRC overlapped with computation
// lands in the critical path of the release.
func (*LRCExt) Release(n *Node) {
	if blocks := n.takeDelayed(); len(blocks) > 0 {
		// Posting occupies the protocol processor per notice.
		n.ppAcquire(causal.KindFanout, 0, uint64(len(blocks))*n.noticeCost())
		for _, b := range blocks {
			n.postNotice(b)
		}
	}
	for {
		n.flushCB()
		n.waitDrained()
		if n.CB.Empty() && len(n.delayed) == 0 {
			return
		}
		// Stores retiring during the drain may have deposited fresh
		// coalesced words or deferred notices; post and flush again.
		for _, b := range n.takeDelayed() {
			n.postNotice(b)
		}
	}
}
