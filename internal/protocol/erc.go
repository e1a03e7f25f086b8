package protocol

// ERC is eager release consistency in the style of the DASH
// implementation: an ownership-based write-back directory protocol in
// which writes trigger invalidations immediately but execute in the
// background of computation. The processor stalls only when its
// (4-entry) write buffer overflows, on a read miss (possibly a 3-hop
// owner forward), or when it reaches a release with coherence
// transactions still outstanding.
type ERC struct{ eagerPaths }

var _ Protocol = (*ERC)(nil)

// Name returns "erc".
func (*ERC) Name() string { return "erc" }

// CPUWrite performs a store: it enters the write buffer and the
// processor moves on; ownership acquisition and invalidations proceed in
// the background. The processor stalls only when the buffer is full.
func (*ERC) CPUWrite(n *Node, block uint64, word int) {
	bufferedStore(n, block, word, eagerSendWriteReq)
}

// Release stalls until the write buffer has drained, every outstanding
// ownership/invalidation transaction has completed, and memory has
// acknowledged outstanding write-backs.
func (*ERC) Release(n *Node) { n.waitDrained() }
