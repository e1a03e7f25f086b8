package protocol

// SC is the sequentially consistent directory protocol used as the
// normalization baseline of every figure: the same ownership-based
// directory as ERC, but the processor stalls on every read miss and on
// every write until the access is globally performed. There is no write
// buffer and no consistency work at synchronization operations.
type SC struct{ eagerPaths }

var _ Protocol = (*SC)(nil)

// Name returns "sc".
func (*SC) Name() string { return "sc" }

// CPUWrite performs a store and stalls until ownership is granted and
// all invalidations are acknowledged — the sequential-consistency cost
// the relaxed protocols avoid.
func (*SC) CPUWrite(n *Node, block uint64, word int) {
	stallingStore(n, block, word, eagerSendWriteReq, "write completion")
}

// Release is a no-op: every write already performed globally.
func (*SC) Release(n *Node) {}
