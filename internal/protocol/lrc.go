package protocol

import (
	"lazyrc/internal/cache"
	"lazyrc/internal/causal"
	"lazyrc/internal/stats"
)

// LRC is the paper's lazy release-consistent protocol: write notices are
// sent as soon as a processor writes a shared block — concurrently with
// computation — but invalidations are deferred to acquire operations.
// Multiple processors may write a block concurrently; write-through
// caches with a coalescing buffer keep memory current so the home never
// forwards a read.
type LRC struct{ lazyPaths }

var _ Protocol = (*LRC)(nil)
var _ lazyNoticePolicy = (*LRC)(nil)

// Name returns "lrc".
func (*LRC) Name() string { return "lrc" }

// EagerNotices reports true: notices go out at write time.
func (*LRC) EagerNotices() bool { return true }

// CPUWrite performs a store. Stores to resident read-write lines commit
// through the coalescing write-through path; stores to read-only lines
// take write permission immediately (the write notice is processed in
// the background — no write-after-read stall); stores to absent lines
// occupy a write-buffer entry until the data returns.
func (p *LRC) CPUWrite(n *Node, block uint64, word int) {
	lazyCPUWrite(n, block, word, true)
}

// lazyCPUWrite implements the store path for both lazy protocols;
// eager selects the notice policy.
func lazyCPUWrite(n *Node, block uint64, word int, eager bool) {
	n.reclaimTxns()
	for {
		line := n.Cache.Lookup(block)
		switch {
		case line != nil && line.State == cache.ReadWrite:
			n.commitWT(block, word)
			return

		case line != nil: // read-only: take write permission locally
			if t := n.txn(block); t != nil {
				// A transaction is in flight for this block (rare race);
				// let it settle before upgrading.
				n.PS.WriteStall += n.waitStall(&t.Done, t.CT, causal.StallWrite, "upgrade conflict")
				continue
			}
			n.countMiss(block, word, true)
			n.Cache.Upgrade(block)
			n.commitWT(block, word)
			if eager {
				t := n.newTxn(block)
				t.IsWrite = true
				t.Data.Open() // nothing to wait for but the done
				n.send(n.homeOf(block), MsgWriteReq, block, 0, 0, 0)
				if n.Env.Cfg.SoftwareCoherence {
					// Software DSM: the notice round trip runs on the
					// main processor, not in the background.
					n.PS.WriteStall += n.waitStall(&t.Done, t.CT, causal.StallWrite, "software notice")
				}
			} else {
				n.delayed.add(block)
			}
			return

		default: // absent: write miss through the write buffer
			if t := n.txn(block); t != nil && !t.Data.IsOpen() {
				// Merge onto the in-flight fill; the store waits in the
				// write buffer and is applied when the data lands.
				allocated, ok := n.WB.Put(block, word)
				if !ok {
					n.stallWBFull()
					continue
				}
				if allocated {
					n.PS.Misses[stats.WriteMiss]++ // write without permission
				}
				return
			}
			if t := n.txn(block); t != nil {
				n.PS.WriteStall += n.waitStall(&t.Done, t.CT, causal.StallWrite, "write conflict")
				continue
			}
			if _, ok := n.WB.Put(block, word); !ok {
				n.stallWBFull()
				continue
			}
			n.countMiss(block, word, false)
			t := n.newTxn(block)
			t.ExpectData, t.IsWrite = true, true
			if eager {
				n.send(n.homeOf(block), MsgWriteReq, block, 0, wantData, 0)
				if n.Env.Cfg.SoftwareCoherence {
					// Software DSM: the write fault handler blocks until
					// the notice collection completes.
					n.PS.WriteStall += n.waitStall(&t.Done, t.CT, causal.StallWrite, "software write fault")
				}
			} else {
				// The lazier protocol fetches the data as an ordinary
				// read and upgrades silently when it arrives.
				n.send(n.homeOf(block), MsgReadReq, block, 0, 0, 0)
			}
			return
		}
	}
}

// Release flushes the coalescing buffer and stalls until the write
// buffer drains, outstanding transactions complete, and memory
// acknowledges all write-throughs — the three conditions of §2. Write
// misses retiring during the drain can deposit fresh coalesced words, so
// the flush repeats until the write path is fully dry.
func (*LRC) Release(n *Node) {
	for {
		n.flushCB()
		n.waitDrained()
		if n.CB.Empty() {
			return
		}
	}
}
