package protocol

import "lazyrc/internal/causal"

// This file holds the processor-side access loops more than one family
// runs: the invalidation protocols' blocking load, and the two store
// disciplines — stall until performed (sc, tardis) and buffer and move
// on (erc, tardis2). What differs per family — the write-hit fast path
// and the ownership request — comes in through Protocol.WriteHit and the
// request function. The lazy family's store path (lazyCPUWrite) shares
// neither: a store to a read-only line proceeds at once.

// invalCPURead is the blocking load path shared by the invalidation
// protocols (the timestamp protocols use tardisCPURead):
// miss, request, stall until the fill arrives (merging onto any
// transaction already in flight for the block). An arriving fill
// satisfies the load even if a racing invalidation dropped the copy in
// the same instant.
func invalCPURead(n *Node, block uint64, word int) {
	n.reclaimTxns()
	for {
		if n.Cache.Lookup(block) != nil {
			return
		}
		if t := n.txn(block); t != nil {
			if !t.Data.IsOpen() {
				n.PS.ReadStall += n.waitStall(&t.Data, t.CT, causal.StallRead, "merged read fill")
				if t.Filled {
					return
				}
			} else {
				n.PS.ReadStall += n.waitStall(&t.Done, t.CT, causal.StallRead, "transaction completion")
			}
			continue
		}
		n.countMiss(block, word, false)
		t := n.newTxn(block)
		t.ExpectData = true
		n.send(n.homeOf(block), MsgReadReq, block, 0, 0, 0)
		n.PS.ReadStall += n.waitStall(&t.Data, t.CT, causal.StallRead, "read fill")
		if t.Filled {
			return
		}
	}
}

// stallingStore performs a store the processor waits out: request opens
// the ownership transaction and the CPU parks until it completes. The
// store rides the write-buffer retirement path (a one-deep MSHR here,
// not a relaxed write buffer) so that it commits in the same event as
// the ownership grant; committing only after the processor wakes would
// leave a window for a forwarded request to steal the line first.
// priorWhy names the stall behind a transaction already in flight for
// the block.
func stallingStore(n *Node, block uint64, word int, request func(*Node, uint64) *Txn, priorWhy string) {
	n.reclaimTxns()
	for {
		if n.Proto.WriteHit(n, block, word) {
			return
		}
		if t := n.txn(block); t != nil {
			n.PS.WriteStall += n.waitStall(&t.Done, t.CT, causal.StallWrite, priorWhy)
			if n.WB.Find(block) == nil {
				return // the grant handler committed the buffered store
			}
			continue
		}
		if _, ok := n.WB.Put(block, word); !ok {
			n.stallWBFull()
			continue
		}
		n.countMiss(block, word, n.Cache.Lookup(block) != nil)
		t := request(n, block)
		n.PS.WriteStall += n.waitStall(&t.Done, t.CT, causal.StallWrite, "write completion")
		if n.WB.Find(block) == nil {
			return
		}
	}
}

// bufferedStore performs a store the write buffer hides: it takes a
// buffer entry, request asks for ownership in the background, and the
// store commits from the reply handler's retirement when the grant
// lands. The processor stalls only when the buffer is full.
func bufferedStore(n *Node, block uint64, word int, request func(*Node, uint64) *Txn) {
	n.reclaimTxns()
	for {
		if n.Proto.WriteHit(n, block, word) {
			return
		}
		allocated, ok := n.WB.Put(block, word)
		if !ok {
			n.stallWBFull()
			continue
		}
		if !allocated {
			return // coalesced into an entry whose transaction is in flight
		}
		if n.txn(block) != nil {
			// A fill is already in flight (merged read); the retirement
			// logic takes over when it lands.
			return
		}
		n.countMiss(block, word, n.Cache.Lookup(block) != nil)
		request(n, block)
		return
	}
}
