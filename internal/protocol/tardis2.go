package protocol

// Tardis2: the relaxed timestamp protocol (Yu, Liu & Devadas's Tardis
// 2.0 direction, mapped onto this simulator's release-consistency
// framing). Stores buffer in the write buffer and retire when the
// ownership grant arrives, as under ERC; a release drains them. The
// acquire side replaces the lazy protocols' write-notice invalidations
// with a purely local lease sweep: the grant carries the releaser's
// clock, and any cached lease that cannot cover the advanced clock is
// dropped on the spot — no notice traffic ever existed to process.

import (
	"lazyrc/internal/cache"
	"lazyrc/internal/causal"
)

// Tardis2 is the relaxed flavor: buffered stores, releases that drain,
// and an acquire-time lease-expiry sweep.
type Tardis2 struct{ tsPaths }

func (*Tardis2) Name() string { return "tardis2" }

// CPUWrite buffers the store and requests ownership without stalling,
// mirroring ERC: the write buffer hides the grant latency, and the
// store commits from the reply handler when ownership lands.
func (*Tardis2) CPUWrite(n *Node, block uint64, word int) {
	bufferedStore(n, block, word, tardisSendWriteReq)
}

// AcquireEnd sweeps the lease cache: AcquireTS has already folded the
// grant's timestamp into pts, so any read copy whose lease ends before
// pts is stale-by-timestamp and drops now — the moral equivalent of the
// lazy protocols' acquire-time invalidation, with no write notices to
// collect or acknowledge. Owned lines are the latest version and stay;
// in-flight fills keep their transaction (the landing lease is checked
// against pts on the next read anyway).
func (*Tardis2) AcquireEnd(n *Node, done func()) {
	if n.Env.Cfg.Mutation == "skip-lease-renewal" {
		// Deliberate bug for checker self-tests: paired with ReadHit's
		// skipped expiry check, acquires never shed stale copies.
		done()
		return
	}
	td := n.td()
	expired := 0
	for b, l := range td.leases {
		if l.rts >= td.pts {
			continue
		}
		line := n.Cache.Lookup(b)
		if line == nil || line.State == cache.ReadWrite || n.txn(b) != nil {
			continue
		}
		if n.loseCopy(b) {
			n.PS.InvalsAtAcquire++
		}
		delete(td.leases, b)
		expired++
	}
	if expired == 0 {
		done()
		return
	}
	end := n.ppAcquire(causal.KindNotice, 0, uint64(expired)*n.noticeCost())
	n.Env.Eng.At(end, done)
}

// Release waits until every buffered store has its grant and every
// write-back is acknowledged — §2's release conditions, unchanged; only
// the invalidation half of the protocol went away.
func (*Tardis2) Release(n *Node) {
	n.waitDrained()
}
