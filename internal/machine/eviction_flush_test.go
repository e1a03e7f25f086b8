package machine

import (
	"testing"

	"lazyrc/internal/causal"
	"lazyrc/internal/config"
	"lazyrc/internal/protocol"
)

// TestLazyExtEvictionFlushOrdering pins the write-notice flush path of
// the lazier protocol on the span record: evicting a written block whose
// notice was deferred must post that notice (node 0's MsgWriteReq for the
// block) at eviction time, strictly before the writer's next release —
// the release may not be what forces it out — and the home, node 2, must
// then dispatch it to the other sharer (a MsgNotice to node 1). The home
// is a third node so that both messages cross the mesh. Companion to
// TestLazyExtEvictionPostsNotice, which checks the same scenario's
// directory end-state.
func TestLazyExtEvictionFlushOrdering(t *testing.T) {
	m := newTest(t, "lrc-ext", 3, func(c *config.Config) {
		c.CacheSize = 2 * c.LineSize // two frames: easy to evict
	})
	tr := m.EnableSpans(true, 0)
	words := m.Cfg.WordsPerLine()
	m.Alloc(2*m.Cfg.PageSize, true) // pages 0 and 1: the array's page is node 2's
	a := m.AllocF64(4 * words)      // blocks b..b+3; b and b+2 map to the same frame
	block := a.At(0) / uint64(m.Cfg.LineSize)
	f := m.NewFlag()
	l := m.NewLock()
	m.Run(func(p *Proc) {
		switch p.ID() {
		case 1:
			p.ReadF64(a.At(0)) // other sharer: makes the write notice-worthy
			p.SetFlag(f)
		case 0:
			p.WaitFlag(f)
			p.ReadF64(a.At(0))         // fill RO
			p.WriteF64(a.At(0), 1.0)   // silent upgrade, deferred notice
			p.ReadF64(a.At(2 * words)) // conflicting block: evicts block b
			p.Compute(5000)
			p.Acquire(l)
			p.Release(l)
		}
	})
	var postAt, sendAt, releaseAt uint64
	var posted, sent, released bool
	for _, s := range tr.Spans() {
		switch {
		case s.Kind == causal.KindNet && protocol.MsgKind(s.MsgKind) == protocol.MsgWriteReq &&
			s.Node == 0 && s.Block == block:
			if posted {
				t.Fatalf("deferred notice for block %d posted twice", block)
			}
			posted, postAt = true, s.Begin
		case s.Kind == causal.KindNet && protocol.MsgKind(s.MsgKind) == protocol.MsgNotice &&
			s.Node == 2 && s.Block == block && s.Peer == 1:
			sent, sendAt = true, s.Begin
		case s.Kind == causal.KindSync && s.Why == "lock-release" && s.Node == 0 && !released:
			released, releaseAt = true, s.Begin
		}
	}
	if !posted {
		t.Fatal("eviction of the written block never posted the deferred write notice")
	}
	if !sent {
		t.Fatal("home never dispatched the flushed notice to the other sharer")
	}
	if !released {
		t.Fatal("writer's release was never recorded")
	}
	if postAt >= releaseAt {
		t.Fatalf("notice posted at t=%d, not before the release at t=%d — flush was release-driven, not eviction-driven",
			postAt, releaseAt)
	}
	if sendAt < postAt {
		t.Fatalf("home dispatched the notice at t=%d before it was posted at t=%d", sendAt, postAt)
	}
}
