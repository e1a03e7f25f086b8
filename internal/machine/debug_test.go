package machine

import (
	"testing"

	"lazyrc/internal/causal"
	"lazyrc/internal/protocol"
)

// TestRacyCountersERC reproduces mp3d's unsynchronized cell tallies: all
// processors read-modify-write the same block with no locks. The eager
// protocol must chase ownership around without losing a grant.
func TestRacyCountersERC(t *testing.T) {
	for _, proto := range []string{"sc", "erc"} {
		m := newTest(t, proto, 8, nil)
		a := m.AllocI64(8)
		if testing.Verbose() {
			m.EnableSpans(true, 0)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					for _, s := range m.Causal.Spans() {
						if s.Kind == causal.KindNet {
							t.Logf("%6d %d->%d %v blk%d", s.Begin, s.Node, s.Peer, protocol.MsgKind(s.MsgKind), s.Block)
						}
					}
					t.Fatalf("%s: %v", proto, r)
				}
			}()
			m.Run(func(p *Proc) {
				for i := 0; i < 50; i++ {
					idx := (p.ID() + i) % 8
					v := p.ReadI64(a.At(idx))
					p.WriteI64(a.At(idx), v+1)
					w := p.ReadI64(a.At(0)) // hot word everyone fights over
					p.WriteI64(a.At(0), w+1)
					p.Compute(uint64(p.ID()))
				}
			})
		}()
		if err := m.CheckQuiescent(); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
	}
}
