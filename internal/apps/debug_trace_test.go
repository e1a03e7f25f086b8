package apps

import (
	"testing"

	"lazyrc/internal/causal"
	"lazyrc/internal/config"
	"lazyrc/internal/machine"
	"lazyrc/internal/protocol"
)

// TestMp3dERCTrace is a diagnostic harness: it runs mp3d under ERC with
// the span store retained and, on deadlock, prints the last net spans of
// the block that still has outstanding transactions.
func TestMp3dERCTrace(t *testing.T) {
	app := NewMp3d(Tiny)
	cfg := config.Default(8)
	cfg.CheckInvariants = true
	m, err := machine.New(cfg, "erc")
	if err != nil {
		t.Fatal(err)
	}
	m.EnableSpans(true, 0)
	defer func() {
		if r := recover(); r != nil {
			// Print the last messages about the stuck block.
			spans := m.Causal.Spans()
			shown := 0
			for i := len(spans) - 1; i >= 0 && shown < 60; i-- {
				if s := spans[i]; s.Kind == causal.KindNet && s.Block == 64 {
					t.Logf("%7d %d->%d %-12v blk%d", s.Begin, s.Node, s.Peer, protocol.MsgKind(s.MsgKind), s.Block)
					shown++
				}
			}
			t.Fatalf("deadlock: %v", r)
		}
	}()
	app.Setup(m)
	m.Run(app.Worker)
}
