package machine

import (
	"testing"

	"lazyrc/internal/config"
	"lazyrc/internal/protocol"
)

// midRun returns a 4-node machine stopped in the middle of a run that
// shares lines, contends for a lock and waits on a flag, so every table
// the state hash folds has something in it. The caches are 16 lines, near
// the model checker's 8: a hash walks every frame, and 512 empty ones
// would be most of it.
func midRun(tb testing.TB, proto string) *Machine {
	tb.Helper()
	m := small(tb, proto)
	stopMidway(tb, m)
	return m
}

// small builds the 4-node machine midRun runs on.
func small(tb testing.TB, proto string) *Machine {
	tb.Helper()
	cfg := config.Default(4)
	cfg.CacheSize = 16 * cfg.LineSize
	m, err := New(cfg, proto)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// stopMidway runs midRun's program on m and stops it at cycle 3000.
func stopMidway(tb testing.TB, m *Machine) {
	tb.Helper()
	idle := m.StateHash()
	a := m.AllocI64(64) // four lines
	l := m.NewLock()
	f := m.NewFlag()
	m.Eng.At(3000, m.Eng.Stop)
	m.Run(func(p *Proc) {
		if p.ID() == 3 {
			p.WaitFlag(f) // never set before the stop
		}
		for i := 0; ; i++ {
			p.Acquire(l)
			p.WriteI64(a.At((i*16+p.ID()+1)%64), int64(i))
			p.Release(l)
			p.ReadI64(a.At((i * 5) % 64))
		}
	})
	if m.Completed() || m.StateHash() == idle {
		tb.Fatalf("%s: the run did not stop midway", m.Protocol())
	}
}

// TestStateHashAllocatesNothing: the hash streams the machine's state
// through one mixer; once the directories have listed their entries (the
// first call) it makes no buffer, sorts no keys and allocates nothing.
func TestStateHashAllocatesNothing(t *testing.T) {
	for _, proto := range protocol.Names() {
		t.Run(proto, func(t *testing.T) {
			m := midRun(t, proto)
			want := m.StateHash()
			if n := testing.AllocsPerRun(100, func() {
				if m.StateHash() != want {
					t.Fatal("hash of an unchanged machine moved")
				}
			}); n != 0 {
				t.Errorf("StateHash allocates %v objects per call, want 0", n)
			}
		})
	}
}

var hashSink uint64

// BenchmarkStateHash is one hash of a 4-node lrc machine stopped mid-run,
// hashed again: three nodes fold their kept digests, and the node the
// last event ran on folds afresh, as at a choice point inside an event.
//
//	go test ./internal/machine -run '^$' -bench StateHash -benchtime 100x
func BenchmarkStateHash(b *testing.B) {
	m := midRun(b, "lrc")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = m.StateHash()
	}
}
