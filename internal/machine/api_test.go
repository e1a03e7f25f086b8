package machine

import (
	"strings"
	"testing"

	"lazyrc/internal/config"
	"lazyrc/internal/protocol"
)

func TestSnapshotRestore(t *testing.T) {
	m := newTest(t, "lrc", 2, nil)
	a := m.AllocF64(8)
	for i := 0; i < 8; i++ {
		a.Poke(i, float64(i))
	}
	snap := m.SnapshotData()
	for i := 0; i < 8; i++ {
		a.Poke(i, -1)
	}
	m.RestoreData(snap)
	for i := 0; i < 8; i++ {
		if a.Peek(i) != float64(i) {
			t.Fatalf("element %d = %v after restore", i, a.Peek(i))
		}
	}
}

func TestDirectAccessorMatchesPeekPoke(t *testing.T) {
	m := newTest(t, "lrc", 2, nil)
	a := m.AllocF64(2)
	b := m.AllocI64(2)
	d := m.Direct()
	d.WriteF64(a.At(0), 2.5)
	d.WriteI64(b.At(1), -7)
	if a.Peek(0) != 2.5 || b.Peek(1) != -7 {
		t.Fatal("direct writes not visible via Peek")
	}
	if d.ReadF64(a.At(0)) != 2.5 || d.ReadI64(b.At(1)) != -7 {
		t.Fatal("direct reads wrong")
	}
	d.Compute(1000) // must be a free no-op
}

func TestFenceProcessesPendingInvalidations(t *testing.T) {
	// Two racy writers of one block each hold writable copies under LRC
	// and receive write notices for the other's words. Without an
	// acquire the notices sit unprocessed (stale reads keep hitting); a
	// fence — the §4.2 mechanism for racy programs — processes them.
	m := newTest(t, "lrc", 4, nil)
	a := m.AllocF64(2) // both elements on one line
	f := m.NewFlag()
	var hitsBefore, missesAfter bool
	m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.WriteF64(a.At(0), 1.0) // first writer: dirty owner
			p.SetFlag(f)
		case 1:
			p.WaitFlag(f)
			p.WriteF64(a.At(1), 2.0) // second writer: weak transition
			p.Compute(20000)         // notices and acks settle
			ps := &m.Stats.Procs[1]
			m0 := ps.TotalMisses()
			p.ReadF64(a.At(0)) // stale cache hit on own weak copy
			hitsBefore = ps.TotalMisses() == m0
			p.Fence() // process the pending invalidation
			p.ReadF64(a.At(0))
			missesAfter = ps.TotalMisses() > m0
		}
	})
	if !hitsBefore {
		t.Error("read before fence should hit the (possibly stale) copy")
	}
	if !missesAfter {
		t.Error("read after fence should re-fetch")
	}
}

func TestFenceIsNoOpUnderEagerProtocols(t *testing.T) {
	for _, proto := range []string{"sc", "erc"} {
		m := newTest(t, proto, 2, nil)
		a := m.AllocF64(1)
		m.Run(func(p *Proc) {
			if p.ID() != 0 {
				return
			}
			p.ReadF64(a.At(0))
			before := m.Stats.Procs[0].SyncStall
			p.Fence()
			if m.Stats.Procs[0].SyncStall != before {
				t.Errorf("%s: fence stalled", proto)
			}
		})
	}
}

// TestEveryProtocolBuilds: each name on the menu builds a machine that
// runs that protocol at every node.
func TestEveryProtocolBuilds(t *testing.T) {
	for _, name := range protocol.Names() {
		m, err := New(config.Default(4), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Protocol() != name {
			t.Errorf("%s: Protocol() = %q", name, m.Protocol())
		}
		for _, n := range m.Nodes {
			if n.Proto.Name() != name {
				t.Errorf("%s: node %d runs %q", name, n.ID, n.Proto.Name())
			}
		}
	}
}

func TestUnknownProtocolRejected(t *testing.T) {
	if _, err := New(config.Default(4), "mosi"); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := config.Default(4)
	cfg.LineSize = 10
	if _, err := New(cfg, "lrc"); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestFootprintGrows(t *testing.T) {
	m := newTest(t, "lrc", 2, nil)
	before := m.Footprint()
	m.AllocF64(1024)
	if m.Footprint() <= before {
		t.Fatal("footprint did not grow")
	}
}

func TestProcNowAdvances(t *testing.T) {
	m := newTest(t, "lrc", 2, nil)
	m.Run(func(p *Proc) {
		t0 := p.Now()
		p.Compute(100)
		if p.Now() != t0+100 {
			t.Errorf("Now advanced by %d, want 100", p.Now()-t0)
		}
	})
}
func TestFirstTouchPlacement(t *testing.T) {
	m := newTest(t, "lrc", 4, func(c *config.Config) { c.FirstTouch = true })
	a := m.AllocF64(4 * m.Cfg.PageSize / 8) // four pages
	ps := uint64(m.Cfg.PageSize)
	ls := uint64(m.Cfg.LineSize)
	m.Run(func(p *Proc) {
		// Processor i touches page i first (staggered to make the
		// interleaving deterministic regardless of spawn order).
		p.Compute(uint64(p.ID()) + 1)
		p.ReadF64(a.At(p.ID() * int(ps/8)))
	})
	for pg := 0; pg < 4; pg++ {
		block := (a.At(pg * int(ps/8))) / ls
		if got := m.Env.HomeOf(block); got != pg {
			t.Errorf("page %d homed at %d, want first-toucher %d", pg, got, pg)
		}
	}
}

func TestMachineAccessors(t *testing.T) {
	m := newTest(t, "lrc-ext", 4, nil)
	if m.Protocol() != "lrc-ext" {
		t.Fatalf("Protocol() = %q", m.Protocol())
	}
	a := m.AllocF64(3)
	b := m.AllocI64(5)
	if a.Len() != 3 || b.Len() != 5 {
		t.Fatal("array Len wrong")
	}
	m.Run(func(p *Proc) {
		if p.NProcs() != 4 {
			t.Errorf("NProcs = %d", p.NProcs())
		}
		if p.Machine() != m {
			t.Error("Machine() mismatch")
		}
	})
	if s := m.DumpState(); s != "" {
		t.Fatalf("quiescent machine dumped state: %q", s)
	}
}

func TestContentionReport(t *testing.T) {
	m := newTest(t, "erc", 4, nil)
	a := m.AllocF64(4)
	m.Run(func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.WriteF64(a.At(i%4), float64(i)) // contended single block
		}
	})
	rep := m.ContentionReport()
	for _, want := range []string{"protocol processor", "memory module", "local bus", "network ports", "hottest node"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestTrafficReport: the report counts every kind the run sent and, with
// metrics on, gives each kind's latency quantiles and the buffers'
// residency.
func TestTrafficReport(t *testing.T) {
	for _, metrics := range []bool{false, true} {
		m := newTest(t, "lrc", 4, nil)
		if metrics {
			m.EnableMetrics(100)
		}
		a := m.AllocF64(4)
		b := m.NewBarrier(4)
		m.Run(func(p *Proc) {
			p.WriteF64(a.At(p.ID()), 1)
			p.Barrier(b)
			p.ReadF64(a.At((p.ID() + 1) % 4))
		})
		rep := m.TrafficReport()
		for _, want := range []string{"ReadReq", "WriteReq", "Notice", "BarArrive", "WriteThrough"} {
			if !strings.Contains(rep, want) {
				t.Fatalf("traffic report missing %q:\n%s", want, rep)
			}
		}
		if quantiles := strings.Contains(rep, "p99") && strings.Contains(rep, "\ncb residency "); quantiles != metrics {
			t.Fatalf("metrics %v, quantile columns and residency rows %v:\n%s", metrics, quantiles, rep)
		}
		for _, line := range strings.Split(strings.TrimSpace(rep), "\n")[1:] {
			if n := len(strings.Fields(line)); metrics && n < 5 || !metrics && n != 2 {
				t.Fatalf("row %q has %d fields:\n%s", line, n, rep)
			}
		}
	}
}
