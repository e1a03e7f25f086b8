package machine

import (
	"strings"
	"testing"

	"lazyrc/internal/config"
	"lazyrc/internal/stats"
)

// newTest builds a machine with invariant checking on.
func newTest(t *testing.T, proto string, procs int, mut func(*config.Config)) *Machine {
	t.Helper()
	cfg := config.Default(procs)
	cfg.CheckInvariants = true
	if mut != nil {
		mut(&cfg)
	}
	m, err := New(cfg, proto)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAllocatorAlignmentAndGrowth(t *testing.T) {
	m := newTest(t, "lrc", 4, nil)
	a := m.AllocF64(3)
	b := m.AllocF64(5)
	if a.At(0)%uint64(m.Cfg.LineSize) != 0 || b.At(0)%uint64(m.Cfg.LineSize) != 0 {
		t.Fatal("arrays not line-aligned")
	}
	if b.At(0) < a.At(2)+8 {
		t.Fatal("allocations overlap")
	}
	a.Poke(2, 3.5)
	if a.Peek(2) != 3.5 {
		t.Fatal("poke/peek roundtrip failed")
	}
	i := m.AllocI64(4)
	i.Poke(0, -42)
	if i.Peek(0) != -42 {
		t.Fatal("int64 roundtrip failed")
	}
}

func TestAllocatorBoundsPanic(t *testing.T) {
	m := newTest(t, "lrc", 4, nil)
	a := m.AllocF64(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	a.At(2)
}

func TestHomeAssignmentInterleavesPages(t *testing.T) {
	m := newTest(t, "lrc", 4, nil)
	ps := uint64(m.Cfg.PageSize)
	ls := uint64(m.Cfg.LineSize)
	for page := uint64(0); page < 8; page++ {
		block := page * ps / ls
		if got := m.Env.HomeOf(block); got != int(page%4) {
			t.Fatalf("page %d homed at %d, want %d", page, got, page%4)
		}
	}
}

// TestPaperCacheFill272 pins the §3 worked example: a read miss to a home
// 10 hops away costs 30 (request) + 84 (memory) + 94 (data return) + 64
// (local bus fill) = 272 cycles, for every protocol (directory processing
// hides behind the memory access).
func TestPaperCacheFill272(t *testing.T) {
	for _, proto := range []string{"sc", "erc", "lrc", "lrc-ext"} {
		m := newTest(t, proto, 64, nil)
		// An address homed at node 59 = (3,7): 10 hops from node 0.
		addr := uint64(59) * uint64(m.Cfg.PageSize)
		m.Alloc(60*m.Cfg.PageSize, true) // ensure backing covers it
		m.Run(func(p *Proc) {
			if p.ID() != 0 {
				return
			}
			p.ReadF64(addr)
		})
		if got := m.Stats.Procs[0].ReadStall; got != 272 {
			t.Errorf("%s: read miss stall = %d cycles, want 272", proto, got)
		}
		if m.Stats.Procs[0].Misses[stats.Cold] != 1 {
			t.Errorf("%s: cold miss not recorded", proto)
		}
	}
}

func TestReadHitCostsNoStall(t *testing.T) {
	m := newTest(t, "lrc", 4, nil)
	a := m.AllocF64(1)
	m.Run(func(p *Proc) {
		if p.ID() != 0 {
			return
		}
		p.ReadF64(a.At(0))
		before := m.Stats.Procs[0].ReadStall
		for i := 0; i < 100; i++ {
			p.ReadF64(a.At(0))
		}
		if m.Stats.Procs[0].ReadStall != before {
			t.Error("read hits accrued stall")
		}
	})
	ps := &m.Stats.Procs[0]
	if ps.Reads != 101 {
		t.Fatalf("reads = %d, want 101", ps.Reads)
	}
	if ps.TotalMisses() != 1 {
		t.Fatalf("misses = %d, want 1", ps.TotalMisses())
	}
}

// TestWriteStallByProtocol: SC stalls on every write to a new block; the
// relaxed protocols buffer the write and keep computing.
func TestWriteStallByProtocol(t *testing.T) {
	for _, tc := range []struct {
		proto     string
		wantStall bool
	}{
		{"sc", true},
		{"erc", false},
		{"lrc", false},
		{"lrc-ext", false},
	} {
		m := newTest(t, tc.proto, 16, nil)
		a := m.AllocF64(1)
		m.Run(func(p *Proc) {
			if p.ID() != 0 {
				return
			}
			p.WriteF64(a.At(0), 1.0)
		})
		st := m.Stats.Procs[0].WriteStall
		if tc.wantStall && st == 0 {
			t.Errorf("%s: single write did not stall", tc.proto)
		}
		if !tc.wantStall && st != 0 {
			t.Errorf("%s: single write stalled %d cycles", tc.proto, st)
		}
	}
}

// TestLockMutualExclusion: concurrent lock-protected increments must all
// land, under every protocol — the protocols must not corrupt a properly
// synchronized computation.
func TestLockMutualExclusion(t *testing.T) {
	const perProc = 5
	for _, proto := range []string{"sc", "erc", "lrc", "lrc-ext"} {
		m := newTest(t, proto, 8, nil)
		ctr := m.AllocI64(1)
		l := m.NewLock()
		m.Run(func(p *Proc) {
			for i := 0; i < perProc; i++ {
				p.Acquire(l)
				v := p.ReadI64(ctr.At(0))
				p.Compute(10)
				p.WriteI64(ctr.At(0), v+1)
				p.Release(l)
			}
		})
		if got := ctr.Peek(0); got != 8*perProc {
			t.Errorf("%s: counter = %d, want %d", proto, got, 8*perProc)
		}
		if err := m.CheckQuiescent(); err != nil {
			t.Errorf("%s: %v", proto, err)
		}
	}
}

// TestFlagProducerConsumer: a consumer that waits on a flag must observe
// every word the producer wrote before setting it.
func TestFlagProducerConsumer(t *testing.T) {
	const nvals = 64
	for _, proto := range []string{"sc", "erc", "lrc", "lrc-ext"} {
		m := newTest(t, proto, 4, nil)
		a := m.AllocF64(nvals)
		f := m.NewFlag()
		bad := -1
		m.Run(func(p *Proc) {
			switch p.ID() {
			case 0:
				for i := 0; i < nvals; i++ {
					p.WriteF64(a.At(i), float64(i)+0.5)
				}
				p.SetFlag(f)
			case 1:
				p.WaitFlag(f)
				for i := 0; i < nvals; i++ {
					if p.ReadF64(a.At(i)) != float64(i)+0.5 {
						bad = i
					}
				}
			}
		})
		if bad >= 0 {
			t.Errorf("%s: consumer read wrong value at %d", proto, bad)
		}
	}
}

// TestBarrierPhases: alternating write/read phases across a barrier stay
// coherent under every protocol.
func TestBarrierPhases(t *testing.T) {
	const procs, phases = 4, 3
	for _, proto := range []string{"sc", "erc", "lrc", "lrc-ext"} {
		m := newTest(t, proto, procs, nil)
		a := m.AllocF64(procs)
		b := m.NewBarrier(procs)
		ok := true
		m.Run(func(p *Proc) {
			me := p.ID()
			for ph := 0; ph < phases; ph++ {
				p.WriteF64(a.At(me), float64(ph*100+me))
				p.Barrier(b)
				for q := 0; q < procs; q++ {
					if p.ReadF64(a.At(q)) != float64(ph*100+q) {
						ok = false
					}
				}
				p.Barrier(b)
			}
		})
		if !ok {
			t.Errorf("%s: stale value observed across barrier", proto)
		}
		if err := m.CheckQuiescent(); err != nil {
			t.Errorf("%s: %v", proto, err)
		}
	}
}

// TestDeterminism: identical workloads produce identical cycle counts.
func TestDeterminism(t *testing.T) {
	run := func() uint64 {
		m := newTest(t, "lrc", 8, nil)
		a := m.AllocF64(256)
		l := m.NewLock()
		b := m.NewBarrier(8)
		m.Run(func(p *Proc) {
			for i := 0; i < 64; i++ {
				idx := (i*7 + p.ID()*13) % 256
				p.WriteF64(a.At(idx), float64(idx))
				p.ReadF64(a.At((idx + 31) % 256))
			}
			p.Acquire(l)
			p.WriteF64(a.At(0), 1)
			p.Release(l)
			p.Barrier(b)
		})
		return m.Stats.ExecutionTime()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic execution: %d vs %d cycles", a, b)
	}
}

// TestWorkerPanicCarriesMachineState: a panic on a processor context — an
// application body, or protocol code running CPU-side — comes out of Run
// on the caller's goroutine like a handler's, with the machine's in-flight
// state appended.
func TestWorkerPanicCarriesMachineState(t *testing.T) {
	m := newTest(t, "lrc", 4, nil)
	a := m.AllocF64(1024)
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "worker crash\n") {
			t.Fatalf("Run panicked with %.80q, want the worker's panic value first", msg)
		}
		// The other three processors were mid-miss when cpu0 crashed.
		if !strings.Contains(msg, "node 1:") || !strings.Contains(msg, "txn{block") {
			t.Fatalf("panic lacks the DumpState suffix: %q", msg)
		}
	}()
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.ReadF64(a.At(0))
			panic("worker crash")
		}
		for i := p.ID(); i < 1024; i += 4 {
			p.ReadF64(a.At(i))
		}
	})
	t.Fatal("Run returned")
}
