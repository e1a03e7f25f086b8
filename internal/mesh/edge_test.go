package mesh

import (
	"strings"
	"testing"

	"lazyrc/internal/config"
	"lazyrc/internal/faults"
	"lazyrc/internal/sim"
)

// TestNonSquareMeshDims covers processor counts that are twice a perfect
// square: the mesh must go near-square, not degenerate to a chain.
func TestNonSquareMeshDims(t *testing.T) {
	for _, tc := range []struct {
		procs, w, h int
	}{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {8, 4, 2}, {16, 4, 4}, {32, 8, 4}, {128, 16, 8},
	} {
		eng := sim.NewEngine()
		n := New(eng, config.Default(tc.procs))
		if w, h := n.Dims(); w != tc.w || h != tc.h {
			t.Errorf("procs=%d: dims = %d×%d, want %d×%d", tc.procs, w, h, tc.w, tc.h)
		}
	}
}

// TestHopsOnNonSquareMesh pins XY distances on the 4×2 mesh of 8 nodes:
// node i sits at (i%4, i/4).
func TestHopsOnNonSquareMesh(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, config.Default(8))
	for _, tc := range []struct {
		a, b int
		want uint64
	}{
		{0, 3, 3}, // same row, full width
		{0, 4, 1}, // same column, one row down
		{0, 7, 4}, // opposite corner: 3 + 1
		{3, 4, 4}, // other diagonal
		{5, 6, 1}, // adjacent in bottom row
		{2, 2, 0}, // self
	} {
		if got := n.Hops(tc.a, tc.b); got != tc.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestTransferCyclesEdgeCases covers degenerate payloads: zero and
// negative sizes stream in zero cycles, and payloads below one bandwidth
// unit still round up to a full cycle.
func TestTransferCyclesEdgeCases(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, config.Default(8)) // NetBW = 2 bytes/cycle
	for _, tc := range []struct {
		size int
		want uint64
	}{
		{0, 0}, {-5, 0}, {1, 1}, {2, 1}, {127, 64}, {128, 64}, {129, 65},
	} {
		if got := n.TransferCycles(tc.size); got != tc.want {
			t.Errorf("TransferCycles(%d) = %d, want %d", tc.size, got, tc.want)
		}
	}
}

// TestSelfSendLoopback pins self-sends: a node-local message stays off
// the network — it is delivered instantly and pays no port occupancy.
func TestSelfSendLoopback(t *testing.T) {
	t.Run("off", func(t *testing.T) {
		eng := sim.NewEngine()
		n := New(eng, config.Default(8))
		var at sim.Time
		n.Handle(3, func(Msg) { at = eng.Now() })
		eng.At(50, func() { n.Send(Msg{Src: 3, Dst: 3, Size: 128}) })
		eng.Run()
		if at != 50 {
			t.Fatalf("local delivery at %d, want immediate (50)", at)
		}
		if n.PortBusy(3) != 0 {
			t.Fatalf("local delivery occupied NIC ports for %d cycles, want 0", n.PortBusy(3))
		}
	})
}

// TestFinalizeReportsAllUnhandledNodes verifies machine setup's wiring
// check lists every node without a handler, not just the first.
func TestFinalizeReportsAllUnhandledNodes(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, config.Default(8))
	n.Handle(0, func(Msg) {})
	n.Handle(3, func(Msg) {})
	err := n.Finalize()
	if err == nil {
		t.Fatal("Finalize accepted a partially wired network")
	}
	for _, want := range []string{"6 node(s)", "[1 2 4 5 6 7]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Finalize error %q lacks %q", err, want)
		}
	}
	for i := range 8 {
		if n.handlers[i] == nil {
			n.Handle(i, func(Msg) {})
		}
	}
	if err := n.Finalize(); err != nil {
		t.Fatalf("Finalize on a fully wired network: %v", err)
	}
}

// TestInjectedDuplicateSharesSeq verifies duplicates carry the original's
// channel identity (Src, Seq) and arrive later.
func TestInjectedDuplicateSharesSeq(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, config.Default(8))
	type arrival struct {
		src int
		seq uint64
		at  sim.Time
	}
	var got []arrival
	for i := range 8 {
		n.Handle(i, func(m Msg) { got = append(got, arrival{m.Src, m.Seq, eng.Now()}) })
	}
	// dup=1 duplicates every message deterministically.
	plan, err := faults.ParsePlan("dup=1:16")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetInjector(faults.NewInjector(42, plan)); err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() { n.Send(Msg{Src: 0, Dst: 1, Size: 0}) })
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("%d deliveries, want original + duplicate", len(got))
	}
	if got[0].seq == 0 || got[0].seq != got[1].seq || got[0].src != got[1].src {
		t.Fatalf("duplicate (src %d, seq %d) != original (src %d, seq %d) (or unstamped)",
			got[1].src, got[1].seq, got[0].src, got[0].seq)
	}
	if got[1].at <= got[0].at {
		t.Fatalf("duplicate at %d not after original at %d", got[1].at, got[0].at)
	}
	if _, _, duped, _ := n.FaultStats(); duped != 1 {
		t.Fatalf("FaultStats duped = %d, want 1", duped)
	}
}

// TestInjectionPreservesPairwiseFIFO floods one (src,dst) pair under an
// aggressive reorder plan and verifies deliveries still come in send
// order — the mesh's per-pair FIFO guarantee must survive injection.
func TestInjectionPreservesPairwiseFIFO(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, config.Default(8))
	var order []uint64
	for i := range 8 {
		n.Handle(i, func(m Msg) {
			if m.Dst == 1 {
				order = append(order, m.Addr)
			}
		})
	}
	plan, err := faults.ParsePlan("reorder=0.8:200,delay=0.5:1:100")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetInjector(faults.NewInjector(99, plan)); err != nil {
		t.Fatal(err)
	}
	const msgs = 200
	for i := range msgs {
		at := uint64(i) * 10
		seq := uint64(i)
		eng.At(at, func() { n.Send(Msg{Src: 0, Dst: 1, Size: 0, Addr: seq}) })
	}
	eng.Run()
	if len(order) != msgs {
		t.Fatalf("%d deliveries, want %d", len(order), msgs)
	}
	for i, seq := range order {
		if seq != uint64(i) {
			t.Fatalf("delivery %d carries sequence %d: pairwise FIFO violated", i, seq)
		}
	}
	if reordered, _, _, _ := n.FaultStats(); reordered == 0 {
		t.Fatal("reorder plan never engaged — test exercised nothing")
	}
}

// TestDropsAllowedUnderTransport: the mesh's reliable transport makes
// every kind retryable, so SetInjector accepts a plan dropping any
// message.
func TestDropsAllowedUnderTransport(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, config.Default(8))
	plan, err := faults.ParsePlan("drop=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetInjector(faults.NewInjector(1, plan)); err != nil {
		t.Fatalf("SetInjector rejected a dropping plan despite the transport: %v", err)
	}
	if !n.TransportActive() {
		t.Fatal("transport not engaged after SetInjector")
	}
	if err := n.SetInjector(nil); err != nil {
		t.Fatal(err)
	}
	if n.TransportActive() {
		t.Fatal("transport still engaged after detaching the injector")
	}
}
