package mesh

import (
	"testing"
	"testing/quick"

	"lazyrc/internal/config"
	"lazyrc/internal/sim"
)

func net64(t *testing.T) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine()
	n := New(eng, config.Default(64))
	return eng, n
}

func TestHopsXYRouting(t *testing.T) {
	_, n := net64(t)
	if w, h := n.Dims(); w != 8 || h != 8 {
		t.Fatalf("dims = %d×%d, want 8×8", w, h)
	}
	cases := []struct {
		a, b int
		want uint64
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 8, 1}, {0, 9, 2}, {0, 63, 14}, {7, 56, 14},
	}
	for _, tc := range cases {
		if got := n.Hops(tc.a, tc.b); got != tc.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestHopsSymmetryProperty(t *testing.T) {
	_, n := net64(t)
	f := func(a, b uint8) bool {
		x, y := int(a)%64, int(b)%64
		return n.Hops(x, y) == n.Hops(y, x) && n.Hops(x, x) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPaperWorkedExampleLatencies(t *testing.T) {
	// §3 of the paper: at 10 hops, a control request costs
	// (2+1)*10 = 30 cycles and a 128-byte data reply (2+1)*10 + 128/2 = 94.
	eng, n := net64(t)
	src, dst := 0, 59 // (0,0) -> (3,7): 10 hops
	if got := n.Hops(src, dst); got != 10 {
		t.Fatalf("picked nodes %d hops apart, want 10", got)
	}
	var controlAt, dataAt sim.Time
	n.Handle(dst, func(m Msg) {
		if m.Size == 0 {
			controlAt = eng.Now()
		} else {
			dataAt = eng.Now()
		}
	})
	n.Handle(src, func(Msg) {})
	eng.At(0, func() {
		n.Send(Msg{Src: src, Dst: dst, Size: 0})
	})
	eng.At(1000, func() {
		n.Send(Msg{Src: src, Dst: dst, Size: 128})
	})
	eng.Run()
	if controlAt != 30 {
		t.Errorf("control message latency = %d, want 30", controlAt)
	}
	if dataAt != 1000+94 {
		t.Errorf("data message delivered at %d, want %d", dataAt, 1000+94)
	}
}

func TestLocalDeliveryIsImmediate(t *testing.T) {
	eng, n := net64(t)
	var at sim.Time
	n.Handle(5, func(m Msg) { at = eng.Now() })
	eng.At(100, func() { n.Send(Msg{Src: 5, Dst: 5, Size: 128}) })
	eng.Run()
	if at != 100 {
		t.Fatalf("local delivery at %d, want 100", at)
	}
}

func TestSenderPortContention(t *testing.T) {
	// Two back-to-back data messages from the same node serialize on the
	// output port: the second leaves 64 cycles after the first.
	eng, n := net64(t)
	var arrivals []sim.Time
	n.Handle(1, func(m Msg) { arrivals = append(arrivals, eng.Now()) })
	n.Handle(0, func(Msg) {})
	eng.At(0, func() {
		n.Send(Msg{Src: 0, Dst: 1, Size: 128})
		n.Send(Msg{Src: 0, Dst: 1, Size: 128})
	})
	eng.Run()
	// 1 hop = 3 cycles; first arrives at 3+64 = 67, second send starts
	// at 64 so arrives at 64+3+64 = 131.
	if len(arrivals) != 2 || arrivals[0] != 67 || arrivals[1] != 131 {
		t.Fatalf("arrivals = %v, want [67 131]", arrivals)
	}
}

func TestReceiverPortContention(t *testing.T) {
	// Two simultaneous data messages from different neighbors to one node
	// collide at the receiver's input port; the second is delayed by the
	// streaming time of the first.
	eng, n := net64(t)
	var arrivals []sim.Time
	n.Handle(1, func(m Msg) { arrivals = append(arrivals, eng.Now()) })
	n.Handle(0, func(Msg) {})
	n.Handle(2, func(Msg) {})
	eng.At(0, func() {
		n.Send(Msg{Src: 0, Dst: 1, Size: 128})
		n.Send(Msg{Src: 2, Dst: 1, Size: 128})
	})
	eng.Run()
	if len(arrivals) != 2 || arrivals[0] != 67 || arrivals[1] != 67+64 {
		t.Fatalf("arrivals = %v, want [67 131]", arrivals)
	}
	if n.PortWaited(1) == 0 {
		t.Error("receiver port contention not recorded")
	}
}

func TestDoubleHandlerPanics(t *testing.T) {
	_, n := net64(t)
	n.Handle(0, func(Msg) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second Handle did not panic")
		}
	}()
	n.Handle(0, func(Msg) {})
}

func TestStatsAccumulate(t *testing.T) {
	eng, n := net64(t)
	n.Handle(1, func(Msg) {})
	n.Handle(0, func(Msg) {})
	eng.At(0, func() {
		n.Send(Msg{Src: 0, Dst: 1, Size: 128})
		n.Send(Msg{Src: 0, Dst: 1, Size: 0})
	})
	eng.Run()
	msgs, bytes := n.Stats()
	if msgs != 2 || bytes != 128 {
		t.Fatalf("stats = %d msgs %d bytes, want 2/128", msgs, bytes)
	}
}

func TestKindCount(t *testing.T) {
	eng, n := net64(t)
	n.Handle(1, func(Msg) {})
	eng.At(0, func() {
		n.Send(Msg{Src: 0, Dst: 1, Kind: 9})
		n.Send(Msg{Src: 0, Dst: 1, Kind: 2})
		n.Send(Msg{Src: 0, Dst: 1, Kind: 9})
	})
	eng.Run()
	for kind, want := range map[int]uint64{-1: 0, 0: 0, 2: 1, 9: 2, 10: 0, 1000: 0} {
		if got := n.KindCount(kind); got != want {
			t.Errorf("KindCount(%d) = %d, want %d", kind, got, want)
		}
	}
}

func TestSendAllocatesOnlyTheDeliveryClosure(t *testing.T) {
	// On the reliable fabric a cross-node message costs one object: the
	// closure that carries it to the destination handler. In particular
	// the Msg parameter itself must not move to the heap.
	eng, n := net64(t)
	n.Handle(1, func(Msg) {})
	send := func() {
		n.Send(Msg{Src: 0, Dst: 1, Kind: 3, Size: 128})
		eng.Run()
	}
	if got := testing.AllocsPerRun(200, send); got != 1 {
		t.Fatalf("cross-node Send + delivery allocates %v objects, want 1", got)
	}
}

func TestTransferCycles(t *testing.T) {
	_, n := net64(t)
	for _, tc := range []struct {
		size int
		want uint64
	}{{0, 0}, {1, 1}, {2, 1}, {3, 2}, {128, 64}} {
		if got := n.TransferCycles(tc.size); got != tc.want {
			t.Errorf("TransferCycles(%d) = %d, want %d", tc.size, got, tc.want)
		}
	}
}
