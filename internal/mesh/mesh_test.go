package mesh

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"

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

func TestSendAllocatesNothing(t *testing.T) {
	// On the reliable fabric a message costs no object, cross-node or
	// node-local: it waits for its delivery event in the network's slab,
	// and the event carries the slot. In particular the Msg parameter
	// itself must not move to the heap.
	eng, n := net64(t)
	n.Handle(0, func(Msg) {})
	n.Handle(1, func(Msg) {})
	for _, c := range []struct {
		name string
		dst  int
	}{{"cross-node", 1}, {"node-local", 0}} {
		send := func() {
			n.Send(Msg{Src: 0, Dst: c.dst, Kind: 3, Size: 128})
			eng.Run()
		}
		if got := testing.AllocsPerRun(200, send); got != 0 {
			t.Errorf("%s Send + delivery allocates %v objects, want 0", c.name, got)
		}
	}
}

func TestDeliveredValsAreCollectable(t *testing.T) {
	// A delivered message's slot is zeroed when it is freed, so the data
	// words it carried are not kept reachable by the slab — neither while
	// the slot is vacant nor after a later message reuses it.
	eng, n := net64(t)
	n.Handle(1, func(Msg) {})
	collected := make(chan struct{})
	func() {
		vals := make([]uint64, 1<<13)
		runtime.SetFinalizer(&vals[0], func(*uint64) { close(collected) })
		n.Send(Msg{Src: 0, Dst: 1, Size: 128, Vals: vals})
	}()
	n.Send(Msg{Src: 0, Dst: 1}) // reuses nothing yet: both are in flight, the slab is live
	delivered := 0
	n.handlers[1] = func(Msg) { delivered++ }
	eng.RunUntil(100)
	if delivered != 2 {
		t.Fatalf("%d of 2 messages delivered by cycle 100", delivered)
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the data words of a delivered message are still reachable from the network")
}

func TestHandlerMaySendWhileTheSlabGrows(t *testing.T) {
	// deliver copies the message out and frees its slot before the
	// handler runs: a handler that fans out far enough to move the slab,
	// reusing the slot it was delivered from, still sees its own message
	// and every send arrives intact.
	eng, n := net64(t)
	var got []uint64
	n.Handle(1, func(m Msg) {
		if m.Addr != 7 {
			t.Errorf("fan-out handler got Addr %d, want 7", m.Addr)
		}
		for i := uint64(0); i < 100; i++ {
			n.Send(Msg{Src: 1, Dst: 2, Addr: 100 + i})
		}
		if m.Addr != 7 || m.Src != 0 {
			t.Errorf("message changed under the handler: %+v", m)
		}
	})
	n.Handle(2, func(m Msg) { got = append(got, m.Addr) })
	n.Send(Msg{Src: 0, Dst: 1, Addr: 7})
	eng.Run()
	if len(got) != 100 {
		t.Fatalf("%d of 100 fanned-out messages arrived", len(got))
	}
	for i, a := range got {
		if a != 100+uint64(i) {
			t.Fatalf("arrival %d carries Addr %d, want %d (pairwise FIFO)", i, a, 100+i)
		}
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
