package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"
)

func TestHeapInterleavedProperty(t *testing.T) {
	// Property: under any interleaving of pushes and pops, every pop
	// returns the minimum of what is queued by (at, seq). The reference is
	// a slice kept sorted on that key. Each target population is reached
	// by a push-biased random walk and left by a pop-biased one, so the
	// queue crosses every size below it in both directions; at values are
	// drawn from a small range so that ties are common.
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	var ref []event
	var seq uint64
	step := func(push bool) {
		if push || len(ref) == 0 {
			seq++
			e := event{at: Time(rng.Intn(64)), seq: seq}
			h.pushEv(e)
			i := sort.Search(len(ref), func(i int) bool { return e.before(&ref[i]) })
			ref = append(ref, event{})
			copy(ref[i+1:], ref[i:])
			ref[i] = e
			return
		}
		if got, want := h.peek(), ref[0]; got.at != want.at || got.seq != want.seq {
			t.Fatalf("peek at population %d = (%d,%d), want (%d,%d)", len(ref), got.at, got.seq, want.at, want.seq)
		}
		got, want := h.popMin(), ref[0]
		ref = ref[1:]
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop at population %d = (%d,%d), want (%d,%d)", len(ref)+1, got.at, got.seq, want.at, want.seq)
		}
	}
	for _, target := range []int{1, 4, 5, 16, 17, 21, 3000} {
		for len(ref) < target {
			step(rng.Intn(3) > 0)
		}
		for len(ref) > 0 {
			step(rng.Intn(3) == 0)
		}
		if !h.emptied() {
			t.Fatalf("queue holds %d events after the reference drained", len(h))
		}
	}
}

// scriptChooser answers choice points from a fixed list and records the
// number of alternatives it was offered at each.
type scriptChooser struct {
	picks   []int
	offered []int
}

func (s *scriptChooser) Choose(n int) int {
	s.offered = append(s.offered, n)
	p := s.picks[0]
	s.picks = s.picks[1:]
	return p
}

func TestChooserTies(t *testing.T) {
	run := func(picks ...int) (order string, offered []int) {
		e := NewEngine()
		ch := &scriptChooser{picks: picks}
		e.SetChooser(ch)
		for _, name := range []string{"A", "B", "C", "D"} {
			name := name
			e.At(5, func() { order += name })
		}
		e.At(9, func() { order += "z" }) // alone at its instant: no choice point
		e.Run()
		return order, ch.offered
	}
	// The tied set is offered in scheduling order, so pick i fires the
	// i-th scheduled of those still waiting; the rest keep their order.
	for _, c := range []struct {
		picks []int
		order string
	}{
		{[]int{0, 0, 0}, "ABCDz"},
		{[]int{2, 0, 0}, "CABDz"},
		{[]int{2, 0, 1}, "CADBz"},
		{[]int{3, 2, 1}, "DCBAz"},
	} {
		order, offered := run(c.picks...)
		if order != c.order || fmt.Sprint(offered) != "[4 3 2]" {
			t.Errorf("picks %v: order %q offered %v, want %q offered [4 3 2]", c.picks, order, offered, c.order)
		}
	}
}

func TestChooserTiesWithBackground(t *testing.T) {
	// A background event tied with foreground ones is popped and pushed
	// back like any other; the background count must follow only the
	// event that actually fires, or Run would stop early or never.
	for _, picks := range [][]int{{0, 0}, {1, 0}, {2, 1}} {
		e := NewEngine()
		e.SetChooser(&scriptChooser{picks: picks})
		var order string
		var probe func()
		probe = func() {
			order += "b"
			e.Background(e.Now()+10, probe)
		}
		e.At(5, func() { order += "A" })
		e.Background(5, probe)
		e.At(5, func() { order += "C" })
		e.Run()
		want := map[int]string{0: "AbC", 1: "bAC", 2: "CbA"}[picks[0]]
		if order != want {
			t.Errorf("picks %v: order %q, want %q", picks, order, want)
		}
		if e.Pending() != 1 || e.nbg != 1 {
			t.Errorf("picks %v: %d pending, %d background after Run, want the one rescheduled probe", picks, e.Pending(), e.nbg)
		}
	}
}

func TestChooserOutOfRangePanics(t *testing.T) {
	for _, pick := range []int{-1, 2} {
		e := NewEngine()
		e.SetChooser(&scriptChooser{picks: []int{pick}})
		e.At(1, func() {})
		e.At(1, func() {})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("pick %d of 2 did not panic", pick)
				}
			}()
			e.Run()
		}()
	}
}

// ctxTracer is a TaskTracer that records the context each probe saw.
type ctxTracer struct{ cur uint64 }

func (c *ctxTracer) Capture() uint64 { return c.cur }
func (c *ctxTracer) Restore(ctx uint64) uint64 {
	prev := c.cur
	c.cur = ctx
	return prev
}

func TestEventCarriesCausalContext(t *testing.T) {
	e := NewEngine()
	tr := &ctxTracer{}
	e.SetTaskTracer(tr)
	var saw []uint64
	probe := func() { saw = append(saw, tr.cur) }
	tr.cur = 7
	e.At(1, func() {
		probe()    // 7, captured when this event was scheduled
		tr.cur = 8 // a handler opening a transaction of its own ...
		e.After(1, probe)
	})
	tr.cur = 9
	e.At(1, probe) // ... does not leak it into the next event
	tr.cur = 3
	e.Run()
	if fmt.Sprint(saw) != "[7 9 8]" {
		t.Fatalf("contexts seen = %v, want [7 9 8]", saw)
	}
	if tr.cur != 3 {
		t.Fatalf("context after Run = %d, want the 3 current before it", tr.cur)
	}
}

func TestSchedulingAllocatesNothing(t *testing.T) {
	nop := func() {}
	batch := func(e *Engine) func() {
		return func() {
			base := e.Now()
			for i := 0; i < 256; i++ {
				e.At(base+Time(i%7), nop)
			}
			e.Run()
		}
	}
	bare := NewEngine()
	if n := testing.AllocsPerRun(50, batch(bare)); n != 0 {
		t.Errorf("At + Run of 256 pre-built callbacks allocates %v objects, want 0", n)
	}
	traced := NewEngine()
	traced.SetTaskTracer(&ctxTracer{})
	if n := testing.AllocsPerRun(50, batch(traced)); n != 0 {
		t.Errorf("with a TaskTracer attached, At + Run of 256 pre-built callbacks allocates %v objects, want 0", n)
	}

	// A context's Sleep schedules its resumption through the same path.
	e := NewEngine()
	stop := false
	e.Spawn("sleeper", func(c *Context) {
		for !stop {
			c.Sleep(1)
		}
	})
	if n := testing.AllocsPerRun(200, func() { e.RunUntil(e.Now() + 1) }); n != 0 {
		t.Errorf("a Sleep round trip allocates %v objects, want 0", n)
	}
	stop = true
	e.Run()
}

func TestPoppedEventIsCollectable(t *testing.T) {
	for _, c := range []struct {
		name    string
		chooser Chooser // non-nil: the event is popped as one of a tied set
	}{
		{"heap minimum", nil},
		{"chosen from a tie", &scriptChooser{picks: []int{2, 0}}},
		{"left over from a tie", &scriptChooser{picks: []int{0, 0}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			e.SetChooser(c.chooser)
			if c.chooser != nil {
				e.At(1, func() {})
				e.At(1, func() {})
			}
			collected := make(chan struct{})
			func() {
				big := new([1 << 16]byte)
				runtime.SetFinalizer(big, func(*[1 << 16]byte) { close(collected) })
				e.At(1, func() { big[0]++ })
			}()
			e.At(2, func() {})
			e.RunUntil(1)
			// The engine and its queue are still live; only the slot the
			// popped event vacated, or the scratch a tied set was enumerated
			// in, could keep its callback, and what that closed over,
			// reachable.
			for i := 0; i < 20; i++ {
				runtime.GC()
				select {
				case <-collected:
					e.Run()
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
			t.Fatal("the callback of an event already run is still reachable from the engine")
		})
	}
}
