package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"lazyrc/internal/perf"
)

// refQueue is the reference the queue is checked against: a slice kept
// sorted on (at, seq).
type refQueue []event

func (r *refQueue) push(e event) {
	i := sort.Search(len(*r), func(i int) bool { return e.before(&(*r)[i]) })
	*r = append(*r, event{})
	copy((*r)[i+1:], (*r)[i:])
	(*r)[i] = e
}

func TestQueueProperty(t *testing.T) {
	// Property: under any interleaving of pushes and pops on a clock that
	// only moves forward, every pop returns the minimum of what is queued
	// by (at, seq), and minAt and len agree with it. The reference is a
	// slice kept sorted on that key. Pushes land at the clock, a few
	// cycles on (ties are common), anywhere in the window, on its last
	// slot, on the first instant beyond it, within a few windows — so
	// that migration fills slots which then take direct pushes — and far
	// beyond. Each target population is reached by a push-biased random
	// walk and left by a pop-biased one down to empty, so the queue
	// crosses every size below it in both directions, and the first push
	// after a drain lands anywhere from the clock to 2^20 cycles past an
	// empty wheel.
	rng := rand.New(rand.NewSource(1))
	var q eventQueue
	var ref refQueue
	var seq uint64
	var now Time
	var direct, migrated, jumps int
	step := func(push bool) {
		if push || len(ref) == 0 {
			var at Time
			switch rng.Intn(8) {
			case 0:
				at = now
			case 1, 2:
				at = now + Time(rng.Intn(8))
			case 3:
				at = now + Time(rng.Intn(wheelSize))
			case 4:
				at = q.base + wheelSize - 1
			case 5:
				at = q.base + wheelSize
			case 6:
				at = now + wheelSize + Time(rng.Intn(3*wheelSize))
			case 7:
				at = now + 1<<20 + Time(rng.Intn(64))
			}
			if at < now { // base trails the clock only before the first pop
				at = now
			}
			seq++
			e := event{at: at, seq: seq, arg: uint32(seq)}
			if at-q.base < wheelSize {
				direct++
			}
			q.push(&e)
			ref.push(e)
		} else {
			want := ref[0]
			ref = ref[1:]
			if got := q.minAt(); got != want.at {
				t.Fatalf("minAt at population %d = %d, want %d", len(ref)+1, got, want.at)
			}
			far := len(q.far)
			if q.near == 0 {
				jumps++
			}
			var got event
			q.take(0, &got)
			migrated += far - len(q.far)
			if got.at != want.at || got.seq != want.seq || got.arg != want.arg {
				t.Fatalf("pop at population %d = (%d,%d), want (%d,%d)", len(ref)+1, got.at, got.seq, want.at, want.seq)
			}
			now = got.at
		}
		if q.len() != len(ref) {
			t.Fatalf("len = %d, want %d", q.len(), len(ref))
		}
	}
	for _, target := range []int{1, 4, 5, 16, 17, 21, 300, 3000} {
		for len(ref) < target {
			step(rng.Intn(3) > 0)
		}
		for len(ref) > 0 {
			step(rng.Intn(3) == 0)
		}
		if parked := len(q.nodes.items) - 1 - len(q.nodes.free); q.near != 0 || len(q.far) != 0 || parked != 0 || q.occ != [wheelWords]uint64{} {
			t.Fatalf("after the reference drained: %d near, %d far, %d nodes parked, occupancy %x", q.near, len(q.far), parked, q.occ)
		}
	}
	if direct == 0 || migrated == 0 || jumps < 8 {
		t.Fatalf("%d direct pushes, %d migrations, %d jumps across an empty wheel: the walk missed a path", direct, migrated, jumps)
	}
}

func TestQueueWindowEdges(t *testing.T) {
	// The window's last slot takes a direct push, the first instant beyond
	// it goes to the far heap, and an event migrated into a slot stays
	// ahead of a later direct push to the same slot.
	var q eventQueue
	q.push(&event{at: wheelSize - 1, seq: 1})
	q.push(&event{at: wheelSize, seq: 2})
	q.push(&event{at: 1, seq: 3})
	if q.near != 2 || len(q.far) != 1 {
		t.Fatalf("%d near, %d far; want 2 and 1", q.near, len(q.far))
	}
	var got event
	if q.take(0, &got); got.seq != 3 || len(q.far) != 0 {
		t.Fatalf("popped seq %d with %d far; want 3, and the far event migrated as base moved to 1", got.seq, len(q.far))
	}
	q.push(&event{at: wheelSize, seq: 4}) // direct, behind the migrated one
	q.push(&event{at: wheelSize + 1, seq: 5})
	for _, want := range []uint64{1, 2, 4, 5} {
		if q.take(0, &got); got.seq != want {
			t.Fatalf("popped seq %d, want %d", got.seq, want)
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

// scheduler is how a test puts a callback on the queue: as the func()
// kind, or as a registered kind whose argument indexes a table of the
// callbacks — the chooser and the causal context must not care which.
type scheduler struct {
	name string
	make func(e *Engine) (at func(t Time, fn func()))
}

var schedulers = []scheduler{
	{"func", func(e *Engine) func(Time, func()) { return e.At }},
	{"typed", func(e *Engine) func(Time, func()) {
		var table []func()
		k := e.Register(perf.PhaseDispatch, func(arg uint32) { table[arg]() })
		return func(t Time, fn func()) {
			table = append(table, fn)
			e.Post(t, k, uint32(len(table)-1))
		}
	}},
}

func TestChooserTies(t *testing.T) {
	for _, sch := range schedulers {
		run := func(picks ...int) (order string, offered []int) {
			e := NewEngine()
			at := sch.make(e)
			ch := &scriptChooser{picks: picks}
			e.SetChooser(ch)
			for _, name := range []string{"A", "B", "C", "D"} {
				name := name
				at(5, func() { order += name })
			}
			at(9, func() { order += "z" }) // alone at its instant: no choice point
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
				t.Errorf("%s kind, picks %v: order %q offered %v, want %q offered [4 3 2]", sch.name, c.picks, order, offered, c.order)
			}
		}
	}
}

func TestChooserTiesAcrossMigration(t *testing.T) {
	// Events tied at an instant beyond the window wait in the far heap and
	// are migrated together; one scheduled to the same instant later, from
	// inside the window, joins them last. The chooser sees all of them, in
	// scheduling order.
	e := NewEngine()
	ch := &scriptChooser{picks: []int{3, 0, 0}}
	e.SetChooser(ch)
	const far = 3 * wheelSize
	var order string
	e.At(far, func() { order += "A" })
	e.At(far, func() { order += "B" })
	e.At(far-1, func() { e.At(far, func() { order += "D" }) })
	e.At(far, func() { order += "C" })
	e.Run()
	if order != "DABC" || fmt.Sprint(ch.offered) != "[4 3 2]" {
		t.Fatalf("order %q offered %v, want DABC offered [4 3 2]", order, ch.offered)
	}
}

func TestChooserTiesWithBackground(t *testing.T) {
	// A background event — Every's tick — tied with foreground ones is one
	// of the alternatives like any other; the background count must follow
	// only the event that actually fires, or Run would stop early or never.
	for _, picks := range [][]int{{0, 0}, {1, 0}, {2, 1}} {
		e := NewEngine()
		e.SetChooser(&scriptChooser{picks: picks})
		var order string
		e.At(5, func() { order += "A" })
		e.Every(5, func() { order += "b" })
		e.At(5, func() { order += "C" })
		e.Run()
		want := map[int]string{0: "AbC", 1: "bAC", 2: "CbA"}[picks[0]]
		if order != want {
			t.Errorf("picks %v: order %q, want %q", picks, order, want)
		}
		if e.q.len() != 1 || e.nbg != 1 {
			t.Errorf("picks %v: %d pending, %d background after Run, want the one rescheduled tick", picks, e.q.len(), e.nbg)
		}
	}
}

func TestChooserOutOfRangePanics(t *testing.T) {
	for _, sch := range schedulers {
		for _, pick := range []int{-1, 2} {
			e := NewEngine()
			at := sch.make(e)
			e.SetChooser(&scriptChooser{picks: []int{pick}})
			at(1, func() {})
			at(1, func() {})
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s kind: pick %d of 2 did not panic", sch.name, pick)
					}
				}()
				e.Run()
			}()
		}
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
	for _, sch := range schedulers {
		e := NewEngine()
		at := sch.make(e)
		tr := &ctxTracer{}
		e.SetTaskTracer(tr)
		var saw []uint64
		probe := func() { saw = append(saw, tr.cur) }
		tr.cur = 7
		at(1, func() {
			probe()    // 7, captured when this event was scheduled
			tr.cur = 8 // a handler opening a transaction of its own ...
			at(e.Now()+1, probe)
		})
		tr.cur = 9
		at(1, probe) // ... does not leak it into the next event
		tr.cur = 5
		e.Spawn("ctx", func(c *Context) { // a resume event carries it too
			probe()
			tr.cur = 6
			c.Sleep(3)
			probe()
		})
		tr.cur = 3
		e.Run()
		if fmt.Sprint(saw) != "[5 7 9 8 6]" {
			t.Fatalf("%s kind: contexts seen = %v, want [5 7 9 8 6]", sch.name, saw)
		}
		if tr.cur != 3 {
			t.Fatalf("%s kind: context after Run = %d, want the 3 current before it", sch.name, tr.cur)
		}
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

	// A registered kind carries its argument in the event.
	typed := NewEngine()
	k := typed.Register(perf.PhaseDispatch, func(uint32) {})
	if n := testing.AllocsPerRun(50, func() {
		base := typed.Now()
		for i := 0; i < 256; i++ {
			typed.Post(base+Time(i%7)*100, k, uint32(i)) // the far heap too
		}
		typed.Run()
	}); n != 0 {
		t.Errorf("Post + Run of 256 typed events allocates %v objects, want 0", n)
	}

	// Every's tick is a kind of the engine's own: firing and rescheduling
	// it allocates nothing.
	ticking := NewEngine()
	ticks := 0
	ticking.Every(10, func() { ticks++ })
	if n := testing.AllocsPerRun(200, func() { ticking.RunUntil(ticking.Now() + 10) }); n != 0 || ticks < 200 {
		t.Errorf("an Every tick allocates %v objects over %d ticks, want 0", n, ticks)
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
