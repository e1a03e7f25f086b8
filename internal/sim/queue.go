package sim

import "math/bits"

// wheelSize is W, the cycles from the queue's base on that the wheel
// covers with one slot each; later events wait in the far heap. A cell
// schedules 94 % of its events < 256 cycles ahead, 99.6 % < 512 and
// 99.9 % < 1 024 (trafficDeltas in bench_test.go). On BenchmarkEventQueue's
// mix rows W = 512 is 2–4 ns per event ahead of 256 and level with 1 024,
// cell_bare cannot tell the three apart, and the model checker clears the
// slot array once per explored schedule: hence the smallest.
const (
	wheelSize  = 256
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// eventHeap, the event queue's far level, is a d-ary min-heap on (at,
// seq) stored flat in a slice: the children of slot i are slots
// i*heapArity+1 .. i*heapArity+heapArity. (at, seq) is a total order, so
// the pop sequence depends on the pushed set alone, not the heap's shape.
// Arity 4 halves a binary heap's depth, the children a pop compares per
// level share cache lines, and the index arithmetic is shifts.
type eventHeap []event

const heapArity = 4

// pushEv inserts e, moving a hole up from the new leaf until e's parent
// is not after it.
func (h *eventHeap) pushEv(e event) {
	q := append(*h, event{})
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

// popMin removes and returns the minimum, moving a hole down from the
// root until the former last element fits. The vacated last slot is
// zeroed so the backing array does not keep a popped callback reachable.
func (h *eventHeap) popMin() event {
	q := *h
	n := len(q) - 1
	min, last := q[0], q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	if n == 0 {
		return min
	}
	i := 0
	for {
		c := i*heapArity + 1
		if c >= n {
			break
		}
		end := c + heapArity
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
	return min
}

// wheelNode is a queued event and its successor in the slot's FIFO.
type wheelNode struct {
	ev   event
	next uint32 // handle in eventQueue.nodes; 0 at the tail
}

// wheelSlot is one instant's FIFO: node handles, 0 when empty.
type wheelSlot struct{ head, tail uint32 }

// eventQueue is the engine's pending-event set, ordered by (at, seq): a
// timing wheel over the wheelSize cycles from base on and a heap for
// everything later (DESIGN.md §4, "Event queue"). The window invariant:
// an event with at in [base, base+wheelSize) is in wheel slot
// at%wheelSize, any later one in the far heap, and none is earlier. Only
// settle moves base, to the earliest queued instant; the engine's clock
// may run ahead of base (RunUntil), never behind it. A slot's FIFO order
// is seq order: direct pushes arrive in seq order, and what settle
// migrates from the far heap, in (at, seq) order, lands in slots that were
// outside the window until then — so empty — before any handler can push
// to them.
type eventQueue struct {
	base  Time
	near  int // events in the wheel
	occ   [wheelWords]uint64
	slots [wheelSize]wheelSlot
	nodes Slab[wheelNode]
	far   eventHeap
}

func (q *eventQueue) len() int { return q.near + len(q.far) }

// reset empties the queue, keeping the node slab's and far heap's storage.
func (q *eventQueue) reset() {
	q.nodes.Reset()
	clear(q.far)
	*q = eventQueue{nodes: q.nodes, far: q.far[:0]}
}

// push queues ev, which must not be before the engine's clock.
func (q *eventQueue) push(ev *event) {
	if ev.at-q.base < wheelSize {
		q.link(ev)
	} else {
		q.far.pushEv(*ev)
	}
}

// link appends ev to its slot's FIFO.
func (q *eventQueue) link(ev *event) {
	s := uint(ev.at) & wheelMask
	h := q.nodes.Alloc()
	q.nodes.items[h].ev = *ev
	sl := &q.slots[s]
	if sl.head == 0 {
		sl.head = h
		q.occ[s>>6] |= 1 << (s & 63)
	} else {
		q.nodes.items[sl.tail].next = h
	}
	sl.tail = h
	q.near++
}

// minAt returns the earliest queued instant; the queue must not be empty.
func (q *eventQueue) minAt() Time {
	if q.near == 0 {
		return q.far[0].at
	}
	// The first occupied slot from base's on: its own word from its bit
	// up, then word by word, after a full turn the same word below the bit.
	s := uint(q.base) & wheelMask
	w, b := s>>6, s&63
	m := q.occ[w] >> b << b
	for i := uint(0); ; i++ {
		if m != 0 {
			return q.base + uint64(i*64+uint(bits.TrailingZeros64(m))-b)
		}
		m = q.occ[(w+i+1)%wheelWords]
	}
}

// settle moves base to the earliest queued instant, if it is not there,
// and migrates the far events the window now reaches: every event of that
// instant is then in base's slot. The queue must not be empty.
func (q *eventQueue) settle() {
	if q.slots[q.base&wheelMask].head != 0 {
		return
	}
	q.base = q.minAt()
	for len(q.far) > 0 && q.far[0].at-q.base < wheelSize {
		ev := q.far.popMin()
		q.link(&ev)
	}
}

// tied returns how many events are queued at the earliest instant.
func (q *eventQueue) tied() int {
	q.settle()
	n := 0
	for h := q.slots[q.base&wheelMask].head; h != 0; h = q.nodes.items[h].next {
		n++
	}
	return n
}

// take removes the k-th event, in seq order, of the earliest instant and
// stores it in *ev; the others keep their order. take(0, ev) is pop.
func (q *eventQueue) take(k int, ev *event) {
	q.settle()
	s := uint(q.base) & wheelMask
	sl := &q.slots[s]
	prev, h := uint32(0), sl.head
	for ; k > 0; k-- {
		prev, h = h, q.nodes.items[h].next
	}
	nd := &q.nodes.items[h]
	*ev = nd.ev
	if prev == 0 {
		sl.head = nd.next
	} else {
		q.nodes.items[prev].next = nd.next
	}
	if nd.next == 0 {
		if sl.tail = prev; prev == 0 {
			q.occ[s>>6] &^= 1 << (s & 63)
		}
	}
	q.nodes.Free(h)
	q.near--
}
