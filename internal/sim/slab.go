package sim

// Slab parks values that must outlive the call that made them — a queued
// event, a message in flight, a continuation's arguments — under uint32
// handles, so that scheduling one allocates nothing: a freed item is
// reused, last freed first, and the backing array grows by append's
// doubling. Handle 0 is never handed out and can stand for "none". The
// rule for users is copy out, free, then act: what runs next may Alloc,
// which can move the array or hand the same item out again. Free zeroes
// the item, so a parked pointer (an event's callback, a message's data
// words) is collectable from then on. The zero value is ready to use.
type Slab[T any] struct {
	items []T
	free  []uint32
}

// Alloc returns the handle of a vacant, zeroed item.
func (s *Slab[T]) Alloc() uint32 {
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		return h
	}
	if len(s.items) == 0 {
		// Item 0 backs the "none" handle; 16 suit a litmus machine, whose
		// slabs the model checker rewinds between schedules (Reset).
		s.items = make([]T, 1, 16)
	}
	var zero T
	s.items = append(s.items, zero)
	return uint32(len(s.items) - 1)
}

// At returns the item under h; the pointer is good until the next Alloc.
func (s *Slab[T]) At(h uint32) *T { return &s.items[h] }

// Free zeroes and vacates the item under h.
func (s *Slab[T]) Free(h uint32) {
	var zero T
	s.items[h] = zero
	s.free = append(s.free, h)
}

// Reset vacates every item, keeping the backing array: the next Alloc
// hands out handle 1, as on a slab that was never used.
func (s *Slab[T]) Reset() {
	clear(s.items)
	s.items = s.items[:min(len(s.items), 1)]
	s.free = s.free[:0]
}
