package directory

import "math/bits"

// ProcSet is a set of processor ids with deterministic (ascending)
// iteration order, implemented as a bitmap. Deterministic order matters:
// the order in which a home node dispatches write notices to sharers is
// part of the simulated schedule, and Go map iteration would randomize it.
type ProcSet struct {
	words []uint64
}

// Add inserts id.
func (s *ProcSet) Add(id int) { s.words[id/64] |= 1 << uint(id%64) }

// Remove deletes id.
func (s *ProcSet) Remove(id int) { s.words[id/64] &^= 1 << uint(id%64) }

// Has reports membership.
func (s *ProcSet) Has(id int) bool { return s.words[id/64]&(1<<uint(id%64)) != 0 }

// Len returns the number of members.
func (s *ProcSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clear empties the set.
func (s *ProcSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Visit calls fn for each member in ascending order.
func (s *ProcSet) Visit(fn func(id int)) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(i*64 + b)
			w &= w - 1
		}
	}
}

// Only returns the single member of a singleton set; it panics otherwise.
func (s *ProcSet) Only() int {
	if s.Len() != 1 {
		panic("directory: Only on non-singleton set")
	}
	for i, w := range s.words {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	panic("unreachable")
}

// SubsetOf reports whether every member of s is in t.
func (s *ProcSet) SubsetOf(t *ProcSet) bool {
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}
