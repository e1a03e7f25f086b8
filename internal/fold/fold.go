// Package fold is the tree's one 64-bit word mixer: the step the span
// digest (internal/causal) and the model checker's state hash
// (protocol.Env.StateHash, mesh's in-flight digest) are both built from.
// A Rec folds words in order — whatever is ordered (a queue, a cache's
// frames) goes in as words — and a Bag folds records in no order, which
// is how a map goes in. Neither allocates.
package fold

import "math/bits"

// Seed starts every fold; mul is Mix's odd multiplier (2^64 over the
// golden ratio).
const (
	Seed = uint64(14695981039346656037)
	mul  = uint64(0x9e3779b97f4a7c15)
)

// Mix is the step: xor the word in, swap the halves to bring the high
// bits down, multiply by an odd constant to carry the low ones up. A
// bijection of the state for a given word and of the word for a given
// state: streams that differ in one word stay different by construction.
func Mix(h, w uint64) uint64 { return bits.RotateLeft64(h^w, 32) * mul }

// Section tags a record with the table it comes from, which keeps the
// records of different tables apart once they share a Bag. The state
// hash's tables are listed here, in one place, so that no two share a tag.
type Section uint64

const (
	DirEntry Section = iota + 1 // directory: a block's entry
	DirLease                    // directory: a block's lease
	Txn                         // node: an outstanding transaction
	Lock                        // sync home: the three kinds of object
	Barrier
	Flag
	Serving // home: a block in service and its waiters
	Grant   // eager home: an open grant, transfer, held copy-drops
	Xfer
	Held
	NodeLease // timestamp node: a cached lease
	Recall    // timestamp home: an open recall
	Flight    // mesh: a message in flight
)

// Rec is an order-dependent fold of words: one record.
type Rec uint64

// Record starts the record of key in section.
func Record(s Section, key uint64) Rec { return Rec(Mix(Mix(Seed, uint64(s)), key)) }

// Word folds w in.
func (r *Rec) Word(w uint64) { *r = Rec(Mix(uint64(*r), w)) }

// End closes a variable-length run of words with one that no id, block
// number or count takes.
func (r *Rec) End() { r.Word(^uint64(0)) }

// Bag folds b in.
func (r *Rec) Bag(b Bag) {
	r.Word(b.n)
	r.Word(b.sum)
	r.Word(b.xor)
}

// Sum returns the fold so far, finished: the last word's low half has
// only reached the high half of the state, so one more shift-and-multiply
// round spreads it before the value is used as a key or put in a Bag.
func (r Rec) Sum() uint64 {
	v := uint64(r)
	v ^= v >> 29
	v *= 0xbf58476d1ce4e5b9
	return v ^ v>>32
}

// Bag is an order-independent fold of records: their count, sum and xor.
// Two bags are equal whenever they hold the same records, whatever order
// those were added (or removed) in, so a map folds without sorting its
// keys; unequal multisets collide only if both the sum and the xor of
// well-mixed 64-bit values agree.
type Bag struct{ n, sum, xor uint64 }

// Add puts one record in.
func (b *Bag) Add(r Rec) {
	v := r.Sum()
	b.n++
	b.sum += v
	b.xor ^= v
}

// Remove takes out a record Add put in.
func (b *Bag) Remove(r Rec) {
	v := r.Sum()
	b.n--
	b.sum -= v
	b.xor ^= v
}
