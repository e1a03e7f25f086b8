package fold

import "testing"

func rec(s Section, words ...uint64) Rec {
	r := Record(s, words[0])
	for _, w := range words[1:] {
		r.Word(w)
	}
	return r
}

// TestBagIsAMultiset: equal whatever the order of Add, back to empty after
// the matching Removes, and apart for records that differ in one word, in
// their section, or in how often they occur.
func TestBagIsAMultiset(t *testing.T) {
	a, b, c := rec(Txn, 3, 1), rec(Txn, 40, 1), rec(Txn, 7, 0)
	var x, y Bag
	for _, r := range []Rec{a, b, c} {
		x.Add(r)
	}
	for _, r := range []Rec{c, a, b} {
		y.Add(r)
	}
	if x != y {
		t.Fatalf("same records, other order: %v != %v", x, y)
	}
	for name, other := range map[string]Rec{
		"word":    rec(Txn, 7, 1),
		"section": rec(Lock, 7, 0),
		"length":  rec(Txn, 7, 0, 0),
	} {
		z := y
		z.Remove(c)
		z.Add(other)
		if z == x {
			t.Errorf("bag ignores a record's %s", name)
		}
	}
	y.Add(c)
	if x == y {
		t.Error("bag ignores a record held twice")
	}
	for _, r := range []Rec{a, b, c, c} {
		y.Remove(r)
	}
	if y != (Bag{}) {
		t.Errorf("drained bag is %v, want empty", y)
	}
}

// TestRecIsOrdered: the same words in another order, or one word split in
// two, fold differently, and Sum spreads a change in the last word's low
// bit over both halves.
func TestRecIsOrdered(t *testing.T) {
	if rec(Txn, 1, 2, 3).Sum() == rec(Txn, 1, 3, 2).Sum() {
		t.Error("word order does not matter")
	}
	var ended Rec = rec(Txn, 1, 2)
	ended.End()
	if ended.Sum() == rec(Txn, 1, 2).Sum() {
		t.Error("End folds nothing")
	}
	d := rec(Txn, 1, 2).Sum() ^ rec(Txn, 1, 3).Sum()
	if uint32(d) == 0 || d>>32 == 0 {
		t.Errorf("last word's low bit moved only one half: %#x", d)
	}
}
