package cache

import (
	"testing"
	"testing/quick"
)

func TestLineStateString(t *testing.T) {
	if Invalid.String() != "INV" || ReadOnly.String() != "RO" || ReadWrite.String() != "RW" {
		t.Fatal("state mnemonics wrong")
	}
}

func TestDirectMappedHitMissEvict(t *testing.T) {
	c := New(4) // blocks b and b+4 conflict
	if c.Lookup(1) != nil {
		t.Fatal("hit in empty cache")
	}
	if _, ev := c.Fill(1, ReadOnly); ev {
		t.Fatal("eviction filling empty frame")
	}
	if l := c.Lookup(1); l == nil || l.State != ReadOnly {
		t.Fatal("miss after fill")
	}
	// Conflicting block evicts.
	victim, ev := c.Fill(5, ReadWrite)
	if !ev || victim.Block != 1 {
		t.Fatalf("fill(5) victim = %+v ev=%v, want block 1", victim, ev)
	}
	if c.Lookup(1) != nil {
		t.Fatal("evicted block still present")
	}
	// Non-conflicting block coexists.
	if _, ev := c.Fill(2, ReadOnly); ev {
		t.Fatal("unexpected eviction")
	}
	if c.Lookup(5) == nil || c.Lookup(2) == nil {
		t.Fatal("resident blocks missing")
	}
	// The victim carries its dirty words out; the new line starts clean.
	c.MarkDirty(5, 2)
	victim, ev = c.Fill(1, ReadWrite)
	if !ev || victim.Block != 5 || victim.State != ReadWrite || victim.Dirty != 1<<2 {
		t.Fatalf("fill(1) victim = %+v ev=%v, want dirty block 5", victim, ev)
	}
	if l := c.Lookup(1); l == nil || l.Dirty != 0 {
		t.Fatalf("refilled frame = %+v, want clean", l)
	}
}

func TestUpgradeInPlace(t *testing.T) {
	c := New(4)
	c.Fill(3, ReadOnly)
	victim, ev := c.Fill(3, ReadWrite)
	if ev {
		t.Fatalf("upgrade evicted %+v", victim)
	}
	if l := c.Lookup(3); l == nil || l.State != ReadWrite {
		t.Fatal("upgrade lost the line")
	}
	// Filling over the same block is not a new fill: dirty words stay.
	c.MarkDirty(3, 4)
	if victim, ev := c.Fill(3, ReadWrite); ev {
		t.Fatalf("refill evicted %+v", victim)
	}
	if l := c.Lookup(3); l == nil || l.Dirty != 1<<4 {
		t.Fatalf("refill lost the dirty words: %+v", l)
	}
}

func TestInvalidateAndDirtyBits(t *testing.T) {
	c := New(8)
	c.Fill(9, ReadWrite)
	c.MarkDirty(9, 0)
	c.MarkDirty(9, 15)
	old, present := c.Invalidate(9)
	if !present || old.Dirty != (1|1<<15) {
		t.Fatalf("invalidate = %+v %v", old, present)
	}
	if _, present := c.Invalidate(9); present {
		t.Fatal("second invalidate found the block")
	}
	if c.Lookup(9) != nil {
		t.Fatal("block present after invalidate")
	}
}

func TestMarkDirtyOnReadOnlyPanics(t *testing.T) {
	c := New(4)
	c.Fill(1, ReadOnly)
	defer func() {
		if recover() == nil {
			t.Fatal("MarkDirty on RO line did not panic")
		}
	}()
	c.MarkDirty(1, 0)
}

func TestVisitValid(t *testing.T) {
	c := New(16)
	for b := uint64(0); b < 5; b++ {
		c.Fill(b, ReadOnly)
	}
	n := 0
	c.VisitValid(func(l *Line) { n++ })
	if n != 5 {
		t.Fatalf("visited %d lines, want 5", n)
	}
}

func TestCacheConsistencyProperty(t *testing.T) {
	// Property: after any sequence of fills and invalidates, Lookup(b)
	// succeeds iff b was the last block filled into its frame and not
	// invalidated since.
	type op struct {
		Block uint8
		Inv   bool
	}
	f := func(ops []op) bool {
		const frames = 8
		c := New(frames)
		shadow := map[uint64]uint64{} // frame -> resident block (+1)
		for _, o := range ops {
			b := uint64(o.Block)
			fr := b % frames
			if o.Inv {
				c.Invalidate(b)
				if shadow[fr] == b+1 {
					delete(shadow, fr)
				}
			} else {
				c.Fill(b, ReadOnly)
				shadow[fr] = b + 1
			}
		}
		for b := uint64(0); b < 256; b++ {
			want := shadow[b%frames] == b+1
			if (c.Lookup(b) != nil) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLinesAndDowngrade(t *testing.T) {
	c := New(8)
	if c.Lines() != 8 {
		t.Fatalf("Lines = %d", c.Lines())
	}
	c.Fill(3, ReadWrite)
	c.MarkDirty(3, 2)
	c.Downgrade(3)
	if l := c.Lookup(3); l == nil || l.State != ReadOnly || l.Dirty != 0 {
		t.Fatalf("after downgrade: %+v", l)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("downgrading absent block did not panic")
		}
	}()
	c.Downgrade(99)
}

func TestUpgradeAbsentPanics(t *testing.T) {
	c := New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("upgrading absent block did not panic")
		}
	}()
	c.Upgrade(7)
}

// Lines returns the number of frames.
func (c *Cache) Lines() int { return len(c.lines) }
