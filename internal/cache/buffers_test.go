package cache

import (
	"testing"
	"testing/quick"
)

func TestWriteBufferCoalesceAndFill(t *testing.T) {
	w := NewWriteBuffer(2)
	if !w.Empty() || w.Full() {
		t.Fatal("fresh buffer state wrong")
	}
	alloc, ok := w.Put(10, 0)
	if !alloc || !ok {
		t.Fatal("first put should allocate")
	}
	alloc, ok = w.Put(10, 3)
	if alloc || !ok {
		t.Fatal("same-line put should coalesce")
	}
	if e := w.Find(10); e == nil || e.Words != (1|1<<3) {
		t.Fatalf("entry = %+v", e)
	}
	w.Put(11, 0)
	if !w.Full() {
		t.Fatal("buffer should be full at capacity")
	}
	if _, ok := w.Put(12, 0); ok {
		t.Fatal("put into full buffer succeeded")
	}
	// Coalescing still works when full.
	if _, ok := w.Put(11, 5); !ok {
		t.Fatal("coalescing into full buffer failed")
	}
	total, coalesced, stalls := w.Stats()
	if total != 4 || coalesced != 2 || stalls != 1 {
		t.Fatalf("stats total=%d coalesced=%d stalls=%d", total, coalesced, stalls)
	}
}

func TestWriteBufferRetireOrder(t *testing.T) {
	w := NewWriteBuffer(4)
	w.Put(1, 0)
	w.Put(2, 0)
	w.Put(3, 0)
	if w.entries[0].Block != 1 {
		t.Fatal("oldest wrong")
	}
	e := w.Retire(2)
	if e.Block != 2 || w.Len() != 2 {
		t.Fatalf("retire(2) = %+v len=%d", e, w.Len())
	}
	if w.Find(2) != nil {
		t.Fatal("retired entry still present")
	}
}

func TestWriteBufferRetireAbsentPanics(t *testing.T) {
	w := NewWriteBuffer(2)
	defer func() {
		if recover() == nil {
			t.Fatal("retiring absent entry did not panic")
		}
	}()
	w.Retire(99)
}

func TestCoalescingBufferMergeAndCapacity(t *testing.T) {
	b := NewCoalescingBuffer(2)
	if _, drain := b.Put(1, 0); drain {
		t.Fatal("drain from empty buffer")
	}
	if _, drain := b.Put(1, 7); drain {
		t.Fatal("merge caused drain")
	}
	if _, drain := b.Put(2, 0); drain {
		t.Fatal("second entry caused drain")
	}
	// Third distinct block pushes out the oldest (block 1).
	drained, drain := b.Put(3, 1)
	if !drain || drained.Block != 1 || drained.Words != (1|1<<7) {
		t.Fatalf("drained = %+v drain=%v", drained, drain)
	}
	if b.Len() != 2 {
		t.Fatalf("len = %d, want 2", b.Len())
	}
	ins, merges, capd := b.Stats()
	if ins != 3 || merges != 1 || capd != 1 {
		t.Fatalf("stats ins=%d merges=%d capd=%d", ins, merges, capd)
	}
}

func TestCoalescingBufferRemoveAndDrainAll(t *testing.T) {
	b := NewCoalescingBuffer(4)
	b.Put(1, 0)
	b.Put(2, 0)
	b.Put(3, 0)
	e, present := b.Remove(2)
	if !present || e.Block != 2 {
		t.Fatalf("remove(2) = %+v %v", e, present)
	}
	if _, present := b.Remove(2); present {
		t.Fatal("double remove found entry")
	}
	all := b.DrainAll()
	if len(all) != 2 || all[0].Block != 1 || all[1].Block != 3 {
		t.Fatalf("drainAll = %+v", all)
	}
	if !b.Empty() {
		t.Fatal("buffer not empty after DrainAll")
	}
}

func TestCBEntryDirtyBytes(t *testing.T) {
	e := CBEntry{Words: 1 | 1<<3 | 1<<15}
	if got := e.DirtyBytes(8); got != 24 {
		t.Fatalf("DirtyBytes = %d, want 24", got)
	}
	if got := (CBEntry{}).DirtyBytes(8); got != 0 {
		t.Fatalf("empty DirtyBytes = %d, want 0", got)
	}
}

func TestCoalescingBufferNeverExceedsCapProperty(t *testing.T) {
	f := func(blocks []uint8) bool {
		b := NewCoalescingBuffer(4)
		for _, blk := range blocks {
			b.Put(uint64(blk%16), int(blk%8))
			if b.Len() > b.Cap() {
				return false
			}
		}
		// Word masks for a block must be the union of its writes since
		// the last time it drained — at minimum, non-zero.
		for _, e := range b.DrainAll() {
			if e.Words == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBufferNeverExceedsCapProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		w := NewWriteBuffer(4)
		for _, o := range ops {
			block := uint64(o % 32)
			if _, ok := w.Put(block, int(o%8)); !ok {
				// Full: retire the oldest to make room, as a protocol would.
				w.Retire(w.entries[0].Block)
				if _, ok := w.Put(block, int(o%8)); !ok {
					return false
				}
			}
			if w.Len() > w.Cap() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCoalescingBufferHas(t *testing.T) {
	b := NewCoalescingBuffer(2)
	if b.Has(5) {
		t.Fatal("empty buffer has entry")
	}
	b.Put(5, 0)
	if !b.Has(5) || b.Has(6) {
		t.Fatal("Has wrong")
	}
}
