package cache

import (
	"testing"
	"testing/quick"

	"lazyrc/internal/telemetry"
)

// TestBufferPolicies drives a two-entry buffer as each protocol does when a
// store to a new line finds it full: the write buffer's processor stalls
// until an entry retires, then retries; the coalescing buffer drains its
// oldest entry, then takes the store.
func TestBufferPolicies(t *testing.T) {
	for _, tc := range []struct {
		name    string
		full    func(b *Buffer) (left Entry) // make room for one entry
		left    []Entry                      // entries that left, in order
		entries []Entry                      // what stays, oldest first
	}{{
		name: "stall and retry",
		full: func(b *Buffer) Entry {
			e, _ := b.Remove(11) // the younger line's permission lands first
			return e
		},
		left:    []Entry{{Block: 11, Words: 1 | 1<<5}},
		entries: []Entry{{Block: 10, Words: 1 | 1<<3}, {Block: 12, Words: 1 << 2}},
	}, {
		name:    "pop oldest then put",
		full:    (*Buffer).PopOldest,
		left:    []Entry{{Block: 10, Words: 1 | 1<<3}},
		entries: []Entry{{Block: 11, Words: 1 | 1<<5}, {Block: 12, Words: 1 << 2}},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuffer(2)
			if !b.Empty() || b.Full() {
				t.Fatal("fresh buffer state wrong")
			}
			var left []Entry
			for _, p := range []struct {
				block uint64
				word  int
			}{{10, 0}, {10, 3}, {11, 0}, {11, 5}, {12, 2}} {
				allocated, ok := b.Put(p.block, p.word)
				if !ok {
					if p.block != 12 || !b.Full() {
						t.Fatalf("Put(%d, %d) found no room in %+v", p.block, p.word, b.Entries())
					}
					left = append(left, tc.full(b))
					allocated, ok = b.Put(p.block, p.word)
				}
				if !ok || allocated != (p.word != 3 && p.word != 5) {
					t.Fatalf("Put(%d, %d) = %v, %v", p.block, p.word, allocated, ok)
				}
				if b.Len() > 2 {
					t.Fatalf("len %d over capacity 2", b.Len())
				}
			}
			if !equal(left, tc.left) || !equal(b.Entries(), tc.entries) {
				t.Fatalf("left %+v, kept %+v; want %+v, %+v", left, b.Entries(), tc.left, tc.entries)
			}
			if _, ok := b.Remove(99); ok {
				t.Fatal("removing an absent line found an entry")
			}
			if all := b.DrainAll(); !equal(all, tc.entries) || !b.Empty() {
				t.Fatalf("DrainAll = %+v, empty %v", all, b.Empty())
			}
		})
	}
}

func equal(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Block != b[i].Block || a[i].Words != b[i].Words {
			return false
		}
	}
	return true
}

// TestBufferObservesEveryRemoval: with telemetry on, each way out of the
// buffer observes the leaving entry's residency exactly once.
func TestBufferObservesEveryRemoval(t *testing.T) {
	for _, tc := range []struct {
		name   string
		remove func(b *Buffer) int // entries removed
	}{
		{"Remove", func(b *Buffer) int { b.Remove(2); return 1 }},
		{"PopOldest", func(b *Buffer) int { b.PopOldest(); return 1 }},
		{"DrainAll", func(b *Buffer) int { return len(b.DrainAll()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry(1)
			resid := reg.Histogram("resid")
			now := uint64(10)
			b := NewBuffer(4)
			b.EnableTelemetry(func() uint64 { return now }, resid)
			b.Put(1, 0)
			b.Put(2, 0)
			b.Put(3, 0)
			now = 17
			n := tc.remove(b)
			if got := resid.Count(); got != uint64(n) || n == 0 {
				t.Fatalf("%d residencies observed for %d removed entries", got, n)
			}
			if got := resid.Max(); got != 7 {
				t.Fatalf("longest residency %d, want 7", got)
			}
			b.Put(4, 0) // a store is not a removal
			if got := resid.Count(); got != uint64(n) {
				t.Fatalf("Put observed a residency: %d", got)
			}
		})
	}
}

func TestEntryDirtyBytes(t *testing.T) {
	e := Entry{Words: 1 | 1<<3 | 1<<15}
	if got := e.DirtyBytes(8); got != 24 {
		t.Fatalf("DirtyBytes = %d, want 24", got)
	}
	if got := (Entry{}).DirtyBytes(8); got != 0 {
		t.Fatalf("empty DirtyBytes = %d, want 0", got)
	}
}

// capBound checks that a four-entry buffer whose full-buffer policy is
// makeRoom never holds more than its capacity, and that every entry's mask
// holds its line's stores.
func capBound(t *testing.T, makeRoom func(*Buffer)) {
	f := func(ops []uint8) bool {
		b := NewBuffer(4)
		for _, o := range ops {
			block, word := uint64(o%32), int(o%8)
			if _, ok := b.Put(block, word); !ok {
				makeRoom(b)
				if _, ok := b.Put(block, word); !ok {
					return false
				}
			}
			if b.Len() > 4 || b.Find(block).Words&(1<<uint(word)) == 0 {
				return false
			}
		}
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

// TestWriteBufferNeverExceedsCapProperty: the processor stalls until an
// entry retires, here the oldest.
func TestWriteBufferNeverExceedsCapProperty(t *testing.T) {
	capBound(t, func(b *Buffer) { b.Remove(b.Entries()[0].Block) })
}

// TestCoalescingBufferNeverExceedsCapProperty: the oldest entry drains.
func TestCoalescingBufferNeverExceedsCapProperty(t *testing.T) {
	capBound(t, func(b *Buffer) { b.PopOldest() })
}
