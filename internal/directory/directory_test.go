package directory

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestProcSetBasics(t *testing.T) {
	s := NewProcSet(130)
	for _, id := range []int{0, 63, 64, 129} {
		if s.Has(id) {
			t.Fatalf("fresh set has %d", id)
		}
		s.Add(id)
		if !s.Has(id) {
			t.Fatalf("added %d not present", id)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	var got []int
	s.Visit(func(id int) { got = append(got, id) })
	want := []int{0, 63, 64, 129}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visit order = %v, want %v", got, want)
		}
	}
	s.Remove(63)
	if s.Has(63) || s.Len() != 3 {
		t.Fatal("remove failed")
	}
	s.Clear()
	if s.Len() != 0 {
		t.Fatal("clear failed")
	}
}

func TestProcSetOnly(t *testing.T) {
	s := NewProcSet(64)
	s.Add(37)
	if s.Only() != 37 {
		t.Fatalf("Only = %d, want 37", s.Only())
	}
	s.Add(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Only on 2-element set did not panic")
		}
	}()
	s.Only()
}

func TestProcSetSubset(t *testing.T) {
	a, b := NewProcSet(64), NewProcSet(64)
	a.Add(1)
	a.Add(5)
	b.Add(1)
	b.Add(5)
	b.Add(9)
	if !a.SubsetOf(&b) {
		t.Fatal("a ⊆ b should hold")
	}
	if b.SubsetOf(&a) {
		t.Fatal("b ⊆ a should not hold")
	}
}

func TestProcSetMatchesMapProperty(t *testing.T) {
	f := func(ops []int16) bool {
		s := NewProcSet(128)
		ref := map[int]bool{}
		for _, o := range ops {
			id := int(o) & 127
			if o < 0 {
				s.Remove(id)
				delete(ref, id)
			} else {
				s.Add(id)
				ref[id] = true
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for id := 0; id < 128; id++ {
			if s.Has(id) != ref[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryEntryCreationAndPeek(t *testing.T) {
	d := New(64, true)
	if d.Peek(7) != nil {
		t.Fatal("peek created an entry")
	}
	e := d.Entry(7)
	if e.State != Uncached || d.StateCounts() != [4]int{Uncached: 1} {
		t.Fatalf("fresh entry = %+v", e)
	}
	if d.Entry(7) != e {
		t.Fatal("second Entry returned different record")
	}
}

func TestEntryValidate(t *testing.T) {
	mk := func() *Entry {
		return &Entry{
			Sharers:  NewProcSet(8),
			Writers:  NewProcSet(8),
			Notified: NewProcSet(8),
		}
	}
	// Legal states.
	e := mk()
	if err := e.Validate(); err != nil {
		t.Errorf("uncached: %v", err)
	}
	e.Sharers.Add(1)
	e.State = Shared
	if err := e.Validate(); err != nil {
		t.Errorf("shared: %v", err)
	}
	e.Writers.Add(1)
	e.State = Dirty
	if err := e.Validate(); err != nil {
		t.Errorf("dirty: %v", err)
	}
	e.Sharers.Add(2)
	e.State = Weak
	if err := e.Validate(); err != nil {
		t.Errorf("weak: %v", err)
	}
	// Illegal states.
	bad := mk()
	bad.State = Dirty // no sharers
	if bad.Validate() == nil {
		t.Error("dirty with no sharers validated")
	}
	bad2 := mk()
	bad2.Writers.Add(3) // writer not a sharer
	bad2.Sharers.Add(4)
	bad2.State = Shared
	if bad2.Validate() == nil {
		t.Error("writer outside sharers validated")
	}
	bad3 := mk()
	bad3.Sharers.Add(1)
	bad3.Sharers.Add(2)
	bad3.Writers.Add(1)
	bad3.State = Dirty // should be Weak
	if bad3.Validate() == nil {
		t.Error("two sharers with writer in DIRTY validated")
	}
}

func TestRecompute(t *testing.T) {
	e := &Entry{
		Sharers:  NewProcSet(8),
		Writers:  NewProcSet(8),
		Notified: NewProcSet(8),
	}
	// Weak with 2 sharers, 1 writer → removing the non-writer gives Dirty.
	e.Sharers.Add(1)
	e.Sharers.Add(2)
	e.Writers.Add(1)
	e.Notified.Add(2)
	e.State = Weak
	e.Sharers.Remove(2)
	e.Notified.Remove(2)
	if st := e.Recompute(); st != Dirty {
		t.Fatalf("recompute = %v, want DIRTY", st)
	}
	// Removing the writer's write status → Shared.
	e.Writers.Remove(1)
	if st := e.Recompute(); st != Shared {
		t.Fatalf("recompute = %v, want SHARED", st)
	}
	// Removing the last sharer → Uncached.
	e.Sharers.Remove(1)
	if st := e.Recompute(); st != Uncached {
		t.Fatalf("recompute = %v, want UNCACHED", st)
	}
}

func TestRecomputeClearsNotifiedOutsideWeak(t *testing.T) {
	e := &Entry{
		Sharers:  NewProcSet(8),
		Writers:  NewProcSet(8),
		Notified: NewProcSet(8),
	}
	e.Sharers.Add(1)
	e.Sharers.Add(2)
	e.Sharers.Add(3)
	e.Writers.Add(1)
	e.Notified.Add(2)
	e.Notified.Add(3)
	e.State = Weak
	e.Writers.Remove(1) // writer invalidated its copy's write status
	e.Sharers.Remove(1)
	if st := e.Recompute(); st != Shared {
		t.Fatalf("recompute = %v, want SHARED", st)
	}
	if e.Notified.Len() != 0 {
		t.Fatal("notified bits survived leaving WEAK")
	}
}

func TestRecomputePropertyNeverInvalid(t *testing.T) {
	// Property: after arbitrary add/remove sequences + Recompute, the
	// entry always validates.
	type op struct {
		ID     uint8
		Remove bool
		Write  bool
	}
	f := func(ops []op) bool {
		e := &Entry{
			Sharers:  NewProcSet(16),
			Writers:  NewProcSet(16),
			Notified: NewProcSet(16),
		}
		for _, o := range ops {
			id := int(o.ID) % 16
			if o.Remove {
				e.Sharers.Remove(id)
				e.Writers.Remove(id)
				e.Notified.Remove(id)
			} else {
				e.Sharers.Add(id)
				if o.Write {
					e.Writers.Add(id)
				}
			}
			e.Recompute()
			if e.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStateCountsMatchRecount: the counts a directory keeps at its
// transitions equal a recount of its entries after every step of arbitrary
// add / remove / writer / Recompute sequences over a few blocks, first
// touches and no-op transitions included.
func TestStateCountsMatchRecount(t *testing.T) {
	type op struct {
		Block, ID     uint8
		Remove, Write bool
	}
	f := func(ops []op) bool {
		d := New(16, true)
		for _, o := range ops {
			e, id := d.Entry(uint64(o.Block%5)), int(o.ID)%16
			if o.Remove {
				e.Sharers.Remove(id)
				e.Writers.Remove(id)
			} else {
				e.Sharers.Add(id)
				if o.Write {
					e.Writers.Add(id)
				}
			}
			e.Recompute()
			var want [4]int
			for _, r := range d.Entries() {
				want[r.State]++
			}
			if d.StateCounts() != want {
				t.Logf("after %+v: counts %v, entries recount to %v", o, d.StateCounts(), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryCheckPanicsOnViolation(t *testing.T) {
	d := New(8, true)
	e := d.Entry(1)
	e.State = Dirty // never populated sharers: invalid
	defer func() {
		if recover() == nil {
			t.Fatal("Check did not panic on invalid entry")
		}
	}()
	d.Check(1, e)
}

func TestDirectoryCheckDisabled(t *testing.T) {
	d := New(8, false)
	e := d.Entry(1)
	e.State = Dirty
	d.Check(1, e) // must not panic
}

func TestStateString(t *testing.T) {
	if Uncached.String() != "UNCACHED" || Weak.String() != "WEAK" {
		t.Fatal("state mnemonics wrong")
	}
}

// TestDirectoryVisit: ascending block order, whatever the creation
// order, and a record added after one listing shows in the next.
func TestDirectoryVisit(t *testing.T) {
	d := New(4, false)
	listed := func() (blocks []uint64) {
		for _, r := range d.Entries() {
			if r.Entry != d.Peek(r.Block) {
				t.Fatalf("block %d listed with another block's record", r.Block)
			}
			blocks = append(blocks, r.Block)
		}
		return blocks
	}
	d.Entry(9)
	d.Entry(1)
	if got := listed(); !slices.Equal(got, []uint64{1, 9}) {
		t.Fatalf("listed %v, want [1 9]", got)
	}
	d.Entry(4)
	if got := listed(); !slices.Equal(got, []uint64{1, 4, 9}) {
		t.Fatalf("listed %v, want [1 4 9]", got)
	}
}
