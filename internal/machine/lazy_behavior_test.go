package machine

import (
	"testing"

	"lazyrc/internal/config"
	"lazyrc/internal/directory"
)

// TestLazyReadOfDirtyNoticesWriter scripts the one read-triggered notice
// of §2: a read of a dirty block moves it to Weak and notifies the
// current writer.
func TestLazyReadOfDirtyNoticesWriter(t *testing.T) {
	m := newTest(t, "lrc", 4, nil)
	a := m.AllocF64(1)
	f := m.NewFlag()
	block := a.At(0) / uint64(m.Cfg.LineSize)
	home := m.Env.HomeOf(block)
	var state directory.State
	m.Run(func(p *Proc) {
		switch p.ID() {
		case 1:
			p.WriteF64(a.At(0), 1.0) // sole writer: Dirty{1}
			p.Compute(5000)
			p.SetFlag(f)
			p.Compute(5000) // wait out the reader and the notice
		case 2:
			p.WaitFlag(f)
			p.ReadF64(a.At(0)) // read of dirty block
			p.Compute(5000)
			e := m.Nodes[home].Dir.Peek(block)
			if e != nil {
				state = e.State
			}
		}
	})
	if state != directory.Weak {
		t.Fatalf("state after read-of-dirty = %v, want WEAK", state)
	}
	if got := m.Stats.Procs[1].NoticesIn; got != 1 {
		t.Fatalf("writer processed %d notices, want 1", got)
	}
	// The reader must NOT have queued an invalidation — its copy is
	// fresh (see the reader-semantics note in home_lazy.go).
	if got := m.Stats.Procs[2].InvalsAtAcquire; got != 0 {
		t.Fatalf("reader performed %d acquire invalidations, want 0", got)
	}
}

// TestLazyExtEvictionPostsNotice: under the lazier protocol a silently
// upgraded block whose frame is reclaimed must post its deferred notice
// at eviction time, so the directory learns about the writer.
func TestLazyExtEvictionPostsNotice(t *testing.T) {
	m := newTest(t, "lrc-ext", 2, func(c *config.Config) {
		c.CacheSize = 2 * c.LineSize // two frames: easy to evict
	})
	lines := uint64(2)
	words := m.Cfg.WordsPerLine()
	a := m.AllocF64(int(lines+2) * words) // blocks 0..3; 0 and 2 conflict
	block := a.At(0) / uint64(m.Cfg.LineSize)
	home := m.Env.HomeOf(block)
	f := m.NewFlag()
	var writers int
	m.Run(func(p *Proc) {
		switch p.ID() {
		case 1:
			p.ReadF64(a.At(0)) // other sharer: makes the write notice-worthy
			p.SetFlag(f)
		case 0:
			p.WaitFlag(f)
			p.ReadF64(a.At(0))       // fill RO
			p.WriteF64(a.At(0), 1.0) // silent upgrade, deferred notice
			// Touch the conflicting block: evicts block 0, forcing the
			// deferred notice out.
			p.ReadF64(a.At(2 * words))
			p.Compute(5000)
			if e := m.Nodes[home].Dir.Peek(block); e != nil {
				writers = e.Writers.Len()
			}
		}
	})
	// The eviction removed node 0 as a sharer, and the posted notice
	// registered (then deregistered) it as writer; by the end the block
	// must not still think node 0 writes it, and node 1 must have been
	// notified.
	if writers != 0 {
		t.Fatalf("writers = %d after eviction, want 0", writers)
	}
	if got := m.Stats.Procs[1].NoticesIn; got != 1 {
		t.Fatalf("reader processed %d notices, want 1", got)
	}
}

// TestLRCWriteCombiningAtHome: two writers of one block whose requests
// overlap share a single acknowledgement collection (the paper: "it
// allows us to collect acknowledgments only once when write requests for
// the same block arrive from multiple processors").
func TestLRCWriteCombiningAtHome(t *testing.T) {
	m := newTest(t, "lrc", 8, nil)
	a := m.AllocF64(8)
	bar := m.NewBarrier(8)
	m.Run(func(p *Proc) {
		p.ReadF64(a.At(0)) // everyone shares the block
		p.Barrier(bar)
		if p.ID() < 4 {
			p.WriteF64(a.At(p.ID()), float64(p.ID())) // four concurrent writers
		}
		p.Barrier(bar)
	})
	// Every sharer must have been notified exactly once for the weak
	// episode, not once per writer.
	var notices uint64
	for i := range m.Stats.Procs {
		notices += m.Stats.Procs[i].NoticesIn
	}
	// 8 sharers; each non-writer gets 1 notice; each writer learns from
	// its own reply or a notice. At most one notice per processor.
	if notices > 8 {
		t.Fatalf("notices = %d; collection not combined (> one per sharer)", notices)
	}
	if notices < 4 {
		t.Fatalf("notices = %d; sharers were never notified", notices)
	}
	if err := m.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseWaitsForNoticeAcks: an LRC release may not complete before
// the home has collected the acknowledgements for the releaser's write
// notices (§2's "globally performed" condition).
func TestReleaseWaitsForNoticeAcks(t *testing.T) {
	m := newTest(t, "lrc", 8, nil)
	a := m.AllocF64(1)
	bar := m.NewBarrier(8)
	l := m.NewLock()
	m.Run(func(p *Proc) {
		p.ReadF64(a.At(0)) // 8 sharers
		p.Barrier(bar)
		if p.ID() == 0 {
			p.WriteF64(a.At(0), 1.0) // notices to 7 sharers
			p.Acquire(l)
			p.Release(l) // must stall until the write is globally performed
		}
		p.Barrier(bar)
	})
	if m.Stats.Procs[0].SyncStall == 0 {
		t.Fatal("release completed without any synchronization wait")
	}
	if err := m.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestLazyRetireCommitsItsOwnWords: when the older of two buffered write
// misses retires first, its line is dirty in exactly the words written to
// it, not in those of the entry the write buffer shifts into its slot.
func TestLazyRetireCommitsItsOwnWords(t *testing.T) {
	m := newTest(t, "lrc", 2, nil)
	words := m.Cfg.WordsPerLine()
	a := m.AllocF64(2 * words) // two adjacent blocks with one home
	line := uint64(m.Cfg.LineSize)
	older, newer := a.At(0)/line, a.At(words)/line
	var dirty [2]uint64
	m.Run(func(p *Proc) {
		if p.ID() != 0 {
			return
		}
		p.WriteF64(a.At(0), 1)       // word 0 of the older block: a buffered miss
		p.WriteF64(a.At(words+1), 2) // word 1 of the newer one, buffered behind it
		p.Compute(5000)              // both fills land, the older first
		dirty[0] = m.Nodes[0].Cache.Lookup(older).Dirty
		dirty[1] = m.Nodes[0].Cache.Lookup(newer).Dirty
	})
	if dirty != [2]uint64{0b01, 0b10} {
		t.Fatalf("dirty masks %02b and %02b, want 01 and 10", dirty[0], dirty[1])
	}
}
