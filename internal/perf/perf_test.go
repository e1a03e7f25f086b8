package perf

import (
	"strings"
	"testing"
)

// The nil profiler is the disabled path: what the machine calls on it
// around a run must be a free no-op.
func TestNilProfilerIsNoOp(t *testing.T) {
	var p *Profiler
	p.Begin()
	p.End(100, 200)
	if s := p.Snapshot(); s.WallNS != 0 || s.Cycles != 0 || s.Events != 0 {
		t.Fatalf("nil profiler produced a non-zero snapshot: %+v", s)
	}
}

func TestEnabledProfilerZeroAllocHotPath(t *testing.T) {
	p := New()
	p.Begin()
	allocs := testing.AllocsPerRun(1000, func() {
		p.Start(PhaseQueue)
		p.Start(PhaseProtocol)
		p.Stop()
	})
	if allocs != 0 {
		t.Fatalf("a timed event allocates %.1f objects per run, want 0", allocs)
	}
}

// fakeClock is a test clock the profiler reads instead of the host's: it
// counts the reads and is advanced by hand, so a test knows how long each
// phase really took.
type fakeClock struct {
	ns    int64
	reads int
}

func (c *fakeClock) profiler() *Profiler {
	p := New()
	p.now = func() int64 { c.reads++; return c.ns }
	p.Begin()
	return p
}

// event plays one engine event the way Engine.step does — the n-th of the
// run, of a kind registered with phase ph — spending queueNS taking it off
// the queue and bodyNS running it.
func (c *fakeClock) event(p *Profiler, n uint64, ph Phase, queueNS, bodyNS int64) {
	timed := n%Stride == 0
	if timed {
		p.Start(PhaseQueue)
	}
	c.ns += queueNS
	if ph == PhaseBackground {
		timed = true
	}
	if timed {
		p.Start(ph)
	}
	c.ns += bodyNS
	if timed {
		p.Stop()
	}
}

func sumPhases(s Snapshot) int64 {
	var sum int64
	for _, ns := range s.Phases {
		sum += ns
	}
	return sum
}

// Every nanosecond measured must land in exactly one phase: the phase
// breakdown sums to the wall time regardless of the kinds' phases, of how
// many events were timed, and of what the division left over.
func TestPhaseAccountingSumsToWall(t *testing.T) {
	var c fakeClock
	p := c.profiler()
	for n := uint64(0); n < 1000; n++ {
		ph := Phase(n % uint64(PhaseBackground)) // every regular kind's phase
		if n%97 == 3 {
			ph = PhaseBackground
		}
		c.event(p, n, ph, 7, int64(11+n%13))
	}
	p.End(1000, 1000)

	s := p.Snapshot()
	if s.WallNS != c.ns {
		t.Fatalf("wall %d, clock at %d", s.WallNS, c.ns)
	}
	if sum := sumPhases(s); sum != s.WallNS {
		t.Fatalf("phase sum %d != wall %d", sum, s.WallNS)
	}
	if s.Cycles != 1000 || s.Events != 1000 {
		t.Fatalf("throughput denominators not recorded: %+v", s)
	}
	if s.WallNS > 0 && s.CyclesPerSec <= 0 {
		t.Fatalf("cycles/sec not computed: %+v", s)
	}
	// Events 0, 127, ..., 889 by the stride and the 11 background ones
	// (3, 100, ..., 973), none of them both.
	if s.TimedEvents != 8+11 {
		t.Fatalf("timed %d events, want 19", s.TimedEvents)
	}

	// With no event timed, all of the wall time is the residual.
	c = fakeClock{}
	p = c.profiler()
	c.ns += 500
	p.End(1, 1)
	if s := p.Snapshot(); s.WallNS != 500 || s.Phases["dispatch"] != 500 || len(s.Phases) != 1 {
		t.Fatalf("untimed run: %+v", s)
	}
}

// Two kinds of event, each wholly in its own phase, split the run's time
// 3:1. Which events the stride happens to pick now matters, and the
// estimate must still land within five points of the truth — when the
// kinds come in no order, and when they come in the rhythm of a
// 64-processor machine (32 of one, then 32 of the other), which a stride
// of 64 would sample on one side only.
func TestSampledSharesEstimateKnownSplit(t *testing.T) {
	const events = 100000
	for name, isMesh := range map[string]func(n uint64) bool{
		"irregular": func(n uint64) bool { return (n*0x9e3779b97f4a7c15)>>63 == 0 },
		"period 64": func(n uint64) bool { return n%64 < 32 },
	} {
		var c fakeClock
		p := c.profiler()
		var mesh, protocol int64
		for n := uint64(0); n < events; n++ {
			if isMesh(n) {
				c.event(p, n, PhaseMesh, 0, 30)
				mesh += 30
			} else {
				c.event(p, n, PhaseProtocol, 0, 10)
				protocol += 10
			}
		}
		p.End(events, events)
		s := p.Snapshot()
		if sum := sumPhases(s); sum != s.WallNS {
			t.Fatalf("%s: phase sum %d != wall %d", name, sum, s.WallNS)
		}
		for phase, truth := range map[string]int64{"mesh": mesh, "protocol": protocol} {
			got := 100 * float64(s.Phases[phase]) / float64(s.WallNS)
			want := 100 * float64(truth) / float64(s.WallNS)
			if want < 24 || want > 76 || got < want-5 || got > want+5 {
				t.Errorf("%s: %s estimated at %.1f%% of wall, truly %.1f%%", name, phase, got, want)
			}
		}
		if want := uint64((events + Stride - 1) / Stride); s.TimedEvents != want {
			t.Fatalf("%s: timed %d events, want %d", name, s.TimedEvents, want)
		}
	}
}

// Background events are all timed, so what they cost is reported as
// measured, not scaled up by the sampling ratio, however rare they are.
func TestBackgroundEventsAreExact(t *testing.T) {
	var c fakeClock
	p := c.profiler()
	for n := uint64(0); n < 10000; n++ {
		if n%2500 == 1 { // four heavy ticks, none on the stride
			c.event(p, n, PhaseBackground, 1, 40100)
			continue
		}
		c.event(p, n, PhaseProtocol, 1, 50)
	}
	p.End(10000, 10000)
	s := p.Snapshot()
	if s.Phases["background"] != 4*40100 {
		t.Fatalf("background phase %d ns, spent %d", s.Phases["background"], 4*40100)
	}
	if sum := sumPhases(s); sum != s.WallNS {
		t.Fatalf("phase sum %d != wall %d", sum, s.WallNS)
	}
}

// The budget: the profiler reads the clock less than once in ten events,
// three times in each timed one.
func TestClockReadsPerEvent(t *testing.T) {
	var c fakeClock
	p := c.profiler()
	const events = 10000
	for n := uint64(0); n < events; n++ {
		c.event(p, n, PhaseMesh, 1, 4)
	}
	p.End(events, events)
	if perEvent := float64(c.reads) / events; perEvent > 0.1 {
		t.Fatalf("%d clock reads over %d events (%.3f per event), want <= 0.1", c.reads, events, perEvent)
	}
}

func TestEndIsIdempotent(t *testing.T) {
	p := New()
	p.Begin()
	p.End(10, 20)
	first := p.Snapshot()
	p.End(999, 999) // must not re-measure
	if second := p.Snapshot(); second.Cycles != first.Cycles || second.WallNS != first.WallNS {
		t.Fatalf("second End re-measured: %+v vs %+v", second, first)
	}
}

func TestSnapshotAdd(t *testing.T) {
	a := Snapshot{WallNS: 1e9, Cycles: 100, Events: 10,
		Phases: map[string]int64{"mesh": 5e8}, Allocs: 7, AllocBytes: 70, GCCycles: 1}
	b := Snapshot{WallNS: 1e9, Cycles: 300, Events: 30,
		Phases: map[string]int64{"mesh": 1e8, "protocol": 2e8}, Allocs: 3, AllocBytes: 30}
	a.Add(b)
	if a.WallNS != 2e9 || a.Cycles != 400 || a.Events != 40 {
		t.Fatalf("totals wrong: %+v", a)
	}
	if a.CyclesPerSec != 200 {
		t.Fatalf("cycles/sec not recomputed from totals: %v", a.CyclesPerSec)
	}
	if a.Phases["mesh"] != 6e8 || a.Phases["protocol"] != 2e8 {
		t.Fatalf("phase merge wrong: %v", a.Phases)
	}
	if a.Allocs != 10 || a.AllocBytes != 100 || a.GCCycles != 1 {
		t.Fatalf("allocator merge wrong: %+v", a)
	}
}

func TestTableRendersAllPhases(t *testing.T) {
	s := Snapshot{WallNS: 2e9, Cycles: 1e6, Events: 5e5, CyclesPerSec: 5e5,
		Phases: map[string]int64{"dispatch": 1e9, "mesh": 5e8, "protocol": 5e8}}
	out := s.Table()
	for _, want := range []string{"dispatch", "mesh", "protocol", "simulated cycles", "gc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
