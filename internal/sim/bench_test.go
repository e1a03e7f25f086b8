package sim

import "testing"

// trafficDeltas is how far ahead of the clock a 64-processor cell
// schedules its events, as counted in Engine.push over a whole fft/lrc
// medium run (1 621 396 pushes; gauss/erc in brackets):
//
//	cycles ahead   share of pushes
//	0              10.2 %   [ 7.5 %]
//	1–3             9.9 %   [ 7.4 %]
//	4–15            7.8 %   [43.8 %]
//	16–63          40.1 %   [12.8 %]
//	64–255         26.2 %   [25.4 %]
//	256–511         5.3 %   [ 0.7 %]
//	512–1023        0.3 %   [ 0.3 %]
//	1024–8191       0.1 %   [ 2.1 %]
//	≥ 8192          none    [ none ]
//
// The queue held 64–127 events at 55.7 % of those pushes and 128–255 at
// 41.6 % (never more; gauss/erc: 32–127 at 93.9 %, never above 127), and
// 57.6 % of pops fired at the instant of the pop before (gauss/erc:
// 33.2 %). Each row is {exclusive upper bound, per-mille share}.
var trafficDeltas = [...][2]int{
	{1, 102}, {4, 99}, {16, 78}, {64, 401}, {256, 262}, {512, 53}, {1024, 3}, {8192, 2},
}

// deltaTable spreads the measured mix over 1 024 draws, uniform within
// each row's range, in an order fixed by a small LCG.
func deltaTable() *[1024]Time {
	var t [1024]Time
	rnd := uint32(1)
	i, lo := 0, 0
	for _, row := range trafficDeltas {
		for n := row[1] * len(t) / 1000; n > 0 && i < len(t); n-- {
			rnd = rnd*1664525 + 1013904223
			t[i] = Time(lo + int(rnd>>8)%(row[0]-lo))
			i++
		}
		lo = row[0]
	}
	for ; i < len(t); i++ { // rounding leftovers: the commonest row
		t[i] = 32
	}
	for i := len(t) - 1; i > 0; i-- {
		rnd = rnd*1664525 + 1013904223
		j := int(rnd>>8) % (i + 1)
		t[i], t[j] = t[j], t[i]
	}
	return &t
}

// BenchmarkEventQueue measures the scheduler's core data structure: one
// push and one pop against a standing population, the operation pair
// every simulated event pays, with the clock moving forward to each
// popped event. The mix rows draw how far ahead each push lands from
// trafficDeltas, at the standing population of a litmus machine (16), of
// the measured cell (128, 256) and of a stress case (16 384); the far row
// schedules every event exactly 1 024 cycles ahead — bench/'s frozen
// sim.queue_ns_per_event probe — so each one takes the far heap and is
// migrated. wheelSize was chosen from the mix rows (see its comment).
//
//	go test ./internal/sim -run '^$' -bench EventQueue -benchmem
func BenchmarkEventQueue(b *testing.B) {
	deltas := deltaTable()
	for _, c := range []struct {
		name string
		pop  int
		far  bool
	}{
		{"mix/pop=16", 16, false},
		{"mix/pop=128", 128, false},
		{"mix/pop=256", 256, false},
		{"mix/pop=16384", 16384, false},
		{"far/pop=1024", 1024, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			delta := func(i int) Time {
				if c.far {
					return 1024
				}
				return deltas[i%len(deltas)]
			}
			var q eventQueue
			for i := 0; i < c.pop; i++ {
				q.push(&event{at: delta(i), seq: uint64(i)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			var now Time
			var ev event
			for i := 0; i < b.N; i++ {
				q.push(&event{at: now + delta(i), seq: uint64(c.pop + i)})
				q.take(0, &ev)
				now = ev.at
			}
		})
	}
}

// BenchmarkEngineDispatch measures the full engine round trip per event:
// schedule through the public API, then dispatch in Run — heap traffic
// plus the run loop's bookkeeping (event counter, cancellation poll,
// profiler branch).
func BenchmarkEngineDispatch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	nop := func() {}
	b.ResetTimer()
	const batch = 1024
	for done := 0; done < b.N; done += batch {
		n := batch
		if rem := b.N - done; rem < n {
			n = rem
		}
		base := e.Now()
		for i := 0; i < n; i++ {
			e.At(base+Time(i), nop)
		}
		e.Run()
	}
}

// BenchmarkContextHandoff measures the processor-context handoff, the
// step every miss, sync operation and quantum of a simulated processor
// takes: engine → context → engine, with the one or two events that
// carry it. Sleep is a context rescheduling itself; ParkWake is a context
// blocking until a handler wakes it.
func BenchmarkContextHandoff(b *testing.B) {
	b.Run("Sleep", func(b *testing.B) {
		e := NewEngine()
		e.Spawn("sleeper", func(c *Context) {
			for i := 0; i < b.N; i++ {
				c.Sleep(1)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		e.Run()
	})
	b.Run("ParkWake", func(b *testing.B) {
		e := NewEngine()
		var parker *Context
		wake := func() { parker.Wake() }
		parker = e.Spawn("parker", func(c *Context) {
			for i := 0; i < b.N; i++ {
				e.After(1, wake)
				c.Park("the bench")
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		e.Run()
	})
}
