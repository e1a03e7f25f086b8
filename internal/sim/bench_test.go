package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventHeapPushPop measures the scheduler's core data
// structure: one push and one pop against a primed heap, the operation
// pair every simulated event pays. The sub-benchmarks hold the standing
// population of a 4-processor machine (64), a 64-processor medium cell
// (1 024) and a paper-scale one (16 384), so the sift depth is
// representative of each; heapArity was chosen from these rows.
//
//	go test ./internal/sim -bench EventHeap -benchmem
func BenchmarkEventHeapPushPop(b *testing.B) {
	nop := func() {}
	for _, pop := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("pop=%d", pop), func(b *testing.B) {
			var h eventHeap
			for i := 0; i < pop; i++ {
				h.pushEv(event{at: Time(i*2654435761) % 1_000_000, seq: uint64(i), fn: nop})
			}
			b.ReportAllocs()
			b.ResetTimer()
			// Each new event lands up to 1M cycles after the one just
			// popped, as a rescheduling simulation's do: the population
			// stands and the clock only moves forward.
			var now Time
			for i := 0; i < b.N; i++ {
				h.pushEv(event{at: now + Time(i*40503)%1_000_000, seq: uint64(pop + i), fn: nop})
				now = h.popMin().at
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
