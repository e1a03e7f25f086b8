package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestBodyPanicReachesRunCaller: a panic raised inside a context body —
// after the body has already blocked and been resumed, so it is deep in
// the coroutine — comes out of Run with its original value.
func TestBodyPanicReachesRunCaller(t *testing.T) {
	boom := errors.New("boom")
	e := NewEngine()
	e.Spawn("bystander", func(c *Context) { c.Park("nothing") })
	e.Spawn("crasher", func(c *Context) {
		c.Sleep(5)
		panic(boom)
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != boom {
		t.Fatalf("Run's caller recovered %v, want the body's panic value %v", got, boom)
	}
	if e.Now() != 5 {
		t.Fatalf("panic surfaced at time %d, want 5", e.Now())
	}
}

// abandon builds an engine with 64 parked contexts plus whatever end adds,
// runs it to its abnormal end, and returns what Run panicked with.
func abandon(unwound *int, end func(e *Engine)) (panicked any) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Spawn(fmt.Sprintf("cpu%d", i), func(c *Context) {
			defer func() { *unwound++ }()
			c.Sleep(1)
			c.Park("a wake that never comes")
			panic("a released body ran on past its Park")
		})
	}
	end(e)
	defer func() { panicked = recover() }()
	e.Run()
	return nil
}

// TestRunReleasesContextsOnEveryExit: however Run ends, no coroutine (and
// so nothing its stack references) is left behind, the deferred calls of
// each abandoned body have run, and nothing after its Park has.
func TestRunReleasesContextsOnEveryExit(t *testing.T) {
	for _, c := range []struct {
		name    string
		end     func(e *Engine)
		want    string // substring of Run's panic; "" for a normal return
		started int    // bodies that had begun, and so have a deferred call to run
	}{
		{"stop", func(e *Engine) { e.At(10, e.Stop) }, "", 64},
		{"stop before any body starts", func(e *Engine) { e.Stop() }, "", 0},
		{"deadlock", func(e *Engine) {}, "sim: deadlock", 64},
		{"handler panic", func(e *Engine) { e.At(10, func() { panic("handler crash") }) }, "handler crash", 64},
		{"body panic", func(e *Engine) {
			e.Spawn("crasher", func(c *Context) {
				c.Sleep(10)
				panic("body crash")
			})
		}, "body crash", 64},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			unwound := 0
			for i := 0; i < 20; i++ {
				p := abandon(&unwound, c.end)
				if got := fmt.Sprint(p); (c.want == "") != (p == nil) || !strings.Contains(got, c.want) {
					t.Fatalf("Run ended with %v, want %q", p, c.want)
				}
			}
			if unwound != 20*c.started {
				t.Errorf("%d deferred calls ran in abandoned bodies, want %d", unwound, 20*c.started)
			}
			// A released coroutine is gone when stop returns; the grace
			// period only covers goroutines of the test runner itself.
			var n int
			for i := 0; i < 50; i++ {
				if n = runtime.NumGoroutine(); n <= base {
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			t.Errorf("%d goroutines after 20 abandoned 64-context runs, %d before", n, base)
		})
	}
}

func TestReleasedContextIsDone(t *testing.T) {
	e := NewEngine()
	c := e.Spawn("parked", func(c *Context) { c.Park("forever") })
	e.At(3, e.Stop)
	e.Run()
	if !c.Done() {
		t.Fatal("a context released by Run does not report Done")
	}
}

func TestParkWakeAllocatesNothing(t *testing.T) {
	e := NewEngine()
	stop := false
	var parker *Context
	wake := func() { parker.Wake() }
	parker = e.Spawn("parker", func(c *Context) {
		for !stop {
			e.After(1, wake)
			c.Park("the pin")
		}
	})
	if n := testing.AllocsPerRun(200, func() { e.RunUntil(e.Now() + 1) }); n != 0 {
		t.Errorf("a Park/Wake round trip allocates %v objects, want 0", n)
	}
	stop = true
	e.Run()
}

// TestSpawnAllocations pins what building one context costs. The model
// checker builds a machine per schedule, so this is a per-schedule cost
// (mc_explore's allocs_per_unit), not a one-off.
func TestSpawnAllocations(t *testing.T) {
	e := NewEngine()
	e.contexts = make([]*Context, 0, 512) // keep slice growth out of the count
	body := func(*Context) {}
	n := testing.AllocsPerRun(200, func() {
		e.Spawn("cpu", body)
		e.Run()
	})
	// 13 on go1.24: the Context and the closure handed to iter.Pull, then
	// Pull's own coroutine, closures and the variables they share (11, the
	// toolchain's to change — hence the margin of 2).
	if n > 15 {
		t.Errorf("Spawn + run to completion allocates %v objects, want at most 15", n)
	}
}
