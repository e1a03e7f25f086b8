package sim

import (
	"strings"
	"testing"
)

// TestWatchdogDetectsLockCycle builds the classic two-context deadlock —
// each waiting for a lock the other holds — while unrelated timer events
// keep the queue busy for a million cycles. The end-of-run deadlock panic
// would only fire after that queue drains; the watchdog must name both
// wedged contexts and their wait reasons within a few probe intervals.
func TestWatchdogDetectsLockCycle(t *testing.T) {
	e := NewEngine()

	e.Spawn("cpu0", func(c *Context) {
		c.Sleep(50)
		c.Park("lock A (held by cpu1)")
	})
	e.Spawn("cpu1", func(c *Context) {
		c.Sleep(60)
		c.Park("lock B (held by cpu0)")
	})

	// Background traffic: retries, timers — events that would postpone
	// the queue-drain deadlock detector for a very long time.
	const horizon = 1_000_000
	var tick func()
	tick = func() {
		if e.Now() < horizon {
			e.After(100, tick)
		}
	}
	e.After(100, tick)

	var report *StallReport
	e.Watchdog(1000, func(r StallReport) {
		report = &r
		e.Stop()
	})
	e.Run()

	if report == nil {
		t.Fatal("watchdog never fired on a wedged simulation")
	}
	if report.Time >= horizon/10 {
		t.Fatalf("stall detected at time %d — not 'long before' the %d-cycle event horizon", report.Time, horizon)
	}
	if len(report.Contexts) != 2 {
		t.Fatalf("report has %d contexts, want 2: %s", len(report.Contexts), report)
	}
	for i, want := range []struct{ name, reason string }{
		{"cpu0", "lock A (held by cpu1)"},
		{"cpu1", "lock B (held by cpu0)"},
	} {
		c := report.Contexts[i]
		if c.Name != want.name || !c.Parked || c.WaitReason != want.reason {
			t.Fatalf("context %d = %+v, want parked %q waiting for %q", i, c, want.name, want.reason)
		}
	}
	if s := report.String(); !strings.Contains(s, "cpu0: waiting for lock A") {
		t.Fatalf("rendered report lacks wait reasons:\n%s", s)
	}
	if !e.stopped {
		t.Fatal("Stop from the stall handler did not take effect")
	}
}

// TestWatchdogQuietOnProgress verifies a healthy simulation never trips
// the watchdog, and that the watchdog's self-rescheduling probes do not
// keep the engine alive after all contexts finish.
func TestWatchdogQuietOnProgress(t *testing.T) {
	e := NewEngine()
	e.Spawn("worker", func(c *Context) {
		for i := 0; i < 100; i++ {
			c.Sleep(500)
		}
	})
	e.Watchdog(1000, func(r StallReport) {
		t.Fatalf("watchdog fired on a progressing simulation:\n%s", r)
	})
	e.Run()
	if e.Now() != 50_000 {
		t.Fatalf("run ended at %d, want 50000", e.Now())
	}
}

// TestWatchdogRefiresPerEpisode verifies one report per stall episode:
// a second stall after progress resumes is reported again, but a
// continuing stall is not re-reported every probe.
func TestWatchdogRefiresPerEpisode(t *testing.T) {
	e := NewEngine()
	var ctx *Context
	e.Spawn("cpu", func(c *Context) {
		ctx = c
		c.Park("phase 1")
		c.Park("phase 2")
	})
	// Keep events flowing for the whole test.
	var tick func()
	tick = func() {
		if e.Now() < 20_000 {
			e.After(50, tick)
		}
	}
	e.After(50, tick)
	// Resume the context mid-test so it stalls twice, and once more at
	// the end so it finishes.
	e.At(10_000, func() { ctx.Wake() })
	e.At(18_000, func() { ctx.Wake() })

	var fires int
	e.Watchdog(500, func(r StallReport) { fires++ })
	e.Run()
	if fires != 2 {
		t.Fatalf("watchdog fired %d times, want exactly 2 (one per stall episode)", fires)
	}
}
