package apps

import (
	"testing"

	"lazyrc/internal/config"
	"lazyrc/internal/protocol"
	"lazyrc/internal/stats"
)

// TestEveryAppVerifiesUnderEveryProtocol is the central correctness gate:
// all seven workloads, at Tiny scale, must produce verified results under
// every protocol, leave the directories consistent, and drain
// every buffer.
func TestEveryAppVerifiesUnderEveryProtocol(t *testing.T) {
	for _, name := range Names() {
		for _, proto := range protocol.Names() {
			name, proto := name, proto
			t.Run(name+"/"+proto, func(t *testing.T) {
				t.Parallel()
				app, err := New(name, Tiny)
				if err != nil {
					t.Fatal(err)
				}
				cfg := config.Default(8)
				cfg.CheckInvariants = true
				m, err := Run(cfg, proto, app)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.CheckQuiescent(); err != nil {
					t.Fatal(err)
				}
				if m.Stats.ExecutionTime() == 0 {
					t.Fatal("zero execution time")
				}
				var refs uint64
				for i := range m.Stats.Procs {
					refs += m.Stats.Procs[i].Refs()
				}
				if refs == 0 {
					t.Fatal("no shared references issued")
				}
			})
		}
	}
}

// TestAppsUnderEvictionPressure re-runs the gate with caches shrunk to
// two lines' worth of data per app footprint — the regime the paper's
// evaluation uses — so eviction/invalidation/fill races get exercised.
func TestAppsUnderEvictionPressure(t *testing.T) {
	for _, name := range Names() {
		for _, proto := range protocol.Names() {
			name, proto := name, proto
			t.Run(name+"/"+proto, func(t *testing.T) {
				t.Parallel()
				app, err := New(name, Tiny)
				if err != nil {
					t.Fatal(err)
				}
				cfg := config.Default(8)
				cfg.CacheSize = 2 << 10 // sixteen 128-byte lines
				cfg.CheckInvariants = true
				m, err := Run(cfg, proto, app)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.CheckQuiescent(); err != nil {
					t.Fatal(err)
				}
				var evictions uint64
				for i := range m.Stats.Procs {
					evictions += m.Stats.Procs[i].Misses[stats.Eviction]
				}
				if evictions == 0 {
					t.Error("no eviction misses under a 2KB cache; pressure test ineffective")
				}
			})
		}
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 7 {
		t.Fatalf("registry has %d apps, want 7: %v", len(names), names)
	}
	if _, err := New("nosuch", Tiny); err == nil {
		t.Fatal("unknown app did not error")
	}
	for _, n := range names {
		app, err := New(n, Tiny)
		if err != nil {
			t.Fatal(err)
		}
		if app.Name() == "" {
			t.Fatalf("%s: empty Name()", n)
		}
	}
}

func TestScaleParsing(t *testing.T) {
	for _, s := range []Scale{Tiny, Small, Medium, Paper} {
		got, err := ParseScale(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseScale(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale did not error")
	}
}

func TestLCGDeterminism(t *testing.T) {
	a, b := lcg(42), lcg(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("lcg not deterministic")
		}
	}
	r := lcg(7)
	for i := 0; i < 1000; i++ {
		if f := r.f64(); f < 0 || f >= 1 {
			t.Fatalf("f64 out of range: %v", f)
		}
		if n := r.intn(10); n < 0 || n >= 10 {
			t.Fatalf("intn out of range: %v", n)
		}
	}
}

// TestAppsUnderFirstTouchPlacement: every workload must still verify
// when shared pages live at their first toucher instead of being
// interleaved (the §6 locality extension).
func TestAppsUnderFirstTouchPlacement(t *testing.T) {
	for _, name := range Names() {
		for _, proto := range []string{"erc", "lrc"} {
			name, proto := name, proto
			t.Run(name+"/"+proto, func(t *testing.T) {
				t.Parallel()
				app, err := New(name, Tiny)
				if err != nil {
					t.Fatal(err)
				}
				cfg := config.Default(8)
				cfg.FirstTouch = true
				cfg.CheckInvariants = true
				m, err := Run(cfg, proto, app)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.CheckQuiescent(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestQuantumInsensitivity validates the execution-driven run-ahead
// optimization: shrinking the local-time quantum (more faithful event
// interleaving, slower simulation) must not change a synchronized
// workload's results and must leave execution time within a few percent.
func TestQuantumInsensitivity(t *testing.T) {
	times := map[uint64]uint64{}
	for _, q := range []uint64{25, 200, 2000} {
		app, err := New("gauss", Tiny)
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.Default(8)
		cfg.Quantum = q
		m, err := Run(cfg, "lrc", app)
		if err != nil {
			t.Fatalf("quantum %d: %v", q, err)
		}
		times[q] = m.Stats.ExecutionTime()
	}
	base := float64(times[25])
	for q, tm := range times {
		if d := (float64(tm) - base) / base; d > 0.05 || d < -0.05 {
			t.Errorf("quantum %d: exec %d deviates %.1f%% from fine-grain %d",
				q, tm, 100*d, times[25])
		}
	}
}
