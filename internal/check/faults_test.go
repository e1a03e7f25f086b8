package check

import (
	"bytes"
	"testing"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/machine"
)

// TestFaultInjectionAcceptance is the chaos-harness acceptance run: under
// a seeded delay+duplication fault plan, every protocol must complete
// gauss and fft at 16 processors with zero invariant violations and a
// final shared memory bit-identical to a fault-free sequentially
// consistent golden run.
func TestFaultInjectionAcceptance(t *testing.T) {
	const plan = "delay=0.05:1:64,dup=0.03:32,reorder=0.02:48"
	newApp := map[string]func() apps.App{
		"gauss": func() apps.App { return apps.NewGauss(apps.Tiny) },
		"fft":   func() apps.App { return apps.NewFFT(apps.Tiny) },
	}
	for name, mk := range newApp {
		t.Run(name, func(t *testing.T) {
			// Fault-free SC golden run.
			golden := runOne(t, mk(), config.Default(16), "sc", false)

			for _, proto := range protocols {
				t.Run(proto, func(t *testing.T) {
					cfg := config.Default(16)
					cfg.Seed = 1
					cfg.FaultPlan = plan
					final := runOne(t, mk(), cfg, proto, true)
					if !bytes.Equal(final, golden) {
						t.Fatalf("%s/%s final memory differs from fault-free SC golden", name, proto)
					}
				})
			}
		})
	}
}

// runOne runs app on a fresh machine under proto, auditing throughout,
// and returns the final shared-memory image.
func runOne(t *testing.T, app apps.App, cfg config.Config, proto string, expectFaults bool) []byte {
	t.Helper()
	m, err := machine.New(cfg, proto)
	if err != nil {
		t.Fatal(err)
	}
	app.Setup(m)
	a := New(m)
	a.Start(2000)
	m.Run(app.Worker)
	if err := app.Verify(); err != nil {
		t.Fatalf("%s under faults: %v", proto, err)
	}
	a.Final()
	if err := a.Err(); err != nil {
		t.Fatalf("invariant violations under %s:\n%v", proto, err)
	}
	if expectFaults {
		reordered, delayed, duped, dropped := m.Net.FaultStats()
		if delayed == 0 || duped == 0 {
			t.Fatalf("fault plan did not engage: %d reordered, %d delayed, %d duped, %d dropped",
				reordered, delayed, duped, dropped)
		}
		var ignored uint64
		for _, n := range m.Nodes {
			ignored += n.DuplicatesIgnored()
		}
		if ignored == 0 {
			t.Fatal("duplicates were injected but none were deduplicated at delivery")
		}
		t.Logf("%s: %s, %d duplicate deliveries ignored", proto, m.Net.FaultSummary(), ignored)
	}
	return m.SnapshotData()
}
