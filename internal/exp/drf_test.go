package exp

import (
	"fmt"
	"testing"

	"lazyrc/internal/apps"
	"lazyrc/internal/machine"
	"lazyrc/internal/protocol"
)

// runCell runs app under proto on the default tiny/16p cell, with the
// named mutation and optionally a value store attached. A panic out of
// the run (a workload following a stale pointer) is an error like a
// failed Verify.
func runCell(app, proto, mutation string, track bool) (m *machine.Machine, err error) {
	cfg := mustCell("default", 16, apps.Tiny, 1)
	cfg.Mutation = mutation
	a, err := apps.New(app, apps.Tiny)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	var attach []func(*machine.Machine)
	if track {
		attach = append(attach, (*machine.Machine).TrackValues)
	}
	return apps.Run(cfg, proto, a, attach...)
}

// TestDRFWorkloadsReadNoStaleValue is the DRF oracle on the workloads: a
// data-race-free program reads no stale copy under release consistency,
// so with each load returning what the protocol delivered (TrackValues)
// the run equals the untracked one — Verify passes, and the memory image
// and the execution time are the same. mp3d and locusroute race by design
// (§4.2) and are left out. With the acquire-time invalidations or the
// lease renewals skipped, the stale reads break Verify.
func TestDRFWorkloadsReadNoStaleValue(t *testing.T) {
	for _, app := range []string{"barnes-hut", "blu", "cholesky", "fft", "gauss"} {
		for _, proto := range protocol.Names() {
			t.Run(app+"/"+proto, func(t *testing.T) {
				t.Parallel()
				plain, err := runCell(app, proto, "", false)
				if err != nil {
					t.Fatal(err)
				}
				tracked, err := runCell(app, proto, "", true)
				if err != nil {
					t.Fatalf("values tracked: %v", err)
				}
				if a, b := plain.MemDigest(), tracked.MemDigest(); a != b {
					t.Errorf("memory digest %s untracked, %s tracked", a, b)
				}
				if a, b := plain.Stats.ExecutionTime(), tracked.Stats.ExecutionTime(); a != b {
					t.Errorf("execution time %d untracked, %d tracked", a, b)
				}
			})
		}
	}
	for _, app := range []string{"barnes-hut", "blu", "gauss"} {
		for _, c := range []struct{ proto, mutation string }{
			{"lrc", "skip-acquire-inval"},
			{"lrc-ext", "skip-acquire-inval"},
			{"tardis", "skip-lease-renewal"},
		} {
			t.Run(app+"/"+c.proto+"/"+c.mutation, func(t *testing.T) {
				t.Parallel()
				if _, err := runCell(app, c.proto, c.mutation, true); err == nil {
					t.Error("the mutant's stale reads passed Verify")
				}
			})
		}
	}
}
