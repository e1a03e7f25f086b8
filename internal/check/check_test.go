package check

import (
	"strings"
	"testing"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/directory"
	"lazyrc/internal/machine"
	"lazyrc/internal/protocol"
)

var protocols = protocol.Names()

// TestCleanRunHasNoViolations audits a full workload under every protocol,
// both with periodic epoch audits and the strict quiescence audit: a
// correct protocol on a reliable fabric must produce zero violations.
func TestCleanRunHasNoViolations(t *testing.T) {
	for _, proto := range protocols {
		t.Run(proto, func(t *testing.T) {
			cfg := config.Default(8)
			m, err := machine.New(cfg, proto)
			if err != nil {
				t.Fatal(err)
			}
			app := apps.NewGauss(apps.Tiny)
			app.Setup(m)
			a := New(m)
			a.Start(2000)
			m.Run(app.Worker)
			if err := app.Verify(); err != nil {
				t.Fatal(err)
			}
			a.Final()
			// TestEpochCatchesMidRunCorruption shows a started auditor
			// audits at every epoch the run reaches.
			if m.Eng.Now() < 2*2000 {
				t.Fatalf("the run ended at cycle %d, before its second epoch audit", m.Eng.Now())
			}
			if err := a.Err(); err != nil {
				t.Fatalf("violations on a clean run:\n%v", err)
			}
		})
	}
}

// TestCatchesCorruptedDirectory corrupts one directory entry and verifies
// the auditor reports it, naming the invariant, home node, and block.
func TestCatchesCorruptedDirectory(t *testing.T) {
	cfg := config.Default(8)
	m, err := machine.New(cfg, "lrc")
	if err != nil {
		t.Fatal(err)
	}
	app := apps.NewGauss(apps.Tiny)
	app.Setup(m)
	m.Run(app.Worker)

	// Find a home with a directory entry and plant a writer that is not a
	// sharer — the classic corrupted-pointer failure.
	var homeID int
	var block uint64
	found := false
	for _, n := range m.Nodes {
		for _, r := range n.Dir.Entries() {
			for p := 0; p < cfg.Procs && !found; p++ {
				if !r.Sharers.Has(p) {
					r.Writers.Add(p)
					homeID, block, found = n.ID, r.Block, true
				}
			}
		}
	}
	if !found {
		t.Fatal("no corruptible directory entry found")
	}

	a := New(m)
	a.Final()
	if len(a.Violations()) == 0 {
		t.Fatal("auditor missed the corrupted directory entry")
	}
	v := a.Violations()[0]
	if v.Node != homeID || v.Block != block {
		t.Fatalf("violation names node %d block %d, corrupted node %d block %d", v.Node, v.Block, homeID, block)
	}
	if v.Invariant != "directory-structure" {
		t.Fatalf("violation invariant %q, want directory-structure", v.Invariant)
	}
	if !strings.Contains(v.String(), "writers not a subset of sharers") {
		t.Fatalf("violation lacks the structural detail: %s", v)
	}

	// Rewound, the machine has no entry and the auditor no record.
	m.Reset()
	a.Reset()
	if a.Final(); a.Err() != nil {
		t.Fatalf("violations on a rewound machine: %v", a.Err())
	}
}

// TestCatchesStateWrittenBehindTheCounts: a State written around
// Recompute leaves the per-state counts telemetry samples out of step with
// the entries. The audit names the entry's own broken structure
// first and the home's counts after it.
func TestCatchesStateWrittenBehindTheCounts(t *testing.T) {
	m, err := machine.New(config.Default(8), "erc")
	if err != nil {
		t.Fatal(err)
	}
	app := apps.NewGauss(apps.Tiny)
	app.Setup(m)
	m.Run(app.Worker)

	home := m.Nodes[0]
	first := home.Dir.Entries()[0]
	block, e := first.Block, first.Entry
	e.State = (e.State + 1) % 4

	a := New(m)
	a.Final()
	v := a.Violations()
	if len(v) < 2 || v[0].Invariant != "directory-structure" || v[0].Block != block ||
		v[1].Invariant != "dir-state-counts" || v[1].Node != home.ID || v[1].Block != NoBlock || !v[1].Final {
		t.Fatalf("violations = %v, want the entry's structure, then node %d's counts", v, home.ID)
	}
}

// TestFinalIsTheWholeQuiescenceAudit: Final covers what only
// Machine.CheckQuiescent used to — a tool that calls Final alone (lrcsim
// -check) rejects a lease whose write timestamp ran past its read lease.
func TestFinalIsTheWholeQuiescenceAudit(t *testing.T) {
	m, err := machine.New(config.Default(8), "tardis")
	if err != nil {
		t.Fatal(err)
	}
	app := apps.NewGauss(apps.Tiny)
	app.Setup(m)
	m.Run(app.Worker)
	clean := New(m)
	clean.Final()
	if err := clean.Err(); err != nil {
		t.Fatalf("violations on a clean run:\n%v", err)
	}

	doctored := false
	for _, n := range m.Nodes {
		n.Dir.VisitLeases(func(_ uint64, l *directory.Lease) {
			if !doctored {
				l.Wts, doctored = l.Rts+1, true
			}
		})
	}
	if !doctored {
		t.Fatal("a tardis run left no lease to doctor")
	}
	a := New(m)
	a.Final()
	if len(a.Violations()) != 1 {
		t.Fatalf("violations = %v, want the doctored lease alone", a.Violations())
	}
	if v := a.Violations()[0]; !v.Final || v.Node != NoNode || v.Invariant != "machine-quiescent" || !strings.Contains(v.String(), "lease wts") {
		t.Fatalf("unexpected violation: %s", v)
	}
}

// TestEpochCatchesMidRunCorruption corrupts an entry while the simulation
// is still running and verifies a periodic epoch audit flags it.
func TestEpochCatchesMidRunCorruption(t *testing.T) {
	cfg := config.Default(8)
	m, err := machine.New(cfg, "sc")
	if err != nil {
		t.Fatal(err)
	}
	app := apps.NewGauss(apps.Tiny)
	app.Setup(m)
	a := New(m)
	a.Start(500)
	m.Eng.At(5000, func() {
		// Invent a sharer set for a block nobody asked for: state
		// UNCACHED with a nonempty sharer set violates structure, and no
		// transaction is open on the block, so no busy gate hides it.
		e := m.Nodes[0].Dir.Entry(1 << 40)
		e.Sharers.Add(3)
	})
	m.Run(app.Worker)
	if len(a.Violations()) == 0 {
		t.Fatal("epoch audits missed mid-run corruption")
	}
	v := a.Violations()[0]
	if v.Final {
		t.Fatal("violation should come from an epoch audit, not the final audit")
	}
	if v.Node != 0 || v.Block != 1<<40 || v.Invariant != "directory-structure" {
		t.Fatalf("unexpected violation: %s", v)
	}
}
