package exp

import (
	"strings"
	"testing"

	"lazyrc/internal/apps"
)

func TestSpecNormalizeAndID(t *testing.T) {
	a := Spec{Targets: []string{"fig4", "fig4", "table2"}, Apps: []string{"fft", "gauss"}, Scale: "tiny", Procs: 4, Seed: 1}
	b := Spec{Targets: []string{"table2", "fig4"}, Apps: []string{"gauss", "fft", "fft"}, Scale: "tiny", Procs: 4, Seed: 1}
	if a.ID() != b.ID() {
		t.Fatalf("order/duplication changed the sweep identity:\n%s\n%s", a.ID(), b.ID())
	}
	if a.ID() == (Spec{Scale: "tiny", Procs: 4, Seed: 1}).ID() {
		t.Fatal("restricted and unrestricted sweeps share an identity")
	}

	n, err := (Spec{}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Scale != "small" || n.Procs != 64 || len(n.Targets) != 1 || n.Targets[0] != "all" || n.Apps != nil {
		t.Fatalf("zero spec normalized to %+v", n)
	}

	// "all" stays the paper's matrix — stored sweep IDs and the benchmark's
	// 70-job expansion depend on it — and absorbs the matrix targets named
	// beside it, but not a study.
	jobs, err := (Spec{Targets: []string{"all"}, Scale: "tiny"}).Jobs()
	if err != nil || len(jobs) != 70 {
		t.Fatalf(`"all" expands to %d jobs (%v), want the matrix's 70`, len(jobs), err)
	}
	n, err = (Spec{Targets: []string{"sweep", "all", "fig4"}}).Normalize()
	if err != nil || len(n.Targets) != 2 || n.Targets[0] != "all" || n.Targets[1] != "sweep" {
		t.Fatalf(`{sweep, all, fig4} normalized to %v (%v), want [all sweep]`, n.Targets, err)
	}

	// Naming every application is canonically the same as naming none.
	full := Spec{Apps: append([]string(nil), AppOrder...)}
	if full.ID() != (Spec{}).ID() {
		t.Fatal("full app list and empty app list normalize differently")
	}
}

func TestSpecRejectsUnknownNames(t *testing.T) {
	if _, err := (Spec{Targets: []string{"fig99"}}).Normalize(); err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("unknown target accepted: %v", err)
	}
	if _, err := (Spec{Apps: []string{"doom"}}).Normalize(); err == nil || !strings.Contains(err.Error(), "doom") {
		t.Fatalf("unknown app accepted: %v", err)
	}
	if _, err := (Spec{Scale: "galactic"}).Normalize(); err == nil {
		t.Fatal("unknown scale accepted")
	}
	// The machine envelope is checked with the names: what no cell could
	// be constructed on is refused, what the machine accepts (any
	// positive count lays out as a w×h mesh) is not.
	if _, err := (Spec{Procs: -3}).Normalize(); err == nil {
		t.Fatal("negative processor count accepted")
	}
	if _, err := (Spec{Procs: 3}).Normalize(); err != nil {
		t.Fatalf("3 processors (a 3×1 mesh every app runs on) refused: %v", err)
	}
}

func TestSpecJobsMatchPaperbenchFingerprints(t *testing.T) {
	// A submitted sweep must produce the same job fingerprints as a local
	// paperbench evaluation of the same shape — that equality is what lets
	// the service serve a paperbench-warmed store (and vice versa).
	spec := Spec{Targets: []string{"fig4"}, Apps: []string{"gauss", "fft"}, Scale: "tiny", Procs: 4, Seed: 7}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEvaluator(apps.Tiny, 4)
	e.Seed = 7
	n, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cells := TargetCells(n.Targets, n.Apps)
	if len(jobs) != len(cells) || len(jobs) == 0 {
		t.Fatalf("jobs = %d, cells = %d", len(jobs), len(cells))
	}
	for i, c := range cells {
		want := e.Job(c[0], c[1], c[2]).Fingerprint()
		if got := jobs[i].Fingerprint(); got != want {
			t.Fatalf("cell %v: spec fingerprint %s != evaluator fingerprint %s", c, got, want)
		}
	}
}

func TestTargetCellsForSubsetsApps(t *testing.T) {
	all := TargetCells([]string{"fig4"}, nil)
	sub := TargetCells([]string{"fig4"}, []string{"gauss"})
	if len(sub) >= len(all) || len(sub) == 0 {
		t.Fatalf("subset sizes: sub=%d all=%d", len(sub), len(all))
	}
	for _, c := range sub {
		if c[1] != "gauss" {
			t.Fatalf("leaked app %q into restricted expansion", c[1])
		}
	}
}
