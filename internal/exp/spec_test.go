package exp

import (
	"encoding/json"
	"reflect"
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
	// 56-job expansion depend on it — and absorbs the matrix targets named
	// beside it, but not a study.
	jobs, err := (Spec{Targets: []string{"all"}, Scale: "tiny"}).Jobs()
	if err != nil || len(jobs) != 56 {
		t.Fatalf(`"all" expands to %d jobs (%v), want the matrix's 56`, len(jobs), err)
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

// TestCellTargets: a cell key is a target. It normalises, expands to the
// one cell it names — the job Evaluator.Job builds, so it shares stored
// results with every table that reads the cell — and is refused, by
// name, when any element of it is unknown. Specs without cell keys keep
// the identity they had before cell keys existed.
func TestCellTargets(t *testing.T) {
	spec := Spec{Targets: []string{"default/gauss/lrc"}, Scale: "tiny", Procs: 4, Seed: 7}
	n, e, cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Targets) != 1 || n.Targets[0] != "default/gauss/lrc" || len(cells) != 1 || cells[0] != [3]string{"default", "gauss", "lrc"} {
		t.Fatalf("normalized to %v, expanded to %v", n.Targets, cells)
	}
	jobs, err := spec.Jobs()
	if err != nil || len(jobs) != 1 {
		t.Fatalf("jobs: %v, %v", jobs, err)
	}
	if want := e.Job("default", "gauss", "lrc").Fingerprint(); jobs[0].Fingerprint() != want {
		t.Fatalf("cell target fingerprint %s, evaluator's %s", jobs[0].Fingerprint(), want)
	}
	// Beside a table that reads the cell it adds nothing; a study row is
	// a cell like any other; "all" does not absorb a cell.
	if got := TargetCells([]string{"fig4", "default/gauss/lrc"}, nil); len(got) != 21 {
		t.Fatalf("fig4 plus one of its cells expands to %d cells, want 21", len(got))
	}
	n, err = Spec{Targets: []string{"line=256/mp3d/erc", "all", "fig4", "line=256/mp3d/erc"}}.Normalize()
	if err != nil || len(n.Targets) != 2 || n.Targets[0] != "all" || n.Targets[1] != "line=256/mp3d/erc" {
		t.Fatalf("normalized to %v (%v), want [all line=256/mp3d/erc]", n.Targets, err)
	}
	if (Spec{Targets: []string{"default/gauss/lrc"}}).ID() == (Spec{Targets: []string{"default/gauss/erc"}}).ID() {
		t.Fatal("two cells share a sweep identity")
	}

	for _, bad := range []string{"line=256/gauss/warp", "nosuch/gauss/lrc", "default/doom/lrc", "/gauss/lrc", "a/b", "a/b/c/d"} {
		if _, err := (Spec{Targets: []string{"fig4", bad}}).Normalize(); err == nil || !strings.Contains(err.Error(), `"`+bad+`"`) {
			t.Errorf("target %q: %v, want a refusal naming it", bad, err)
		}
	}

	// Stored sweep registries key on the ID, so new targets (table1 and
	// mp3dquality joining the table) must not move a spec that validated
	// before them.
	for want, spec := range map[string]Spec{
		"b8f5866b036c5cb10eb0b06dc5ca8f98cedea6fbe89b214cf965db5330ee2d01": {Targets: []string{"fig4", "fig6"}, Scale: "tiny", Procs: 64, Seed: 1},
		"cae2545e4fc1a367608d69c1179b950a7b1f4b81345bdd01dfd7e8c914884621": {},
		"bdd3ed059f36f1964de7b56dbe9a48fe854d301091e97a440d2b56628a96745d": {Targets: []string{"all"}, Scale: "tiny", Procs: 4, Seed: 1},
		"adefca2f69dd36243d673f44478a40f7d54bb8aa0347f1699ea4848378689f5b": {Targets: []string{"all", "sweep"}, Scale: "tiny", Procs: 4, Seed: 1},
		"5512cc25ecc20251cfd451f257cefa460c1da09d54f1ffbf2cef2004fd0a5cc4": {Targets: []string{"sweep", "ablate", "dsm", "scaling"}, Scale: "tiny", Procs: 64, Seed: 1},
		"af8e87a072b45c6d0649133138638cedeb24b56cdf365543305bf54bf6fcbcab": {Targets: []string{"chaos"}, Scale: "tiny", Procs: 16, Seed: 1},
		"b62247c7e50f2154f9cf93a08c051f4ba20d723c20de5379322be646f46c185d": {Targets: []string{"fig4"}, Apps: []string{"gauss"}, Scale: "tiny", Procs: 4, Seed: 1},
		"833b538dd4427243ff6f50eb3da524758a4c0592bb9aa28accbbe7921c511e06": {Targets: []string{"default/gauss/lrc"}, Scale: "tiny", Procs: 4, Seed: 1},
	} {
		if id := spec.ID(); id != want {
			t.Errorf("the ID of %+v moved to %s: stored sweep registries key on it", spec, id)
		}
	}
}

// FuzzSpecNormalize: a spec arrives as bytes from outside the program
// (POST /api/v1/sweeps, the store's sweep registry). Whatever decodes,
// Normalize must not panic on; what it accepts it must leave alone the
// second time, under the same ID, and every cell of the expansion must be
// one CellConfig can build.
func FuzzSpecNormalize(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"targets":["fig4","fig6"],"scale":"tiny","procs":64,"seed":1}`,
		`{"targets":["default/gauss/lrc"],"scale":"tiny","procs":4,"seed":7}`,
		`{"targets":["all","sweep","fig4","fig4","line=256/mp3d/erc","procs=4/blu/lrc"],"apps":["fft","fft","gauss"]}`,
		`{"targets":["chaos","storm/fft/tardis"],"apps":["barnes-hut","blu","cholesky","fft","gauss","locusroute","mp3d"]}`,
		`{"targets":["a/b","//","/gauss/lrc","default/gauss/lrc/"],"procs":-3}`,
		`{"targets":["fig4"],"scale":"galactic"}`,
		`{"targets":["fig4"],"scale":"tiny","procs":9223372036854775807,"seed":18446744073709551615}`,
		`{"targets":[""],"apps":[""]}`,
		`[1,2`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		n, err := spec.Normalize()
		if err != nil {
			return
		}
		again, err := n.Normalize()
		if err != nil || !reflect.DeepEqual(n, again) {
			t.Fatalf("Normalize is not idempotent: %+v -> %+v (%v)", n, again, err)
		}
		if spec.ID() != n.ID() {
			t.Fatalf("ID moved under Normalize: %+v", spec)
		}
		_, e, cells, err := spec.Expand()
		if err != nil {
			t.Fatalf("Normalize accepted what Expand refuses: %v", err)
		}
		for _, c := range cells {
			if _, err := CellConfig(c[0], e.Procs, e.Scale, e.Seed); err != nil {
				t.Fatalf("cell %v of %+v: %v", c, n, err)
			}
		}
	})
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
	// A machine too large to lay out, let alone build, is refused before
	// anything is (FuzzSpecNormalize found the mesh layout of 2^63-1
	// processors taking minutes).
	if _, err := (Spec{Procs: 1 << 40}).Normalize(); err == nil {
		t.Fatal("a 2^40-processor machine accepted")
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
