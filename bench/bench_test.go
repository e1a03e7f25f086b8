package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload in smoke form, untraced and traced, and
// holds what it prints to what BENCHMARK.json declares: the benchmark must
// keep running, and the two must not drift apart.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := loadDeclared(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, decl.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			o := options{workload: w.name, seed: 1, smoke: true, trace: trace, dir: t.TempDir()}
			res, err := runWorkload(root, o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics printed, %d declared", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: %s is declared and not printed", w.name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s is not finite", w.name, d.Name)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", w.name, d.Name, m.Value)
				}
			}
			if trace {
				if fi, err := os.Stat(filepath.Join(o.dir, w.name+".spans.jsonl")); err != nil || fi.Size() == 0 {
					t.Errorf("%s: the traced pass wrote no spans: %v", w.name, err)
				}
			}
		}
	}
}

// TestDeclaration holds BENCHMARK.json to the limits the driver enforces.
func TestDeclaration(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(keys))
	}
	decl, err := loadDeclared(root)
	if err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1..60", decl.RunSeconds)
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not allowed", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range decl.Workloads {
		use(w.Name)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	setup := false
	for _, m := range append(append([]declaredMetric(nil), decl.EndToEnd...), decl.PerLayer...) {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not allowed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(v, n=4), which the acceptance spread is defined by.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{2.1, 2.4, 2.2, 2.9, 2.0, 2.3, 2.2}, 2.1, 2.4},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// TestSelfTimes: a span's self time is its duration minus the union of its
// children, overlapping children count once, async spans not at all.
func TestSelfTimes(t *testing.T) {
	tr := newTracer("w")
	tr.spans = []span{
		{ID: 1, Parent: 0, Name: "rep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 70}, // overlaps a by 10
		{ID: 4, Parent: 2, Name: "c", Start: 20, End: 30},
		{ID: 5, Parent: 1, Name: "job", Start: 0, End: 100, Async: true},
	}
	got := tr.selfTimes()
	want := map[string]int64{"rep": 40, "a": 30, "b": 30, "c": 10}
	if len(got) != len(want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s is %d, want %d", k, got[k], v)
		}
	}
}

// TestCompare: the three verdicts, and the exit status they give.
func TestCompare(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, walls ...float64) string {
		path := filepath.Join(dir, name)
		for i, w := range walls {
			res := &result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"wall_s": {w, "s"}}}
			if err := appendRecord(path, record{"cell_bare", uint64(i + 1), false, res}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a", 1.00, 1.01, 0.99, 1.02, 1.00)
	if err := compareFiles(root, base, write("same", 1.01, 1.00, 1.02, 0.99, 1.03)); err != nil {
		t.Errorf("two steady sets that agree: %v", err)
	}
	if err := compareFiles(root, base, write("slow", 1.50, 1.52, 1.49, 1.51, 1.50)); err == nil {
		t.Error("a set half as fast again was not called worse")
	}
	if err := compareFiles(root, base, write("noisy", 0.9, 1.4, 1.5, 1.0, 2.2)); err != nil {
		t.Errorf("a set too noisy to tell should be unresolved, not worse: %v", err)
	}
}
