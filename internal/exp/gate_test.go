package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func gateReport(execCycles uint64, falseSharePct float64) Report {
	return Report{
		Scale: "tiny",
		Procs: 8,
		Runs: []ReportRun{{
			Config: "default", App: "gauss", Protocol: "lrc",
			ExecCycles: execCycles,
			CPUCycles:  execCycles / 2, ReadCycles: execCycles / 4,
			WriteCycles: execCycles / 8, SyncCycles: execCycles / 8,
			MissRatePct: 1.25,
			MissShares: map[string]float64{
				"cold": 50, "true": 25, "false": falseSharePct, "eviction": 25 - falseSharePct,
			},
			NetworkMsgs: 1000, NetworkBytes: 64000,
			Verified: true,
		}},
	}
}

// TestGateToleranceBoundary pins the gate's boundary: the comparison is
// exact, so equal counts pass and a drift of one cycle either way fails,
// worded as old -> new with its percent change.
func TestGateToleranceBoundary(t *testing.T) {
	base := gateReport(1000, 0)
	if v := Gate(base, gateReport(1000, 0)); len(v) != 0 {
		t.Fatalf("identical report failed the gate: %v", v)
	}
	over := gateReport(1000, 0)
	over.Runs[0].ExecCycles = 1001
	if v := Gate(base, over); len(v) != 1 || !strings.Contains(v[0], "exec_cycles 1000 -> 1001 (+0.100%)") {
		t.Fatalf("one-cycle drift: %v", v)
	}
	// Shrinkage is drift too (a perf win still needs a baseline
	// regeneration to become the new reference).
	under := gateReport(1000, 0)
	under.Runs[0].ExecCycles = 999
	if v := Gate(base, under); len(v) != 1 || !strings.Contains(v[0], "exec_cycles 1000 -> 999 (-0.100%)") {
		t.Fatalf("one-cycle shrinkage: %v", v)
	}
}

func TestGateZeroBaselineAdmitsOnlyZero(t *testing.T) {
	base := gateReport(1000, 0)
	base.Runs[0].SyncCycles = 0
	fresh := gateReport(1000, 0)
	fresh.Runs[0].SyncCycles = 1
	if v := Gate(base, fresh); len(v) != 1 || !strings.Contains(v[0], "sync_cycles 0 -> 1") {
		t.Fatalf("0 -> 1 cycles: %v", v)
	}
}

func TestGateMissClassificationIgnoresTolerance(t *testing.T) {
	base := gateReport(1000, 10)
	shifted := gateReport(1000, 11) // same cycles, one tally moved
	v := Gate(base, shifted)
	if len(v) == 0 {
		t.Fatal("changed miss classification passed the gate")
	}
	for _, s := range v {
		if !strings.Contains(s, "miss share") {
			t.Fatalf("unexpected violation: %s", s)
		}
	}
}

func TestGateRunSetMustMatch(t *testing.T) {
	base := gateReport(1000, 0)
	missing := gateReport(1000, 0)
	missing.Runs = nil
	if v := Gate(base, missing); len(v) == 0 {
		t.Fatal("missing run passed the gate")
	}
	extra := gateReport(1000, 0)
	extra.Runs = append(extra.Runs, ReportRun{Config: "default", App: "fft", Protocol: "sc"})
	if v := Gate(base, extra); len(v) == 0 {
		t.Fatal("extra run passed the gate")
	}
	point := gateReport(1000, 0)
	point.Procs = 16
	if v := Gate(base, point); len(v) == 0 {
		t.Fatal("changed machine size passed the gate")
	}
}

func TestGateVerificationRegression(t *testing.T) {
	base := gateReport(1000, 0)
	broken := gateReport(1000, 0)
	broken.Runs[0].Verified = false
	broken.Runs[0].Error = "gauss: cell mismatch"
	if v := Gate(base, broken); len(v) == 0 {
		t.Fatal("verification regression passed the gate")
	}
}

func TestLoadReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	rep := gateReport(1234, 5)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteReportJSON(f, rep.Stable()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := Gate(rep, got); len(v) != 0 {
		t.Fatalf("report changed across the JSON round trip: %v", v)
	}
	if _, err := LoadReport(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing baseline did not error")
	}
}

// TestGateDigests: a digest that differs is a violation, a digest the
// baseline carries and the fresh run lost is one too (an observer dropped
// from the run must not pass on empty strings), and a baseline that
// predates a digest still gates on the scalars alone.
func TestGateDigests(t *testing.T) {
	withDigests := func(metrics, span, mem string) Report {
		r := gateReport(1000, 0)
		r.Runs[0].MetricsDigest, r.Runs[0].SpanDigest, r.Runs[0].MemDigest = metrics, span, mem
		return r
	}
	const metrics, mem = "3f7a90c1d2e4b5a6978812345678", "b1946ac92492d2347c6235b4d261"
	base := withDigests(metrics, "1611295-9c0f3a5577aa01fe", mem)
	if v := Gate(base, base); len(v) != 0 {
		t.Fatalf("identical digests failed the gate: %v", v)
	}
	if v := Gate(gateReport(1000, 0), base); len(v) != 0 {
		t.Fatalf("a baseline without digests failed a fresh run that has them: %v", v)
	}

	v := Gate(base, gateReport(1000, 0))
	if len(v) != 3 {
		t.Fatalf("a fresh run that lost all three digests: %d violations, want 3: %v", len(v), v)
	}
	for i, name := range []string{"metrics", "span", "memory"} {
		if !strings.Contains(v[i], name+" digest missing from the fresh run") {
			t.Errorf("violation %d = %q, want the lost %s digest", i, v[i], name)
		}
	}

	for _, tc := range []struct {
		name  string
		fresh Report
		want  []string
	}{
		{"metrics", withDigests("00"+metrics[2:], base.Runs[0].SpanDigest, mem),
			[]string{"metrics digest changed: 3f7a90c1d2e4 -> 007a90c1d2e4"}},
		{"memory", withDigests(metrics, base.Runs[0].SpanDigest, "00"+mem[2:]),
			[]string{"memory digest changed: b1946ac92492 -> 00946ac92492"}},
		{"span hash", withDigests(metrics, "1611295-9c0f3a5577aa01ff", mem),
			[]string{"1611295 spans, hash 9c0f3a5577aa01fe -> 9c0f3a5577aa01ff", "stamps or causes moved"}},
		{"span count", withDigests(metrics, "1611297-0123456789abcdef", mem),
			[]string{"spans 1611295 -> 1611297", "hash 9c0f3a5577aa01fe -> 0123456789abcdef", "appeared or vanished"}},
	} {
		v := Gate(base, tc.fresh)
		if len(v) != 1 {
			t.Fatalf("%s: %d violations, want 1: %v", tc.name, len(v), v)
		}
		for _, want := range tc.want {
			if !strings.Contains(v[0], want) {
				t.Errorf("%s: violation %q lacks %q", tc.name, v[0], want)
			}
		}
	}
}

// TestGateAnswer: the answer vector is compared exactly wherever the
// baseline carries one; a baseline without one
// gates on the scalars alone.
func TestGateAnswer(t *testing.T) {
	withAnswer := func(answer ...float64) Report {
		r := gateReport(1000, 0)
		r.Runs[0].Answer = answer
		return r
	}
	base := withAnswer(113.40002, -31.93188)
	if v := Gate(base, withAnswer(113.40002, -31.93188)); len(v) != 0 {
		t.Fatalf("an identical answer failed the gate: %v", v)
	}
	if v := Gate(gateReport(1000, 0), base); len(v) != 0 {
		t.Fatalf("a baseline without an answer failed a fresh run that has one: %v", v)
	}
	for _, fresh := range []Report{withAnswer(113.40002, -31.931880000001), withAnswer(113.40002), gateReport(1000, 0)} {
		if v := Gate(base, fresh); len(v) != 1 || !strings.Contains(v[0], "answer changed: [113.40002 -31.93188] -> ") {
			t.Errorf("answer %v against %v: %v", fresh.Runs[0].Answer, base.Runs[0].Answer, v)
		}
	}
}
