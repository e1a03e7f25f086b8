package exp

import (
	"os"
	"strings"
	"testing"

	"lazyrc/internal/runner"
)

// claimsReport is a hand-built report of every cell the claims read, on
// which every claim holds: lazy misses less than eager everywhere, the
// lazier protocol is slower everywhere but fft, the relaxed protocols never
// stall on a write, each longer line lowers locusroute's lazy/eager ratio,
// mp3d's lazy answer moves 5 % on X and 0.02 % on Y, and every storm run
// ends in its fault-free memory image.
func claimsReport() Report {
	rep := Report{Scale: "tiny", Procs: 4}
	lines := map[string]uint64{"line=64": 1100, "line=128": 950, "line=256": 850}
	for _, c := range TargetCells([]string{"claims"}, nil) {
		r := ReportRun{Config: c[0], App: c[1], Protocol: c[2], Verified: true, MemDigest: "m",
			ExecCycles: 1000, CPUCycles: 1000, MissRatePct: 10}
		switch {
		case c[0] == "track-values" && c[2] == "sc":
			r.Answer = []float64{100, 50}
		case c[0] == "track-values":
			r.Answer = []float64{105, 50.01}
		case c[2] == "lrc" && lines[c[0]] > 0:
			r.ExecCycles = lines[c[0]]
		case c[2] == "sc":
			r.WriteCycles = 500
		case c[2] == "lrc":
			r.ExecCycles, r.MissRatePct = 900, 9
		case c[2] == "lrc-ext" && c[1] == "fft":
			r.ExecCycles = 850
		case c[2] == "lrc-ext":
			r.ExecCycles = 950
		}
		rep.Runs = append(rep.Runs, r)
	}
	return rep
}

// TestClaimVerdicts moves each claim of a hand-built report through
// every verdict it can reach: a count or magnitude off with the sign kept
// reads "holds in direction", a sign reversed reads "deviates".
func TestClaimVerdicts(t *testing.T) {
	set := func(field func(*ReportRun), keys ...string) func(*View) {
		return func(v *View) {
			for _, k := range keys {
				field(v.runs[k])
			}
		}
	}
	every := func(variant, proto string) []string {
		var keys []string
		for _, app := range AppOrder {
			keys = append(keys, cellKey(variant, app, proto))
		}
		return keys
	}
	for _, tc := range []struct {
		claim   int
		doctor  func(*View)
		verdict string
	}{
		{0, nil, "holds"},
		{0, set(func(r *ReportRun) { r.MissRatePct = 10.01 }, "default/fft/lrc"), "holds in direction"},
		{0, set(func(r *ReportRun) { r.MissRatePct = 11 }, every("default", "lrc")...), "deviates"},
		{1, nil, "holds"},
		{1, set(func(r *ReportRun) { r.ExecCycles = 950 }, "default/fft/lrc-ext"), "holds in direction"},
		{1, set(func(r *ReportRun) { r.ExecCycles = 800 }, every("default", "lrc-ext")...), "deviates"},
		{2, nil, "holds"},
		{2, set(func(r *ReportRun) { r.WriteCycles = 10 }, "default/gauss/erc"), "holds in direction"},
		{2, set(func(r *ReportRun) { r.WriteCycles = 600 }, append(every("default", "erc"), every("default", "lrc")...)...), "deviates"},
		{3, nil, "holds"},
		{3, set(func(r *ReportRun) { r.ExecCycles = 1200 }, "line=128/locusroute/lrc"), "holds in direction"},
		{3, set(func(r *ReportRun) { r.ExecCycles = 1200 }, "line=256/locusroute/lrc"), "deviates"},
		{4, nil, "holds"},
		{4, set(func(r *ReportRun) { r.Answer[1] = 60 }, "track-values/mp3d/lrc"), "holds in direction"},
		{4, set(func(r *ReportRun) { r.Answer[0] = 100 }, "track-values/mp3d/lrc"), "deviates"},
		{5, nil, "holds"},
		{5, set(func(r *ReportRun) { r.MemDigest = "x" }, "storm/fft/lrc"), "deviates"},
	} {
		v := claimsReport().View()
		if tc.doctor != nil {
			tc.doctor(v)
		}
		out, err := Render("claims", v)
		if err != nil {
			t.Fatal(err)
		}
		rows := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if len(rows) != 2+len(claims) {
			t.Fatalf("%d rows, want a header and %d claims:\n%s", len(rows), len(claims), out)
		}
		row := rows[2+tc.claim]
		if !strings.HasPrefix(row, "| "+claims[tc.claim].title+" |") || !strings.HasSuffix(row, "| "+tc.verdict+" |") {
			t.Errorf("claim %d reads %q, want %q", tc.claim, row, tc.verdict)
		}
	}
}

// TestClaimsNameAMissingCell: a report lacking any one cell a claim reads
// renders no verdict at all, only an error naming that cell.
func TestClaimsNameAMissingCell(t *testing.T) {
	for _, c := range claims {
		b := c
		if b.apps == nil {
			b.apps = AppOrder
		}
		lost := cellKey(b.points[len(b.points)-1].variant, b.apps[len(b.apps)-1], b.protos[len(b.protos)-1])
		var short Report
		for _, r := range claimsReport().Runs {
			if cellKey(r.Config, r.App, r.Protocol) != lost {
				short.Runs = append(short.Runs, r)
			}
		}
		if out, err := Render("claims", short.View()); err == nil || out != "" || !strings.Contains(err.Error(), lost) {
			t.Errorf("claims without %s: %v\n%s", lost, err, out)
		}
	}
}

// TestClaimsRenderGolden evaluates the claims' cells afresh at tiny
// scale on 4 processors and seed 1 and compares the rendering with
// testdata/paperbench_tiny_claims.golden (= `paperbench -scale tiny -procs
// 4 -q claims`, less the blank line Println adds).
func TestClaimsRenderGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	e := evaluatorOn(runner.New(2, nil))
	e.Seed = 1
	e.Prefetch(TargetCells([]string{"claims"}, nil))
	rep := e.Report()
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/paperbench_tiny_claims.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Render("claims", rep.View()); err != nil || got != string(want) {
		t.Fatalf("claims at tiny/4p drifted from testdata/paperbench_tiny_claims.golden (%v):\n%s", err, got)
	}
}
