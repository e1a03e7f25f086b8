package exp

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/runner"
	"lazyrc/internal/store"
)

func tinyEvaluator() *Evaluator { return NewEvaluator(apps.Tiny, 8) }

// evaluatorOn is a tiny 4-processor evaluator executing through rn.
func evaluatorOn(rn *runner.Runner) *Evaluator {
	e := NewEvaluator(apps.Tiny, 4)
	e.R = rn
	return e
}

// TestEvaluatorMemoizes: a cell prefetched twice, and twice in one call,
// runs once and is one run of the report.
func TestEvaluatorMemoizes(t *testing.T) {
	e := tinyEvaluator()
	cell := [3]string{"default", "gauss", "sc"}
	e.Prefetch([][3]string{cell, cell})
	e.Prefetch([][3]string{cell})
	rep := e.Report()
	if len(rep.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(rep.Runs))
	}
	if m := e.R.Meta(); m.Simulated != 1 {
		t.Fatalf("identical cell simulated %d times instead of memoizing", m.Simulated)
	}
	if rep.Runs[0].ExecCycles == 0 {
		t.Fatal("zero execution time")
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchFillsTheMemo: after Prefetch, reading the prefetched cells
// (assembling the report and its view) must not go back to the runner —
// the counting Emit sees exactly one queued event per cell, from the
// prefetch itself.
func TestPrefetchFillsTheMemo(t *testing.T) {
	cells := TargetCells([]string{"table3"}, []string{"gauss"})
	var mu sync.Mutex
	queued := 0
	rn := runner.New(2, nil)
	rn.Emit = func(ev runner.Event) {
		if ev.Kind == runner.EventQueued {
			mu.Lock()
			queued++
			mu.Unlock()
		}
	}
	e := evaluatorOn(rn)
	e.Prefetch(cells)
	rep := e.Report()
	v := rep.View()
	for _, c := range cells {
		if r, ok := v.Run(c[0], c[1], c[2]); !ok || r.ExecCycles == 0 {
			t.Fatalf("cell %v: zero execution time", c)
		}
	}
	if len(rep.Runs) != len(cells) {
		t.Fatalf("report has %d runs, want %d", len(rep.Runs), len(cells))
	}
	if queued != len(cells) {
		t.Fatalf("runner saw %d submissions for %d prefetched cells", queued, len(cells))
	}
}

func TestNormalizedBaselineIsOne(t *testing.T) {
	e := tinyEvaluator()
	e.Prefetch([][3]string{{"default", "fft", "sc"}, {"default", "fft", "lrc"}})
	v := e.Report().View()
	if got := v.Normalized("default", "fft", "sc"); got != 1.0 {
		t.Fatalf("sc normalized to itself = %v, want 1", got)
	}
	lrc := v.Normalized("default", "fft", "lrc")
	if lrc <= 0 || lrc > 1.5 {
		t.Fatalf("lrc normalized time = %v, implausible", lrc)
	}
}

func TestOverheadSharesSumNearTotal(t *testing.T) {
	e := tinyEvaluator()
	e.Prefetch([][3]string{{"default", "gauss", "sc"}})
	v := e.Report().View()
	cpu, rd, wr, sy, ok := v.OverheadShares("default", "gauss", "sc")
	if !ok {
		t.Fatal("no SC run to normalise to")
	}
	if _, _, _, _, ok := v.OverheadShares("future", "gauss", "sc"); ok {
		t.Fatal("shares reported against an SC run the report lacks")
	}
	total := cpu + rd + wr + sy
	// SC's own shares must sum to exactly 1 (they are its total).
	if total < 0.999 || total > 1.001 {
		t.Fatalf("sc shares sum to %v, want 1.0", total)
	}
}

func TestCacheForScale(t *testing.T) {
	if CacheForScale(apps.Paper) != 128<<10 {
		t.Fatal("paper scale must use the Table 1 cache")
	}
	if CacheForScale(apps.Tiny) >= CacheForScale(apps.Small) ||
		CacheForScale(apps.Small) >= CacheForScale(apps.Medium) {
		t.Fatal("cache sizes must grow with scale")
	}
}

// TestTable1Rendering: Table 1 renders from a report that carries no
// run — the constants of the report's default machine.
func TestTable1Rendering(t *testing.T) {
	out, err := Render("table1", Report{Scale: "tiny", Procs: 64}.View())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"128 bytes", "128 Kbytes", "20 cycles", "25 cycles", "15 cycles"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestTableAndFigureRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 8-proc tiny matrix")
	}
	e := tinyEvaluator()
	targets := []string{"table2", "table3", "fig4", "fig5", "fig6", "fig7"}
	e.Prefetch(TargetCells(targets, nil))
	rep := e.Report()
	out := renderAll(t, rep, targets)
	for _, app := range AppOrder {
		if !strings.Contains(out, app) {
			t.Errorf("rendered tables missing %s", app)
		}
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestSweepsAreWellFormed(t *testing.T) {
	if len(sweeps) != 3 {
		t.Fatalf("sweeps = %d, want 3 (latency, bandwidth, line size)", len(sweeps))
	}
	for _, sw := range sweeps {
		if len(sw.points) < 2 {
			t.Errorf("%s: fewer than 2 points", sw.title)
		}
	}
	if q := quality[0]; len(q.points) != 1 || len(q.protos) != 2 {
		t.Errorf("§4.2 reads %d points under %v, want one under two protocols", len(q.points), q.protos)
	}
	for _, sw := range append(slices.Clone(sweeps), quality...) { // §4.2 keeps §4.3's cache
		for _, p := range sw.points {
			cfg := studyCell(t, sw, p)
			if cfg.CacheSize != config.Default(4).CacheSize {
				t.Errorf("%s: %s runs a %d-byte cache, want the paper's", sw.title, p.variant, cfg.CacheSize)
			}
		}
	}
}

func TestAblationsAreWellFormed(t *testing.T) {
	for _, study := range [][]block{ablations, dsmContrast, scaling} {
		for _, b := range study {
			for _, p := range b.points {
				if cfg := studyCell(t, b, p); cfg.CacheSize != CacheForScale(apps.Tiny) {
					t.Errorf("%s: %s runs a %d-byte cache, want the co-scaled one", b.title, p.variant, cfg.CacheSize)
				}
			}
		}
	}
}

// studyCell derives one study point's machine through CellConfig and
// checks the point is well formed: labelled, valid, and registered under
// its variant name with the derivation its own row declares (two rows
// sharing a name must not disagree about the machine).
func studyCell(t *testing.T, b block, p point) config.Config {
	t.Helper()
	cfg, err := CellConfig(p.variant, 4, apps.Tiny, 1)
	if err != nil {
		t.Fatalf("%s: %v", b.title, err)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("%s: %s is an invalid machine: %v", b.title, p.variant, err)
	}
	if p.label == "" {
		t.Errorf("%s: %s has no label", b.title, p.variant)
	}
	want := mustCell("default", 4, apps.Tiny, 1)
	if p.derive != nil {
		p.derive(&want)
	}
	if cfg != want {
		t.Errorf("%s: CellConfig(%s) = %+v, but the row derives %+v", b.title, p.variant, cfg, want)
	}
	return cfg
}

// TestMp3dQualityReport: the §4.2 check is two cells of a report, mp3d
// under SC and LRC on the paper's cache with values tracked, and renders
// from their answers; a workload without an answer reports none.
func TestMp3dQualityReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	e := NewEvaluator(apps.Tiny, 4)
	e.Prefetch(TargetCells([]string{"mp3dquality"}, nil))
	rep := e.Report()
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	lazy, sc := rep.Runs[0], rep.Runs[1]
	if sc.Protocol != "sc" || lazy.Protocol != "lrc" || sc.Config != "track-values" || lazy.Config != "track-values" ||
		len(sc.Answer) != 2 || len(lazy.Answer) != 2 {
		t.Fatalf("quality cells %s/%s and %s/%s carry answers %v and %v", sc.Config, sc.Protocol, lazy.Config, lazy.Protocol, sc.Answer, lazy.Answer)
	}
	if sc.Answer[0] == lazy.Answer[0] {
		t.Fatalf("lazy invalidation left the answer unchanged: %v", sc.Answer)
	}
	out, err := Render("mp3dquality", rep.View())
	if err != nil || !strings.Contains(out, "X") || !strings.Contains(out, "divergence") || strings.Contains(out, "failed") {
		t.Fatalf("quality report malformed (%v):\n%s", err, out)
	}
	if res := runner.Exec(e.Job("default", "gauss", "sc")); res.Answer != nil {
		t.Fatalf("gauss reported answer %v", res.Answer)
	}
}

func TestFutureFiguresAndReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	e := NewEvaluator(apps.Tiny, 4)
	// Two plotted protocols keep the future matrix cheap: render the
	// future figures through the shared helpers directly.
	var cells [][3]string
	for _, app := range AppOrder {
		for _, p := range []string{"sc", "erc", "lrc"} {
			cells = append(cells, [3]string{"future", app, p})
		}
	}
	e.Prefetch(cells)
	rep := e.Report()
	outT := figTime("future", "future time", "erc", "lrc")(rep.View(), block{})
	outO := figOverhead("future", "future overhead", "lrc")(rep.View(), block{})
	if !strings.Contains(outT, "mp3d") || !strings.Contains(outO, "mp3d") {
		t.Fatal("future renders incomplete")
	}
	var buf strings.Builder
	if err := WriteReportJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if rep.Procs != 4 || len(rep.Runs) == 0 {
		t.Fatalf("report = %+v", rep)
	}
	for _, r := range rep.Runs {
		if !r.Verified {
			t.Fatalf("unverified run in report: %+v", r)
		}
		if r.Protocol == "sc" && r.Normalized != 1.0 {
			t.Fatalf("sc normalized = %v", r.Normalized)
		}
	}
	if !strings.Contains(buf.String(), "\"miss_rate_pct\"") {
		t.Fatal("JSON missing miss rate field")
	}
}

func TestBarRendering(t *testing.T) {
	if got := len(bar(0.5, 1.0, 10)); got != 10 {
		t.Fatalf("bar width = %d", got)
	}
	if b := bar(2.0, 1.0, 10); strings.Contains(b, " ") {
		t.Fatalf("overflow bar should be full: %q", b)
	}
	if b := bar(0, 0, 4); len(b) != 4 {
		t.Fatalf("zero-max bar: %q", b)
	}
}

func TestTargetCells(t *testing.T) {
	all := TargetCells([]string{"all"}, nil)
	if len(all) == 0 {
		t.Fatal("no cells for 'all'")
	}
	seen := map[[3]string]bool{}
	for _, c := range all {
		if seen[c] {
			t.Fatalf("duplicate cell %v", c)
		}
		seen[c] = true
	}
	// Full matrix: 7 apps × (4 protocols on default + 4 on future).
	if want := len(AppOrder) * 8; len(all) != want {
		t.Fatalf("all target cells = %d, want %d", len(all), want)
	}
	// fig4 needs the SC baseline even though it only plots erc and lrc.
	fig4 := TargetCells([]string{"fig4"}, nil)
	var hasSC bool
	for _, c := range fig4 {
		if c[2] == "sc" {
			hasSC = true
		}
	}
	if !hasSC {
		t.Fatal("fig4 cells omit the sc normalization baseline")
	}
	// The studies are targets like any other: 10 sweep points × 3 apps ×
	// {erc, lrc}; 16 ablation points; 2 machines × {lrc, lrc-ext}; 3 sizes
	// × 3 apps × {erc, lrc}; fresh and stale mp3d under SC. Table 1 reads
	// no cell. The claims read the default machine under every protocol and
	// storm's, three line sizes of locusroute and the §4.2 pair.
	for target, want := range map[string]int{"sweep": 60, "ablate": 16, "dsm": 4, "scaling": 18, "mp3dquality": 2, "table1": 0, "claims": 78} {
		if got := TargetCells([]string{target}, nil); len(got) != want {
			t.Errorf("%s expands to %d cells, want %d", target, len(got), want)
		}
	}
	// A restricted sweep keeps the study applications inside the subset.
	for _, c := range TargetCells([]string{"sweep", "scaling"}, []string{"gauss", "fft"}) {
		if c[1] != "gauss" {
			t.Fatalf("restricted to gauss and fft, the studies still read %v", c)
		}
	}
}

// renderAll renders the named targets from a report, in order.
func renderAll(t *testing.T, rep Report, targets []string) string {
	t.Helper()
	var b strings.Builder
	v := rep.View()
	for _, target := range targets {
		out, err := Render(target, v)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&b, out)
	}
	return b.String()
}

// reportBytes renders a report for byte comparison across worker counts:
// runner provenance (worker count, wall time) is dropped, every result
// field is kept.
func reportBytes(t *testing.T, e *Evaluator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteReportJSON(&buf, e.Report().Stable()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelSerialDeterminism is the runner's core contract: a report
// produced on 8 workers is byte-identical to one produced serially, and
// so is every rendered table and figure.
func TestParallelSerialDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tiny matrix twice")
	}
	targets := []string{"table2", "table3", "fig4", "fig6", "fig8"}
	render := func(e *Evaluator) string { return renderAll(t, e.Report(), targets) }

	serial := evaluatorOn(runner.New(1, nil))
	serial.Prefetch(TargetCells(targets, nil))
	serialOut := render(serial)

	parallel := evaluatorOn(runner.New(8, nil))
	parallel.Prefetch(TargetCells(targets, nil))
	parallelOut := render(parallel)

	if serialOut != parallelOut {
		t.Fatal("rendered tables differ between -j 1 and -j 8")
	}
	if !bytes.Equal(reportBytes(t, serial), reportBytes(t, parallel)) {
		t.Fatal("JSON reports differ between -j 1 and -j 8")
	}
	if m := parallel.R.Meta(); m.Simulated != len(TargetCells(targets, nil)) {
		t.Fatalf("parallel runner simulated %d jobs, want %d (dedup broken?)",
			m.Simulated, len(TargetCells(targets, nil)))
	}
}

// TestEvaluatorSharedStore drives two evaluators through one store: the
// second must simulate nothing and produce the identical report.
func TestEvaluatorSharedStore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	cells := TargetCells([]string{"table3"}, nil)

	cold, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := evaluatorOn(runner.New(4, cold))
	e1.Prefetch(cells)
	rep1 := reportBytes(t, e1)
	if m := e1.R.Meta(); m.Simulated == 0 || m.CacheHits != 0 {
		t.Fatalf("cold run meta: %+v", m)
	}

	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	e2 := evaluatorOn(runner.New(4, warm))
	e2.Prefetch(cells)
	rep2 := reportBytes(t, e2)
	if m := e2.R.Meta(); m.Simulated != 0 || m.CacheHits != len(cells) {
		t.Fatalf("warm run simulated %d (want 0), hits %d (want %d)",
			m.Simulated, m.CacheHits, len(cells))
	}
	if !bytes.Equal(rep1, rep2) {
		t.Fatal("cache-served report differs from the simulated one")
	}
}

// TestStoredReportRendersGolden renders every matrix target from the
// committed baseline report — no simulation — and compares the bytes with
// what `paperbench -scale tiny -q table2 … fig9` printed when the
// baseline was current (testdata/paperbench_tiny.golden). It pins the
// text renderings and that a stored report re-renders the paper's tables.
func TestStoredReportRendersGolden(t *testing.T) {
	rep, err := LoadReport("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/paperbench_tiny.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(t, rep, MatrixTargets); got != string(want) {
		t.Fatalf("renderings of BENCH_baseline.json drifted from testdata/paperbench_tiny.golden:\n%s", got)
	}

	// A report lacking a cell a target reads is an error naming the cell.
	var short Report
	for _, r := range rep.Runs {
		if r.Config != "default" || r.App != "gauss" || r.Protocol != "sc" {
			short.Runs = append(short.Runs, r)
		}
	}
	if _, err := Render("fig4", short.View()); err == nil || !strings.Contains(err.Error(), "default/gauss/sc") {
		t.Fatalf("fig4 from a report without default/gauss/sc: %v", err)
	}
	if _, err := Render("table2", short.View()); err != nil {
		t.Fatalf("table2 does not read the missing cell: %v", err)
	}
	if _, err := Render("mp3dquality", short.View()); err == nil || !strings.Contains(err.Error(), "track-values/mp3d/") {
		t.Fatalf("mp3dquality from a report without its cells: %v", err)
	}
}

// TestStoredStudiesRenderGolden is TestStoredReportRendersGolden for the
// studies: BENCH_studies.json re-renders, with no simulation, the bytes
// `paperbench -scale tiny -q sweep ablate dsm scaling` printed before the
// studies joined the report (testdata/paperbench_tiny_studies.golden was
// captured from the four deleted study functions), and the §4.2 check
// from its two cells. A study cell that did not verify prints "failed" in
// its slot and fails the report.
func TestStoredStudiesRenderGolden(t *testing.T) {
	rep, err := LoadReport("../../BENCH_studies.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/paperbench_tiny_studies.golden")
	if err != nil {
		t.Fatal(err)
	}
	studies := []string{"sweep", "ablate", "dsm", "scaling"}
	if got := renderAll(t, rep, studies); got != string(want) {
		t.Fatalf("renderings of BENCH_studies.json drifted from testdata/paperbench_tiny_studies.golden:\n%s", got)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	// The §4.2 check re-renders what `paperbench -scale tiny -procs 64 -q
	// mp3dquality` prints.
	const quality = `mp3d quality of solution (cumulative velocity vector after tiny run, values tracked)
  axis   sc               lrc              divergence
  X       113.40002       113.67914        0.25%
  Y       -29.97770       -30.16617        0.63%
`
	if got := renderAll(t, rep, []string{"mp3dquality"}); got != quality+"\n" {
		t.Fatalf("mp3dquality from BENCH_studies.json drifted:\n%s", got)
	}

	for i := range rep.Runs {
		if r := &rep.Runs[i]; r.Protocol == "lrc" && (r.Config == "line=256" && r.App == "gauss" ||
			r.Config == "first-touch" || r.Config == "software-coherence" || r.Config == "procs=16" && r.App == "blu") {
			r.Verified, r.Error = false, "verification: residual too large"
		}
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "first-touch/mp3d/lrc: verification") {
		t.Fatalf("a report with unverified study cells passes: %v", err)
	}
	got := strings.Split(renderAll(t, rep, studies), "\n")
	golden := strings.Split(string(want), "\n")
	changed := map[string]string{}
	for i, line := range golden {
		if got[i] != line {
			changed[line] = got[i]
		}
	}
	for was, now := range map[string]string{
		"  gauss                 1.036          0.965          0.919": "  gauss                 1.036          0.965         failed",
		"  first touch            926573 cycles  (+92.1%)":            "  first touch    failed: verification: residual too large",
		"  software coherence (no overlap)    0.934":                  "  software coherence (no overlap)    failed: verification: residual too large",
		"      16         522461         460213    0.881":             "      16 failed: verification: residual too large",
	} {
		if changed[was] != now {
			t.Errorf("line %q rendered as %q, want %q", was, changed[was], now)
		}
	}
	if len(changed) != 4 {
		t.Errorf("%d lines changed, want the 4 unverified slots: %q", len(changed), changed)
	}
}

// TestStoredSoakRendersGolden is the same for the chaos soak, whose
// rendering is a verdict: testdata/chaos_tiny4.json re-renders, with no
// simulation, the table the deleted driver printed for the same soak
// (testdata/paperbench_tiny_chaos.golden, less the seed in its title,
// which a report does not carry). The report was written by `paperbench
// -scale tiny -procs 4 -q -protocols lrc,tardis2 -write-baseline … chaos`
// when paperbench could still narrow the soak and the protocol set still
// held tardis2: it has the fault-free cells of sc, erc, lrc, lrc-ext and
// tardis2 and the faulted cells of lrc and tardis2 alone, so those two
// are the soak's rows — a name outside protocol.Names() after the rest.
// A faulted run whose final memory differs from its fault-free reference
// fails its slot and the rendering — unless the application folds timing
// into its result.
func TestStoredSoakRendersGolden(t *testing.T) {
	rep, err := LoadReport("testdata/chaos_tiny4.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/paperbench_tiny_chaos.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Render("chaos", rep.View())
	if err != nil || got+"\n" != string(want) {
		t.Fatalf("rendering of testdata/chaos_tiny4.json drifted from testdata/paperbench_tiny_chaos.golden (%v):\n%s", err, got)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	// A faulted cell the report lacks is named, and so, when the report
	// has no faulted cell at all, is the first of the full soak's.
	for _, tc := range []struct {
		lacks string
		drop  func(ReportRun) bool
		named string
	}{
		{"one faulted cell", func(r ReportRun) bool { return cellKey(r.Config, r.App, r.Protocol) == "drop10/gauss/tardis2" }, "drop10/gauss/tardis2"},
		{"the soak", func(r ReportRun) bool { return r.Config != "default" }, "drop2/barnes-hut/sc"},
	} {
		short := rep
		short.Runs = slices.DeleteFunc(slices.Clone(rep.Runs), tc.drop)
		if _, err := Render("chaos", short.View()); err == nil || !strings.Contains(err.Error(), "reads cell "+tc.named+",") {
			t.Errorf("the soak of a report without %s: %v", tc.lacks, err)
		}
	}

	for i := range rep.Runs {
		if r := &rep.Runs[i]; r.Config == "storm" && r.Protocol == "lrc" && (r.App == "fft" || r.App == "mp3d") {
			r.MemDigest = "0000" + r.MemDigest[4:]
		}
	}
	doctored, err := Render("chaos", rep.View())
	if err == nil || !strings.Contains(err.Error(), "1 cell(s) failed the end-state oracle (first: fft/lrc/storm: FAIL memory diverged)") {
		t.Fatalf("a soak with a diverged memory image passes: %v", err)
	}
	var changed []string
	golden := strings.Split(got, "\n")
	for i, line := range strings.Split(doctored, "\n") {
		if i >= len(golden) || line != golden[i] {
			changed = append(changed, line)
		}
	}
	if want := []string{
		"  fft          lrc      ok (368 faulted, 368 retx) ok (2054 faulted, 2054 retx) FAIL memory diverged    ",
		"FAILED: 1 cell(s) diverged",
		"  fft/lrc/storm: FAIL memory diverged",
		"",
	}; !slices.Equal(changed, want) {
		t.Fatalf("the doctored soak changed lines %q, want %q", changed, want)
	}

	// What the runner's guards and a processor that never finished leave
	// in a stored result reaches the verdict, and the exit code, as the
	// run's error.
	e := NewEvaluator(apps.Tiny, 4)
	e.runs["drop2/fft/lrc"] = memoRun{"drop2", &runner.Result{App: "fft", Proto: "lrc", Completed: true, CheckErr: "watchdog: stall"}}
	e.runs["drop2/fft/sc"] = memoRun{"drop2", &runner.Result{App: "fft", Proto: "sc", VerifyErr: "residual too large"}}
	e.runs["storm/fft/lrc"] = memoRun{"storm", &runner.Result{App: "fft", Proto: "lrc"}}
	guarded := e.Report()
	for i, want := range []string{"check: watchdog: stall", "residual too large", "incomplete: a processor never finished"} {
		if r := guarded.Runs[i]; r.Verified || r.Error != want {
			t.Errorf("%s/%s/%s reports verified=%v, error %q, want %q", r.Config, r.App, r.Protocol, r.Verified, r.Error, want)
		}
	}
	if err := guarded.Err(); err == nil || !strings.Contains(err.Error(), "drop2/fft/lrc: check: watchdog: stall") {
		t.Fatalf("a report with a tripped watchdog passes: %v", err)
	}
}

// TestStudyCellsShareMatrixJobs: the seed reaches study cells, so a study
// point that is the default machine (cb=16) is the job the matrix runs —
// prefetching fig4 and ablate together executes default/blu/lrc once,
// and both cells report it.
func TestStudyCellsShareMatrixJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	rn := runner.New(2, nil)
	e := evaluatorOn(rn)
	e.Seed = 3
	shared := e.Job("default", "blu", "lrc").Fingerprint()
	if fp := e.Job("cb=16", "blu", "lrc").Fingerprint(); fp != shared {
		t.Fatalf("cb=16 is fingerprint %s, default is %s", fp, shared)
	}
	var mu sync.Mutex
	executed := map[string]int{}
	rn.Emit = func(ev runner.Event) {
		if ev.Kind == runner.EventRunning {
			mu.Lock()
			executed[ev.FP]++
			mu.Unlock()
		}
	}
	cells := TargetCells([]string{"fig4", "ablate"}, nil)
	e.Prefetch(cells)
	if executed[shared] != 1 {
		t.Fatalf("default/blu/lrc executed %d times, want once", executed[shared])
	}
	// 21 fig4 cells + 16 ablation cells, of which the two "default" rows
	// are fig4's cells and cb=16, wb=4, dir-lrc=25 fig4's machines.
	if len(cells) != 35 || len(executed) != 32 {
		t.Fatalf("%d cells ran as %d jobs, want 35 as 32", len(cells), len(executed))
	}
	rep := e.Report()
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	v := rep.View()
	a, _ := v.Run("default", "blu", "lrc")
	b, ok := v.Run("cb=16", "blu", "lrc")
	if !ok || a.ExecCycles != b.ExecCycles || len(rep.Runs) != len(cells) {
		t.Fatalf("report of %d runs: default/blu/lrc = %d cycles, cb=16/blu/lrc = %d", len(rep.Runs), a.ExecCycles, b.ExecCycles)
	}
	if out := renderAll(t, rep, []string{"ablate"}); !strings.Contains(out, "overlapped") || !strings.Contains(out, "after grant") {
		t.Fatalf("ablation output malformed:\n%s", out)
	}
}
