package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"lazyrc/internal/api"
	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/exp"
	"lazyrc/internal/machine"
	"lazyrc/internal/protocol"
	"lazyrc/internal/runner"
	"lazyrc/internal/store"
	"lazyrc/internal/telemetry"
)

func tinyRun(t *testing.T, metrics, spans bool) *machine.Machine {
	t.Helper()
	app, err := apps.New("gauss", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	m, err := apps.Run(config.Default(8), "lrc", app, func(m *machine.Machine) {
		if metrics {
			m.EnableMetrics(5000)
		}
		if spans {
			m.EnableSpans(true, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCellMatchesBaseline pins that the cell lrcsim's flags name is the
// cell paperbench reports — cache co-scaled with -scale, -future = the
// future preset, -faults = a soak plan's variant — and that lrcsim runs
// it as the runner does: for one tiny cell per protocol (and one on the
// future machine) of BENCH_baseline.json, and the soak's storm cell of
// fft under lrc-ext from BENCH_chaos.json, the execution time equals the
// committed run and the printed metrics and span digests are its
// metrics_digest and span_digest. The faulted run is also judged as the
// soak judges it, against the fault-free cell.
func TestCellMatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	type cell struct {
		rep  exp.Report
		key  string   // preset/app/protocol in rep
		args []string // the lrcsim flags naming it
	}
	var cells []cell
	base, err := exp.LoadReport("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	at := []string{"-scale", base.Scale, "-procs", fmt.Sprint(base.Procs), "-seed", "1"}
	cells = append(cells, cell{base, "future/gauss/lrc", append([]string{"-app", "gauss", "-proto", "lrc", "-future"}, at...)})
	for _, p := range protocol.Names() {
		cells = append(cells, cell{base, "default/gauss/" + p, append([]string{"-app", "gauss", "-proto", p}, at...)})
	}
	chaos, err := exp.LoadReport("../../BENCH_chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	const storm = "drop=0.1;down=0-1:20000:5000;brown=2:40000:3000" // the soak's storm plan
	cells = append(cells, cell{chaos, "storm/fft/lrc-ext", []string{"-app", "fft", "-proto", "lrc-ext",
		"-scale", chaos.Scale, "-procs", fmt.Sprint(chaos.Procs), "-seed", "1", "-faults", storm}})

	dir := t.TempDir()
	traceFile := filepath.Join(dir, "t.json")
	t.Cleanup(func() {
		for _, name := range []string{"app", "proto", "future", "scale", "procs", "faults", "spans-out"} {
			flag.Set(name, flag.Lookup(name).DefValue)
		}
	})
	for _, c := range cells {
		k := strings.Split(c.key, "/")
		w, ok := c.rep.View().Run(k[0], k[1], k[2])
		if !ok {
			t.Fatalf("report has no %s run", c.key)
		}
		for _, name := range []string{"future", "faults"} {
			flag.Set(name, flag.Lookup(name).DefValue)
		}
		var stdout, stderr bytes.Buffer
		code := run(append(c.args, "-spans-out", traceFile), &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", c.key, code, stderr.String())
		}
		if line := fmt.Sprintf("execution time %d cycles", w.ExecCycles); !strings.Contains(strings.Join(strings.Fields(stdout.String()), " "), line) {
			t.Errorf("%s: lrcsim printed no %q:\n%s", c.key, line, stdout.String())
		}
		samples, _, _ := strings.Cut(w.MetricsDigest, "-")
		if line := fmt.Sprintf("metrics: %s samples (digest %s)\n", samples, w.MetricsDigest); !strings.Contains(stderr.String(), line) {
			t.Errorf("%s: lrcsim printed no %q: %s", c.key, line, stderr.String())
		}
		if digest := "(digest " + w.SpanDigest + ")"; !strings.Contains(stderr.String(), digest) {
			t.Errorf("%s: lrcsim printed no span %s: %s", c.key, digest, stderr.String())
		}
		if verdict := "end state matches the fault-free run"; k[0] == "storm" && !strings.Contains(stderr.String(), verdict) {
			t.Errorf("%s: lrcsim printed no %q: %s", c.key, verdict, stderr.String())
		}
	}
}

func report(m *machine.Machine) string {
	var buf bytes.Buffer
	printReport(&buf, m, &runner.Result{App: "gauss", Scale: "tiny", Proto: "lrc"}, false, false)
	return buf.String()
}

// TestReportSuppressesDerivedLinesWithoutData pins the fix for the
// summary printing zero-valued derived metrics: on a machine that
// accounted no cycles (nothing ran), the cpu-utilization and
// load-imbalance lines are suppressed instead of rendering as 0.0%.
func TestReportSuppressesDerivedLinesWithoutData(t *testing.T) {
	m, err := machine.New(config.Default(8), "lrc")
	if err != nil {
		t.Fatal(err)
	}
	out := report(m)
	for _, banned := range []string{"cpu utilization", "load imbalance"} {
		if strings.Contains(out, banned) {
			t.Errorf("report shows %q with no accounted cycles:\n%s", banned, out)
		}
	}
	if !strings.Contains(out, "execution time") {
		t.Fatalf("report lost its headline lines:\n%s", out)
	}
}

// TestReportIdenticalAcrossInstrumentationMatrix runs the same workload
// under every combination of telemetry and span collection and requires
// the printed summary to be byte-identical: both instruments are
// passive, so no flag combination may change a reported number — and a
// real run always carries the utilization and imbalance lines.
func TestReportIdenticalAcrossInstrumentationMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var base string
	for _, c := range []struct{ metrics, spans bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	} {
		out := report(tinyRun(t, c.metrics, c.spans))
		if base == "" {
			base = out
			for _, want := range []string{"cpu utilization", "load imbalance"} {
				if !strings.Contains(out, want) {
					t.Fatalf("report missing %q after a real run:\n%s", want, out)
				}
			}
			continue
		}
		if out != base {
			t.Errorf("report differs with metrics=%v spans=%v:\n%s\nvs baseline:\n%s",
				c.metrics, c.spans, out, base)
		}
	}
}

// TestEveryFlagInExactlyOneGroup keeps -h complete: a flag registered
// without a heading would silently vanish from the usage text.
func TestEveryFlagInExactlyOneGroup(t *testing.T) {
	listed := map[string]int{}
	for _, g := range flagGroups {
		for _, name := range g.flags {
			listed[name]++
			if flag.Lookup(name) == nil {
				t.Errorf("group %q lists -%s, which is not a registered flag", g.heading, name)
			}
		}
	}
	registered := 0
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return
		}
		registered++
		if listed[f.Name] != 1 {
			t.Errorf("-%s is listed under %d headings, want exactly 1", f.Name, listed[f.Name])
		}
	})
	if registered != 16 {
		t.Errorf("%d flags registered, want 16: adding an option needs a reason (ROADMAP aim 2)", registered)
	}
	var out bytes.Buffer
	flag.CommandLine.SetOutput(&out)
	defer flag.CommandLine.SetOutput(nil)
	usage()
	for _, g := range flagGroups {
		if !strings.Contains(out.String(), "\n"+g.heading+":\n") {
			t.Errorf("usage text lacks the %q heading", g.heading)
		}
	}
	if n := strings.Count(out.String(), "\n  -"); n != registered {
		t.Errorf("usage text shows %d flags, want %d", n, registered)
	}
}

// TestOneNamePerProtocol: a protocol has one name, the one its cells
// carry; the old alias "lrcext" is refused with the six that exist.
func TestOneNamePerProtocol(t *testing.T) {
	t.Cleanup(func() {
		for _, name := range []string{"app", "proto", "scale", "procs"} {
			flag.Set(name, flag.Lookup(name).DefValue)
		}
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-app", "gauss", "-proto", "lrcext", "-scale", "tiny", "-procs", "4"}, &stdout, &stderr)
	if code == 0 || stdout.Len() > 0 {
		t.Fatalf("-proto lrcext: exit %d, stdout:\n%s", code, stdout.String())
	}
	for _, p := range protocol.Names() {
		if !strings.Contains(stderr.String(), p) {
			t.Errorf("-proto lrcext: the error does not name %s: %s", p, stderr.String())
		}
	}
}

// TestPositionalArgumentsRefused: every setting is a flag, so a word
// after them (a forgotten -proto, a stray word) is refused by name
// rather than ignored while the default runs.
func TestPositionalArgumentsRefused(t *testing.T) {
	t.Cleanup(func() {
		for _, name := range []string{"app", "scale", "procs"} {
			flag.Set(name, flag.Lookup(name).DefValue)
		}
	})
	for _, extra := range [][]string{{"lrc"}, {"stray", "words"}} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-app", "gauss", "-scale", "tiny", "-procs", "4"}, extra...), &stdout, &stderr)
		if code != 2 || stdout.Len() > 0 {
			t.Errorf("%q: exit %d, want 2; stdout:\n%s", extra, code, stdout.String())
		}
		for _, word := range extra {
			if !strings.Contains(stderr.String(), word) {
				t.Errorf("%q: the error does not name %q: %s", extra, word, stderr.String())
			}
		}
	}
}

// TestFailedRunKeepsItsProfiles: a run that ends in an error — here the
// liveness watchdog every faulted run carries, stopping a run whose node
// 0 drops everything it receives — is one recorded failure, not a
// panic, and still finishes the CPU profile (gzip-compressed protobuf,
// so it starts 1f 8b) and writes the heap profile: the failed run is
// the one most worth profiling.
func TestFailedRunKeepsItsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "c.out"), filepath.Join(dir, "m.out")
	t.Cleanup(func() {
		for _, name := range []string{"cpuprofile", "memprofile", "faults", "app", "scale", "procs"} {
			flag.Set(name, flag.Lookup(name).DefValue)
		}
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-app", "gauss", "-scale", "tiny", "-procs", "4",
		"-cpuprofile", cpu, "-memprofile", mem, "-faults", "brown=0:0:100000000"}, &stdout, &stderr)
	if code != 1 || stdout.Len() > 0 || strings.Count(stderr.String(), "lrcsim: ") != 1 || !strings.Contains(stderr.String(), "lrcsim: check: watchdog: ") {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("%s: %d bytes, not a gzip-compressed profile", filepath.Base(path), len(data))
		}
	}
}

// TestOneTimeline: -spans-out writes one timeline, the spans and every
// telemetry series of the run on one cycle axis. The trace validates;
// each series the cell's run retains is exactly one counter track,
// which read back at the points' stamps (a level point at its sample, a
// delta point at the start of its interval) gives every point; without
// the counters and the machine process's name its events are the
// span-only trace of the cell, byte for byte, in order; and the
// daemon's trace download for the cell is the same file.
func TestOneTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	t.Cleanup(func() {
		for _, name := range []string{"app", "proto", "scale", "procs", "spans-out", "validate-spans"} {
			flag.Set(name, flag.Lookup(name).DefValue)
		}
	})
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "t.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-app", "gauss", "-proto", "lrc", "-procs", "16", "-scale", "tiny",
		"-spans-out", traceFile}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if code := run([]string{"-validate-spans", traceFile}, &stdout, &stderr); code != 0 {
		t.Fatalf("-validate-spans: exit %d: %s", code, stderr.String())
	}
	trace, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}

	// The run's retained registry: its sample times and series.
	e := exp.NewEvaluator(apps.Tiny, 16)
	e.Seed = 1
	m, res := runner.ExecTraced(e.Job("default", "gauss", "lrc"), true)
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	times := m.Tel.Times()
	type series struct {
		Name, Mode string
		Points     []float64
	}
	var all []series
	m.Tel.VisitSeries(func(s *telemetry.Series) {
		all = append(all, series{s.Name(), s.Mode().String(), s.Points()})
	})
	if len(all) == 0 || len(times) != m.Tel.Samples() {
		t.Fatalf("%d series, %d of %d sample times retained", len(all), len(times), m.Tel.Samples())
	}

	// The trace: counter tracks by (pid, name, mode), the rest in order.
	var doc struct{ TraceEvents []json.RawMessage }
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatal(err)
	}
	type stamp struct {
		ts uint64
		v  float64
	}
	tracks := map[string][]stamp{}
	const nodes = 16
	spansOnly := sha256.New()
	for _, raw := range doc.TraceEvents {
		var ev struct {
			Name string
			Ph   string
			Ts   uint64
			Pid  int
			Args map[string]any
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatal(err)
		}
		switch {
		case ev.Ph == "C":
			if len(ev.Args) != 1 {
				t.Fatalf("counter event with %d values: %s", len(ev.Args), raw)
			}
			for mode, v := range ev.Args {
				key := fmt.Sprintf("%d %s %s", ev.Pid, ev.Name, mode)
				tracks[key] = append(tracks[key], stamp{ev.Ts, v.(float64)})
			}
		case ev.Ph == "M" && ev.Pid == nodes:
			if ev.Name != "process_name" || ev.Args["name"] != "machine" {
				t.Errorf("machine process metadata: %s", raw)
			}
		default:
			spansOnly.Write(raw)
			spansOnly.Write([]byte("\n"))
		}
	}
	if len(tracks) != len(all) {
		t.Errorf("%d counter tracks for %d series", len(tracks), len(all))
	}
	for _, s := range all {
		pid, name := nodes, s.Name
		if i := strings.LastIndexByte(name, '.'); i >= 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				pid, name = n, name[:i]
			}
		}
		track, ok := tracks[fmt.Sprintf("%d %s %s", pid, name, s.Mode)]
		if !ok {
			t.Errorf("series %s has no counter track", s.Name)
			continue
		}
		for i, want := range s.Points {
			at := times[i]
			if s.Mode == "delta" {
				at = 0
				if i > 0 {
					at = times[i-1]
				}
			}
			j := sort.Search(len(track), func(j int) bool { return track[j].ts > at }) - 1
			if j < 0 || track[j].v != want {
				t.Fatalf("series %s point %d (%v) does not read back at cycle %d: %v", s.Name, i, want, at, track)
			}
		}
	}
	// The parent change's -spans-out trace of the cell, event by event.
	const spanTrace = "81e9e16e7a37189604991e3e3c0196c92302f72a2fcdb0bf422d1f98b41e15fc"
	if got := fmt.Sprintf("%x", spansOnly.Sum(nil)); got != spanTrace {
		t.Errorf("the span events hash to %s, the span-only trace's to %s", got, spanTrace)
	}

	// The daemon's trace download of the same cell.
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	svc := api.NewService(1, st, nil)
	ts := httptest.NewServer(api.NewServer(svc))
	defer func() {
		if err := svc.Close(context.Background()); err != nil {
			t.Error(err)
		}
		ts.Close()
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	}()
	c := &api.Client{Base: ts.URL, HTTPClient: ts.Client()}
	ctx := context.Background()
	sw, err := c.SubmitSweep(ctx, exp.Spec{Targets: []string{"default/gauss/lrc"}, Scale: "tiny", Procs: nodes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sw, err = c.WaitSweep(ctx, sw.ID, nil); err != nil || sw.State != api.StateDone {
		t.Fatalf("sweep: %+v, %v", sw, err)
	}
	cells, err := c.SweepCells(ctx, sw.ID)
	if err != nil {
		t.Fatal(err)
	}
	served, err := c.JobTrace(ctx, cells["default/gauss/lrc"])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, trace) {
		t.Errorf("the daemon's trace of the cell (%d bytes) differs from -spans-out's (%d bytes)", len(served), len(trace))
	}
}
