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

	"lazyrc"
	"lazyrc/internal/api"
	"lazyrc/internal/apps"
	"lazyrc/internal/exp"
	"lazyrc/internal/store"
)

func tinyRun(t *testing.T, metrics, spans bool) *lazyrc.Machine {
	t.Helper()
	app, err := lazyrc.NewApp("gauss", lazyrc.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	m, err := apps.Run(lazyrc.DefaultConfig(8), "lrc", app, func(m *lazyrc.Machine) {
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
// future preset — and that lrcsim observes it as the runner does: for one
// tiny cell per protocol (and one on the future machine) the execution
// time equals the committed BENCH_baseline.json run, the -metrics-out export
// hashes to its metrics_digest and the printed span digest is its
// span_digest.
func TestCellMatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	base, err := exp.LoadReport("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]exp.ReportRun{}
	for _, r := range base.Runs {
		want[r.Config+"/"+r.App+"/"+r.Protocol] = r
	}
	dir := t.TempDir()
	metricsFile, traceFile := filepath.Join(dir, "m.jsonl"), filepath.Join(dir, "t.json")
	t.Cleanup(func() {
		for _, name := range []string{"app", "proto", "future", "scale", "procs", "metrics-out", "spans-out"} {
			flag.Set(name, flag.Lookup(name).DefValue)
		}
	})
	cells := [][2]string{{"future", "lrc"}}
	for _, p := range lazyrc.Protocols() {
		cells = append(cells, [2]string{"default", p})
	}
	for _, c := range cells {
		key := c[0] + "/gauss/" + c[1]
		w, ok := want[key]
		if !ok {
			t.Fatalf("baseline has no %s run", key)
		}
		var stdout, stderr bytes.Buffer
		code := run([]string{"-app", "gauss", "-proto", c[1], "-future=" + fmt.Sprint(c[0] == "future"),
			"-scale", base.Scale, "-procs", fmt.Sprint(base.Procs), "-seed", "1",
			"-metrics-out", metricsFile, "-spans-out", traceFile}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", key, code, stderr.String())
		}
		if line := fmt.Sprintf("execution time %d cycles", w.ExecCycles); !strings.Contains(strings.Join(strings.Fields(stdout.String()), " "), line) {
			t.Errorf("%s: lrcsim printed no %q:\n%s", key, line, stdout.String())
		}
		export, err := os.ReadFile(metricsFile)
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(export)); sum != w.MetricsDigest {
			t.Errorf("%s: the -metrics-out export hashes to %s, the baseline's metrics_digest is %s", key, sum, w.MetricsDigest)
		}
		if digest := "(digest " + w.SpanDigest + ")"; !strings.Contains(stderr.String(), digest) {
			t.Errorf("%s: lrcsim printed no span %s: %s", key, digest, stderr.String())
		}
	}
}

func report(t *testing.T, m *lazyrc.Machine) string {
	t.Helper()
	app, err := lazyrc.NewApp("gauss", lazyrc.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	printReport(&buf, m, app, lazyrc.ScaleTiny, "lrc", 8, false, false)
	return buf.String()
}

// TestReportSuppressesDerivedLinesWithoutData pins the fix for the
// summary printing zero-valued derived metrics: on a machine that
// accounted no cycles (nothing ran), the cpu-utilization and
// load-imbalance lines are suppressed instead of rendering as 0.0%.
func TestReportSuppressesDerivedLinesWithoutData(t *testing.T) {
	m, err := lazyrc.NewMachine(lazyrc.DefaultConfig(8), "lrc")
	if err != nil {
		t.Fatal(err)
	}
	out := report(t, m)
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
		out := report(t, tinyRun(t, c.metrics, c.spans))
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
	if registered != 25 {
		t.Errorf("%d flags registered, want 25: adding an option needs a reason (ROADMAP aim 2)", registered)
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
	for _, p := range lazyrc.Protocols() {
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
// watchdog aborting it at a 1-cycle probe interval — still finishes the
// CPU profile (gzip-compressed protobuf, so it starts 1f 8b) and writes
// the heap profile: the failed run is the one most worth profiling.
func TestFailedRunKeepsItsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "c.out"), filepath.Join(dir, "m.out")
	t.Cleanup(func() {
		for _, name := range []string{"cpuprofile", "memprofile", "watchdog", "app", "scale", "procs"} {
			flag.Set(name, flag.Lookup(name).DefValue)
		}
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-app", "gauss", "-scale", "tiny", "-procs", "4",
		"-cpuprofile", cpu, "-memprofile", mem, "-watchdog", "1"}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "aborted by the liveness watchdog") {
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
// each series of the -metrics-out export is exactly one counter track,
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
		for _, name := range []string{"app", "proto", "scale", "procs", "metrics-out", "spans-out", "validate-spans"} {
			flag.Set(name, flag.Lookup(name).DefValue)
		}
	})
	dir := t.TempDir()
	traceFile, metricsFile := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-app", "gauss", "-proto", "lrc", "-procs", "16", "-scale", "tiny",
		"-spans-out", traceFile, "-metrics-out", metricsFile}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if code := run([]string{"-validate-spans", traceFile}, &stdout, &stderr); code != 0 {
		t.Fatalf("-validate-spans: exit %d: %s", code, stderr.String())
	}
	trace, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}

	// The export: its sample times and series.
	export, err := os.ReadFile(metricsFile)
	if err != nil {
		t.Fatal(err)
	}
	var times []uint64
	type series struct {
		Name, Mode string
		Points     []float64
	}
	var all []series
	for _, line := range bytes.Split(bytes.TrimSpace(export), []byte("\n")) {
		var l struct {
			Kind   string
			Cycles []uint64
			series
		}
		if err := json.Unmarshal(line, &l); err != nil {
			t.Fatal(err)
		}
		switch l.Kind {
		case "times":
			times = l.Cycles
		case "series":
			all = append(all, l.series)
		}
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
