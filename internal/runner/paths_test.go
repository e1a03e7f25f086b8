package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"lazyrc/internal/apps"
	"lazyrc/internal/machine"
)

// TestRunPathsAgree pins that apps.Run bare, apps.Run with metrics +
// spans + perf attached in every one of the 3! orders, and runner.Exec
// agree bit for bit on execution time, network traffic and the final
// memory image, and (where the observers are attached) on the telemetry
// and span digests. No observer is wired to another, so every attach
// order also profiles the telemetry tick, like any background event, in
// the background phase. ExecTraced with retained spans is the same
// execution body, so its result serializes as Exec's does.
func TestRunPathsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	job := tinyJob("gauss", "lrc")
	want := Exec(job)
	if err := want.Err(); err != nil {
		t.Fatal(err)
	}

	m, traced := ExecTraced(job, true)
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(traced)
	if m == nil || m.Causal.Count() != traced.Spans || !bytes.Equal(a, b) {
		t.Errorf("ExecTraced (machine %v) differs from Exec:\n%s\n%s", m != nil, b, a)
	}

	observers := map[string]func(*machine.Machine){
		"metrics": func(m *machine.Machine) { m.EnableMetrics(MetricsInterval) },
		"spans":   func(m *machine.Machine) { m.EnableSpans(false, 0) },
		"perf":    func(m *machine.Machine) { m.EnablePerf() },
	}
	orders := [][]string{{}}
	for _, a := range []string{"metrics", "spans", "perf"} {
		for _, b := range []string{"metrics", "spans", "perf"} {
			for _, c := range []string{"metrics", "spans", "perf"} {
				if a != b && b != c && a != c {
					orders = append(orders, []string{a, b, c})
				}
			}
		}
	}
	for _, order := range orders {
		t.Run(fmt.Sprint(order), func(t *testing.T) {
			app, err := apps.New(job.App, job.Scale)
			if err != nil {
				t.Fatal(err)
			}
			var attach []func(*machine.Machine)
			for _, name := range order {
				attach = append(attach, observers[name])
			}
			m, err := apps.Run(job.Cfg, job.Proto, app, attach...)
			if err != nil {
				t.Fatal(err)
			}
			msgs, bytes := m.Net.Stats()
			if got := m.Stats.ExecutionTime(); got != want.ExecCycles || msgs != want.Msgs || bytes != want.Bytes {
				t.Errorf("exec/msgs/bytes = %d/%d/%d, runner.Exec has %d/%d/%d",
					got, msgs, bytes, want.ExecCycles, want.Msgs, want.Bytes)
			}
			if got := m.MemDigest(); got != want.MemDigest {
				t.Errorf("memory digest %s, runner.Exec has %s", got, want.MemDigest)
			}
			if len(order) == 0 {
				return
			}
			if got := m.Tel.Digest(); got != want.MetricsDigest {
				t.Errorf("metrics digest %s, runner.Exec has %s", got, want.MetricsDigest)
			}
			if got := m.Causal.Digest(); got != want.SpanDigest {
				t.Errorf("span digest %s, runner.Exec has %s", got, want.SpanDigest)
			}
			if ns := m.Perf.Snapshot().Phases["background"]; ns <= 0 {
				t.Errorf("background perf phase = %d ns, want > 0", ns)
			}
		})
	}
}

// TestMetaSnapshotsDoNotAlias pins the fix for Meta handing out a
// pointer into the live aggregate: mutating one snapshot (including its
// Phases map) must leave the next one untouched, and taking snapshots
// while jobs finish must be clean under -race.
func TestMetaSnapshotsDoNotAlias(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	r := New(2, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.DoAll(context.Background(), []Job{tinyJob("gauss", "sc"), tinyJob("gauss", "lrc"), tinyJob("fft", "erc")})
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if m := r.Meta(); m.Perf != nil {
			m.Perf.Events++
			for k := range m.Perf.Phases {
				m.Perf.Phases[k]++
			}
		}
	}

	a := r.Meta()
	if a.Perf == nil || len(a.Perf.Phases) == 0 {
		t.Fatalf("no aggregated profile after three fresh runs: %+v", a.Perf)
	}
	wantEvents, wantDispatch := a.Perf.Events, a.Perf.Phases["dispatch"]
	a.Perf.Events = 0
	a.Perf.Phases["dispatch"] = -1
	delete(a.Perf.Phases, "mesh")
	b := r.Meta()
	if b.Perf == a.Perf || b.Perf.Events != wantEvents || b.Perf.Phases["dispatch"] != wantDispatch {
		t.Fatalf("second snapshot sees the first one's mutations: %+v", b.Perf)
	}
	if _, ok := b.Perf.Phases["mesh"]; !ok {
		t.Fatal("second snapshot shares the first one's Phases map")
	}
}
