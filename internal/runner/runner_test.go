package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/machine"
)

func tinyJob(app, proto string) Job {
	cfg := config.Default(4)
	cfg.CacheSize = 2 << 10
	cfg.Seed = 1
	return Job{App: app, Scale: apps.Tiny, Proto: proto, Cfg: cfg}
}

func TestFingerprintIsContentAddressed(t *testing.T) {
	a, b := tinyJob("gauss", "lrc"), tinyJob("gauss", "lrc")
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical jobs fingerprint differently")
	}
	mutations := []func(*Job){
		func(j *Job) { j.App = "fft" },
		func(j *Job) { j.Proto = "erc" },
		func(j *Job) { j.Scale = apps.Small },
		func(j *Job) { j.Cfg.DirCostLRC++ },
		func(j *Job) { j.Cfg.Seed++ },
		func(j *Job) { j.Cfg.FaultPlan = "dup=0.01:8" },
	}
	seen := map[string]bool{a.Fingerprint(): true}
	for i, mut := range mutations {
		j := tinyJob("gauss", "lrc")
		mut(&j)
		fp := j.Fingerprint()
		if seen[fp] {
			t.Fatalf("mutation %d did not change the fingerprint", i)
		}
		seen[fp] = true
	}
}

func TestExecCapturesErrors(t *testing.T) {
	res := Exec(tinyJob("no-such-app", "lrc"))
	if !res.Failed() || res.Err() == nil {
		t.Fatalf("unknown app should fail: %+v", res)
	}
	bad := tinyJob("gauss", "lrc")
	bad.Cfg.CacheSize = 7 // fails Validate
	if res := Exec(bad); !res.Failed() {
		t.Fatal("invalid config should fail")
	}
}

func TestExecCapturesPanics(t *testing.T) {
	orig := simulate
	defer func() { simulate = orig }()
	simulate = func(j Job, res *Result, hk hooks, retain bool) (*machine.Machine, error) { panic("simulated crash") }

	res := Exec(tinyJob("gauss", "lrc"))
	if !res.Failed() || !strings.Contains(res.Failure, "simulated crash") {
		t.Fatalf("panic not captured: %+v", res)
	}
	// A crashing job must not take down a concurrent batch: the other
	// results come back failed (this stub crashes everything) rather
	// than the batch dying.
	r := New(4, nil)
	results := r.DoAll(context.Background(), []Job{tinyJob("gauss", "lrc"), tinyJob("fft", "lrc")})
	for _, res := range results {
		if res == nil || !res.Failed() {
			t.Fatalf("batch result not a failure record: %+v", res)
		}
	}
	if m := r.Meta(); m.FailedJobs != 2 {
		t.Fatalf("failed jobs = %d, want 2", m.FailedJobs)
	}
}

// TestExecCapturesAppBodyPanic: the panic that matters most is the one
// raised where simulations spend their time — on a processor context, in
// an application body or CPU-side protocol code. It must come back as a
// failed-job record with the machine state attached, and the pool must
// keep serving.
func TestExecCapturesAppBodyPanic(t *testing.T) {
	orig := simulate
	defer func() { simulate = orig }()
	simulate = func(j Job, res *Result, hk hooks, retain bool) (*machine.Machine, error) {
		if j.App != "fft" {
			return orig(j, res, hk, retain)
		}
		m, err := machine.New(j.Cfg, j.Proto)
		if err != nil {
			return nil, err
		}
		a := m.AllocF64(64)
		m.Run(func(p *machine.Proc) {
			p.ReadF64(a.At(8 * p.ID()))
			if p.ID() == 1 {
				panic("app body crash")
			}
			p.ReadF64(a.At(8*p.ID() + 32))
		})
		return m, nil
	}

	r := New(2, nil)
	results := r.DoAll(context.Background(), []Job{tinyJob("fft", "lrc"), tinyJob("gauss", "lrc")})
	if crashed := results[0]; !crashed.Failed() || !strings.Contains(crashed.Failure, "panic: app body crash") {
		t.Fatalf("app-body panic not captured: %+v", crashed)
	}
	if healthy := results[1]; healthy.Failed() || !healthy.Completed {
		t.Fatalf("job beside the crashing one did not complete: %+v", healthy)
	}
	if res := r.Do(context.Background(), tinyJob("gauss", "erc")); res.Failed() || !res.Completed {
		t.Fatalf("pool stopped serving after an app-body panic: %+v", res)
	}
	if m := r.Meta(); m.FailedJobs != 1 {
		t.Fatalf("failed jobs = %d, want 1", m.FailedJobs)
	}
}

func TestRunnerDeduplicatesByFingerprint(t *testing.T) {
	r := New(4, nil)
	job := tinyJob("gauss", "sc")
	jobs := []Job{job, job, job, tinyJob("fft", "sc")}
	results := r.DoAll(context.Background(), jobs)
	if results[0] != results[1] || results[1] != results[2] {
		t.Fatal("duplicate jobs produced distinct result objects")
	}
	if m := r.Meta(); m.Simulated != 2 {
		t.Fatalf("simulated = %d, want 2 (deduplication failed)", m.Simulated)
	}
	// The memo serves later Do calls without re-simulation.
	if got := r.Do(context.Background(), job); got != results[0] {
		t.Fatal("memoized result not reused")
	}
	if m := r.Meta(); m.Simulated != 2 {
		t.Fatal("memoized Do re-simulated")
	}
}

func TestRunnerConcurrencyBound(t *testing.T) {
	orig := simulate
	defer func() { simulate = orig }()
	var mu sync.Mutex
	active, peak := 0, 0
	gate := make(chan struct{})
	simulate = func(j Job, res *Result, hk hooks, retain bool) (*machine.Machine, error) {
		mu.Lock()
		active++
		if active > peak {
			peak = active
		}
		mu.Unlock()
		<-gate
		mu.Lock()
		active--
		mu.Unlock()
		return nil, nil
	}

	r := New(2, nil)
	jobs := make([]Job, 6)
	for i := range jobs {
		j := tinyJob("gauss", "sc")
		j.Cfg.Seed = uint64(i + 1) // distinct fingerprints
		jobs[i] = j
	}
	done := make(chan []*Result)
	go func() { done <- r.DoAll(context.Background(), jobs) }()
	close(gate)
	<-done
	if peak > 2 {
		t.Fatalf("observed %d concurrent simulations, pool size 2", peak)
	}
}

// TestResultsIdenticalAcrossWorkerCounts runs the same small batch
// serially and with 8 workers and requires byte-identical serialized
// results — the foundation of the paperbench -j guarantee.
func TestResultsIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	jobs := []Job{
		tinyJob("gauss", "sc"), tinyJob("gauss", "erc"),
		tinyJob("gauss", "lrc"), tinyJob("fft", "lrc"),
		tinyJob("mp3d", "lrc"), tinyJob("mp3d", "erc"),
	}
	marshal := func(results []*Result) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, r := range results {
			if err := enc.Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	serial := marshal(New(1, nil).DoAll(context.Background(), jobs))
	parallel := marshal(New(8, nil).DoAll(context.Background(), jobs))
	if !bytes.Equal(serial, parallel) {
		t.Fatal("results differ between 1 and 8 workers")
	}
}

// TestMetricsDigestIdenticalAcrossWorkerCounts pins the telemetry half
// of the -j guarantee explicitly: every result carries a metrics digest,
// and the digest of each run — a fingerprint of its whole cycle-domain
// shape, not just end-of-run totals — is identical whether the batch ran
// serially or on 8 workers.
func TestMetricsDigestIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	jobs := []Job{
		tinyJob("gauss", "sc"), tinyJob("gauss", "lrc"),
		tinyJob("fft", "lrc"), tinyJob("mp3d", "erc"),
	}
	serial := New(1, nil).DoAll(context.Background(), jobs)
	parallel := New(8, nil).DoAll(context.Background(), jobs)
	for i := range jobs {
		s, p := serial[i], parallel[i]
		if s.MetricsDigest == "" {
			t.Fatalf("%s/%s: no metrics digest attached", s.App, s.Proto)
		}
		if s.MetricsDigest != p.MetricsDigest {
			t.Fatalf("%s/%s: digest differs between -j1 and -j8: %s vs %s",
				s.App, s.Proto, s.MetricsDigest, p.MetricsDigest)
		}
	}
}

// TestSpanDigestIdenticalAcrossWorkerCounts pins the causal-tracing half
// of the -j guarantee: every result carries a span-stream digest — a
// fingerprint of every coherence transaction, stall episode, and message
// flight the run produced — identical between a serial and an 8-worker
// batch, and stable across repeated seeded runs of the same job.
func TestSpanDigestIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	jobs := []Job{
		tinyJob("gauss", "sc"), tinyJob("gauss", "lrc"),
		tinyJob("fft", "lrc"), tinyJob("mp3d", "erc"),
	}
	serial := New(1, nil).DoAll(context.Background(), jobs)
	parallel := New(8, nil).DoAll(context.Background(), jobs)
	rerun := New(1, nil).DoAll(context.Background(), jobs)
	for i := range jobs {
		s, p, r := serial[i], parallel[i], rerun[i]
		if s.SpanDigest == "" || s.Spans == 0 {
			t.Fatalf("%s/%s: no span digest attached (%d spans, %q)",
				s.App, s.Proto, s.Spans, s.SpanDigest)
		}
		if s.SpanDigest != p.SpanDigest {
			t.Fatalf("%s/%s: span digest differs between -j1 and -j8: %s vs %s",
				s.App, s.Proto, s.SpanDigest, p.SpanDigest)
		}
		if s.SpanDigest != r.SpanDigest {
			t.Fatalf("%s/%s: span digest differs across repeated seeded runs: %s vs %s",
				s.App, s.Proto, s.SpanDigest, r.SpanDigest)
		}
	}
}

// TestDoCanceledBeforeStart: a dead context abandons the submission
// without simulating, and the abandonment is not memoized — a later live
// submission of the same job executes it.
func TestDoCanceledBeforeStart(t *testing.T) {
	r := New(2, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := r.Do(ctx, tinyJob("gauss", "sc"))
	if !res.Canceled || !res.Failed() {
		t.Fatalf("pre-canceled Do returned %+v", res)
	}
	if m := r.Meta(); m.Simulated != 0 || m.Canceled != 1 {
		t.Fatalf("meta after canceled Do: %+v", m)
	}
	if res := r.Do(context.Background(), tinyJob("gauss", "sc")); res.Canceled || res.Failed() {
		t.Fatalf("live resubmission did not execute: %+v", res)
	}
	if m := r.Meta(); m.Simulated != 1 {
		t.Fatalf("resubmission meta: %+v", m)
	}
}

// TestDoAllReturnsPromptlyOnCancel: with in-flight jobs blocked on the
// submission context, cancelling it drains the whole batch — running
// jobs come back Canceled, queued jobs never start.
func TestDoAllReturnsPromptlyOnCancel(t *testing.T) {
	orig := simulate
	defer func() { simulate = orig }()
	started := make(chan struct{}, 16)
	simulate = func(j Job, res *Result, hk hooks, retain bool) (*machine.Machine, error) {
		started <- struct{}{}
		<-hk.ctx.Done() // cooperative: block until canceled
		return nil, nil
	}

	r := New(2, nil)
	jobs := make([]Job, 5)
	for i := range jobs {
		j := tinyJob("gauss", "sc")
		j.Cfg.Seed = uint64(i + 1)
		jobs[i] = j
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []*Result)
	go func() { done <- r.DoAll(ctx, jobs) }()
	<-started
	<-started // both workers occupied
	cancel()
	select {
	case results := <-done:
		for i, res := range results {
			if !res.Canceled {
				t.Fatalf("job %d not canceled: %+v", i, res)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DoAll did not return after cancellation")
	}
	if m := r.Meta(); m.Canceled != 5 {
		t.Fatalf("canceled = %d, want 5", m.Canceled)
	}
}

// TestCancellationStopsRealSimulation cancels mid-flight and requires
// the engine-level poll to stop the run. Timing-tolerant: if the job
// finishes before the cancel lands, the completed result is kept — that
// is the documented race resolution — and the test skips.
func TestCancellationStopsRealSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	job := Job{App: "gauss", Scale: apps.Small, Proto: "lrc", Cfg: config.Default(16)}
	job.Cfg.CacheSize = 8 << 10
	job.Cfg.Seed = 1
	r := New(1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *Result)
	go func() { done <- r.Do(ctx, job) }()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case res := <-done:
		if res.Completed {
			t.Skip("job completed before the cancel landed")
		}
		if !res.Canceled {
			t.Fatalf("incomplete run not marked canceled: %+v", res)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled simulation did not stop")
	}
}

// TestHookedExecIsByteIdentical pins that the daemon's in-run
// instrumentation (cancellation poll + heartbeat prober) is invisible to
// the simulation: a hooked execution serializes bit-identically to a
// plain one, while actually delivering ascending heartbeats.
func TestHookedExecIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	job := tinyJob("gauss", "lrc")
	plain := Exec(job)
	if plain.Failed() {
		t.Fatalf("plain run failed: %s", plain.Failure)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var beats []uint64
	_, hooked := execWith(job, hooks{
		ctx:   ctx,
		every: 8192,
		beat:  func(c uint64) { beats = append(beats, c) },
	}, false)
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(hooked)
	if !bytes.Equal(a, b) {
		t.Fatalf("hooked run differs from plain run:\n%s\n%s", a, b)
	}
	if len(beats) == 0 {
		t.Fatal("no heartbeats delivered")
	}
	for i := 1; i < len(beats); i++ {
		if beats[i] <= beats[i-1] {
			t.Fatalf("heartbeat cycles not ascending: %v", beats)
		}
	}
}
