package api

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lazyrc/internal/exp"
	"lazyrc/internal/obs"
	"lazyrc/internal/runner"
	"lazyrc/internal/store"
)

// tinySpec is the test sweep: fig4 over two applications at tiny scale
// on a 4-processor machine — 6 unique cells (sc, erc, lrc × 2 apps).
func tinySpec() exp.Spec {
	return exp.Spec{Targets: []string{"fig4"}, Apps: []string{"gauss", "fft"}, Scale: "tiny", Procs: 4, Seed: 1}
}

// eventLog drains a bus subscription in the background until the bus
// closes, accumulating every event.
type eventLog struct {
	mu  sync.Mutex
	evs []runner.Event
	fin chan struct{}
}

func watchEvents(svc *Service) *eventLog {
	l := &eventLog{fin: make(chan struct{})}
	sub := svc.Subscribe(1 << 16)
	go func() {
		defer close(l.fin)
		for ev := range sub.C() {
			l.mu.Lock()
			l.evs = append(l.evs, ev)
			l.mu.Unlock()
		}
	}()
	return l
}

// events returns the log after the bus has closed.
func (l *eventLog) events() []runner.Event {
	<-l.fin
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]runner.Event(nil), l.evs...)
}

// TestSweepSingleflight is the concurrency acceptance test: N goroutines
// submitting the identical sweep through the HTTP API share one sweep
// record, and the bus stream shows exactly one execution per unique cell
// fingerprint — the layered singleflight (sweep identity at the service,
// job fingerprint at the runner) held under contention.
func TestSweepSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	svc := NewService(4, nil, nil)
	log := watchEvents(svc)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c := &Client{Base: ts.URL, HTTPClient: ts.Client()}
	ctx := context.Background()

	const n = 8
	var wg sync.WaitGroup
	ids := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.SubmitSweep(ctx, tinySpec())
			ids[i], errs[i] = st.ID, err
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got sweep %s, want %s", i, ids[i], ids[0])
		}
	}

	st, err := c.WaitSweep(ctx, ids[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("sweep finished %s (%s), want done", st.State, st.Error)
	}
	if st.Jobs != 6 || st.Completed != 6 || st.Executed != 6 || st.FromCache != 0 || st.Failed != 0 {
		t.Fatalf("sweep counters: %+v", st)
	}

	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}
	running := map[string]int{}
	for _, ev := range log.events() {
		if ev.Kind == runner.EventRunning {
			running[ev.FP]++
		}
	}
	if len(running) != 6 {
		t.Fatalf("executions touched %d fingerprints, want 6", len(running))
	}
	for fp, n := range running {
		if n != 1 {
			t.Fatalf("fingerprint %s executed %d times, want exactly 1", fp, n)
		}
	}
	if m := svc.rn.Meta(); m.Simulated != 6 {
		t.Fatalf("runner simulated %d jobs, want 6: %+v", m.Simulated, m)
	}
}

// TestSweepCancellation: a canceled sweep reaches the canceled terminal
// state promptly and the daemon survives it.
func TestSweepCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	svc := NewService(1, nil, nil)
	defer svc.Close(context.Background())

	// Every app on fig4 at tiny scale: enough cells that one worker
	// cannot finish before the cancel lands.
	spec := exp.Spec{Targets: []string{"fig4"}, Scale: "tiny", Procs: 4, Seed: 1}
	st, created, err := svc.SubmitSweep(context.Background(), spec)
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	if err := svc.CancelSweep(st.ID); err != nil {
		t.Fatal(err)
	}
	sw, err := svc.lookup(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sw.done:
	case <-time.After(60 * time.Second):
		t.Fatal("canceled sweep did not terminate")
	}
	st, err = svc.Sweep(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled && st.State != StateDone {
		t.Fatalf("canceled sweep state %s (%s)", st.State, st.Error)
	}
	// Near-certain with one worker and 21 cells, but a very fast machine
	// could legitimately finish first; only the prompt-termination part
	// is unconditional.
	if st.State == StateDone {
		t.Log("sweep completed before the cancel landed (acceptable race)")
	}
}

// TestSubmitRejectsBadSpecs: validation failures surface as errors, not
// sweeps.
func TestSubmitRejectsBadSpecs(t *testing.T) {
	svc := NewService(1, nil, nil)
	defer svc.Close(context.Background())
	if _, _, err := svc.SubmitSweep(context.Background(), exp.Spec{Targets: []string{"fig99"}}); err == nil {
		t.Fatal("unknown target accepted")
	}
	if _, _, err := svc.SubmitSweep(context.Background(), exp.Spec{Targets: []string{"default/doom/lrc"}}); err == nil {
		t.Fatal("unknown app accepted")
	}
	// What the machine would refuse at run time is refused at submission:
	// an unknown protocol, a machine envelope no cell can be built on.
	if _, _, err := svc.SubmitSweep(context.Background(), exp.Spec{Targets: []string{"default/gauss/warp"}, Scale: "tiny", Procs: 4}); err == nil || !strings.Contains(err.Error(), "warp") {
		t.Fatalf("unknown protocol: %v", err)
	}
	if _, _, err := svc.SubmitSweep(context.Background(), exp.Spec{Targets: []string{"fig4"}, Scale: "tiny", Procs: -3}); err == nil {
		t.Fatal("sweep on a negative processor count accepted")
	}
	if n := len(svc.Sweeps()); n != 0 {
		t.Fatalf("%d rejected submissions left a record behind", n)
	}
}

// TestSweepCountersAreTruthful: a sweep submits each of its cells to the
// runner exactly once, so the lifecycle counters say what happened — a
// lone cold sweep queues as many jobs as it has and deduplicates nothing;
// a second sweep overlapping it deduplicates exactly the overlap.
func TestSweepCountersAreTruthful(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	svc := NewService(2, nil, nil)
	defer svc.Close(context.Background())
	run := func(target string) SweepStatus {
		t.Helper()
		st, created, err := svc.SubmitSweep(context.Background(),
			exp.Spec{Targets: []string{target}, Apps: []string{"gauss"}, Scale: "tiny", Procs: 4, Seed: 1})
		if err != nil || !created {
			t.Fatalf("submit %s: created=%v err=%v", target, created, err)
		}
		sw, err := svc.lookup(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		<-sw.done
		if st, err = svc.Sweep(st.ID); err != nil || st.State != StateDone {
			t.Fatalf("sweep %s: %+v, %v", target, st, err)
		}
		return st
	}
	counter := func(kind string) int { return int(svc.jobEvents.With(kind).Value()) }

	cold := run("fig4") // gauss under sc, erc, lrc
	if cold.Jobs != 3 || cold.Executed != 3 || cold.Deduped != 0 || cold.Completed != 3 {
		t.Fatalf("lone cold sweep: %+v", cold)
	}
	if q, d := counter("queued"), counter("deduped"); q != cold.Jobs || d != 0 {
		t.Fatalf("lone cold sweep of %d jobs: queued=%d deduped=%d, want %d and 0", cold.Jobs, q, d, cold.Jobs)
	}

	over := run("fig6") // gauss under sc, lrc, lrc-ext: sc and lrc overlap
	if over.Jobs != 3 || over.Executed != 1 || over.Deduped != 2 || over.Completed != 3 {
		t.Fatalf("overlapping sweep: %+v", over)
	}
	if q, d := counter("queued"), counter("deduped"); q != 6 || d != 2 {
		t.Fatalf("after the overlapping sweep: queued=%d deduped=%d, want 6 and 2", q, d)
	}
	// A finished sweep leaves the event fan-out index.
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if len(svc.live) != 0 {
		t.Fatalf("finished sweeps still indexed under %d fingerprints", len(svc.live))
	}
}

// TestDrainRefusesNewWork: after Drain begins, submissions are rejected
// with ErrDraining (the HTTP layer maps it to 503), and the probe split
// holds: /readyz answers 503 from the drain on while /healthz stays 200
// until the process dies.
func TestDrainRefusesNewWork(t *testing.T) {
	svc := NewService(1, nil, nil)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c := &Client{Base: ts.URL, HTTPClient: ts.Client()}

	// Before the drain both probes answer.
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Readyz(context.Background()); err != nil {
		t.Fatalf("readyz before drain: %v", err)
	}

	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.SubmitSweep(context.Background(), tinySpec()); err != ErrDraining {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}
	_, err := c.SubmitSweep(context.Background(), tinySpec())
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("drained daemon answered %v, want 503", err)
	}
	// Readiness drops with the drain; liveness does not.
	if err := c.Readyz(context.Background()); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("readyz after drain: %v, want 503", err)
	}
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("healthz must stay 200 through the drain: %v", err)
	}
}

// TestRequestIDThreading: the submitting request's X-Request-Id is
// echoed on the response, stamped into the HTTP access line, and
// carried by the sweep's lifecycle lines — one grep follows the request
// from ingress to the sweep's terminal state.
func TestRequestIDThreading(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var buf syncLogBuffer
	svc := NewService(4, nil, slog.New(slog.NewTextHandler(&buf, nil)))
	defer svc.Close(context.Background())
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	body, _ := json.Marshal(tinySpec())
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, "trace-me-42")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "trace-me-42" {
		t.Fatalf("response echoed request ID %q, want trace-me-42", got)
	}

	sw, err := svc.lookup(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	<-sw.done

	logs := buf.String()
	for _, want := range []string{
		`msg=http`, `request_id=trace-me-42`,
		`msg="sweep submitted"`, `msg="sweep finished"`,
	} {
		if !strings.Contains(logs, want) {
			t.Fatalf("log output missing %q:\n%s", want, logs)
		}
	}
	// Every lifecycle line for this sweep carries the submitting ID.
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, "sweep submitted") || strings.Contains(line, "sweep finished") {
			if !strings.Contains(line, "request_id=trace-me-42") {
				t.Fatalf("lifecycle line lost the request ID: %s", line)
			}
		}
	}
}

// syncLogBuffer is a mutex-guarded bytes.Buffer for concurrent slog use.
type syncLogBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncLogBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncLogBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestBootRegistryWrites: resurrection writes the sweep registry at most
// once, and only when it changed. 500 registered sweeps come back with
// the file untouched — same inode, same bytes — and a submission after
// boot appends exactly its own spec. A registry with a duplicate, a spec
// that no longer validates and a document that is no spec at all is
// rewritten to the sweeps that came back.
func TestBootRegistryWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 500 sweeps")
	}
	specDoc := func(seed uint64) json.RawMessage {
		n, err := exp.Spec{Targets: []string{"default/gauss/sc"}, Scale: "tiny", Procs: 4, Seed: seed}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	docs := make([]json.RawMessage, 500)
	for i := range docs {
		docs[i] = specDoc(uint64(i + 1))
	}
	registry := func(docs []json.RawMessage) []byte {
		b, err := json.Marshal(docs)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	// boot starts a service over a registry file holding raw, checks it
	// resurrected want sweeps, and returns the service, its store and
	// whether the file was replaced.
	boot := func(dir string, raw []byte, want int) (*Service, *store.Store, bool) {
		t.Helper()
		path := filepath.Join(dir, "sweeps.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		before, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		svc := NewService(1, st, nil)
		if n := len(svc.Sweeps()); n != want {
			t.Fatalf("booted %d sweeps, want %d", n, want)
		}
		after, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return svc, st, !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime())
	}
	shutdown := func(svc *Service, st *store.Store) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // the resurrected sweeps are not the point: stop them
		svc.Close(ctx)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	fileIs := func(dir string, want []byte) {
		t.Helper()
		got, err := os.ReadFile(filepath.Join(dir, "sweeps.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("registry file:\n%s\nwant:\n%s", got, want)
		}
	}

	dir := t.TempDir()
	svc, st, rewritten := boot(dir, registry(docs), len(docs))
	if rewritten {
		t.Fatal("a boot that dropped nothing rewrote the registry")
	}
	fileIs(dir, registry(docs))
	extra := exp.Spec{Targets: []string{"default/gauss/sc"}, Scale: "tiny", Procs: 4, Seed: 9999}
	if _, created, err := svc.SubmitSweep(context.Background(), extra); err != nil || !created {
		t.Fatalf("submit after boot: created=%v err=%v", created, err)
	}
	fileIs(dir, registry(append(docs[:len(docs):len(docs)], specDoc(9999))))
	shutdown(svc, st)

	dir = t.TempDir()
	dirty := append([]json.RawMessage{docs[0], json.RawMessage(`[1]`)}, docs...)
	dirty = append(dirty, json.RawMessage(`{"targets":["fig99"]}`))
	svc, st, rewritten = boot(dir, registry(dirty), len(docs))
	if !rewritten {
		t.Fatal("a boot that dropped specs left the registry as it was")
	}
	fileIs(dir, registry(docs))
	shutdown(svc, st)
}
