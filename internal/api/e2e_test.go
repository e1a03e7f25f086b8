package api

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"lazyrc/internal/causal"
	"lazyrc/internal/exp"
	"lazyrc/internal/obs"
	"lazyrc/internal/runner"
	"lazyrc/internal/store"
)

// daemon is one test incarnation of the service stack: store, service,
// HTTP server, client.
type daemon struct {
	st  *store.Store
	svc *Service
	ts  *httptest.Server
	c   *Client
}

func startDaemon(t testing.TB, dir string, workers int) *daemon {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(workers, st, nil)
	ts := httptest.NewServer(NewServer(svc))
	hc := ts.Client()
	return &daemon{st: st, svc: svc, ts: ts, c: &Client{Base: ts.URL, HTTPClient: hc}}
}

// exposition is a scraped /metrics page: the families its TYPE lines
// declare and its sample lines as written. (The format itself is held to
// a strict parser in internal/obs, against WriteExposition.)
type exposition struct {
	families map[string]bool
	samples  []string
}

// scrapeMetrics fetches /metrics through the typed client.
func scrapeMetrics(t *testing.T, ctx context.Context, d *daemon) exposition {
	t.Helper()
	raw, err := d.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	e := exposition{families: map[string]bool{}}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			e.families[f[2]] = true
		} else if line != "" && !strings.HasPrefix(line, "#") {
			e.samples = append(e.samples, line)
		}
	}
	return e
}

// value reads the first sample of family name that carries every given
// label (`key="value"`), or -1 if there is none.
func (e exposition) value(name string, labels ...string) float64 {
	for _, s := range e.samples {
		i := strings.LastIndexByte(s, ' ')
		if i < 0 || (s[:i] != name && !strings.HasPrefix(s, name+"{")) {
			continue
		}
		all := true
		for _, l := range labels {
			all = all && strings.Contains(s[:i], l)
		}
		if v, err := strconv.ParseFloat(s[i+1:], 64); all && err == nil {
			return v
		}
	}
	return -1
}

// jobsCounter reads one kind's value from lrcsimd_jobs_total.
func jobsCounter(e exposition, kind string) float64 {
	return e.value("lrcsimd_jobs_total", `kind="`+kind+`"`)
}

// stop tears the incarnation down in daemon order: drain the service,
// close the bus, close the HTTP server, close the store.
func (d *daemon) stop(t testing.TB) {
	t.Helper()
	if err := d.svc.Close(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	d.ts.CloseClientConnections()
	d.ts.Close()
	if err := d.st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}
}

// TestEndToEnd is the PR's acceptance test: submit a sweep over HTTP,
// follow its SSE stream to completion, fetch the report; submit the
// identical sweep again and require zero new executions with
// byte-identical report bytes; then restart the daemon on the same store
// directory and require the resubmitted sweep to be served entirely from
// the persistent store — fingerprints stable across the restart — again
// byte-identical. Finally the whole stack must shut down without leaking
// goroutines.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	ctx := context.Background()
	dir := t.TempDir()

	// Let the runtime settle, then baseline the goroutine count.
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	d1 := startDaemon(t, dir, 4)
	if err := d1.c.Health(ctx); err != nil {
		t.Fatal(err)
	}

	// --- Cold submission: everything simulates. The bus, subscribed
	// before the submission, sees every lifecycle event; the SSE stream,
	// opened after it, may join once the cells have started, so it is held
	// to carrying this sweep's events and its terminal status. ---
	bus := watchEvents(d1.svc)
	spec := tinySpec()
	st, err := d1.c.SubmitSweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	sweepID := st.ID
	if spec.ID() != sweepID {
		t.Fatalf("server sweep ID %s != client-computed spec ID %s", sweepID, spec.ID())
	}

	var sseFPs []string
	st, err = d1.c.WaitSweep(ctx, sweepID, func(ev runner.Event) { sseFPs = append(sseFPs, ev.FP) })
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Error != "" {
		t.Fatalf("cold sweep: %+v", st)
	}
	if st.Jobs != 6 || st.Executed != 6 || st.FromCache != 0 {
		t.Fatalf("cold counters: %+v", st)
	}

	rep1, err := d1.c.SweepReport(ctx, sweepID)
	if err != nil {
		t.Fatal(err)
	}
	html1, err := d1.c.SweepHTML(ctx, sweepID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(html1, []byte("<html")) && !bytes.Contains(html1, []byte("<!DOCTYPE")) {
		t.Fatal("HTML report does not look like HTML")
	}

	// --- Warm resubmission, same daemon: the sweep record itself is the
	// singleflight — no new work, identical bytes. ---
	st2, err := d1.c.SubmitSweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != sweepID || st2.State != StateDone {
		t.Fatalf("resubmission: %+v", st2)
	}
	if m := d1.svc.rn.Meta(); m.Simulated != 6 {
		t.Fatalf("resubmission simulated: %+v", m)
	}
	rep2, err := d1.c.SweepReport(ctx, sweepID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep1, rep2) {
		t.Fatal("same-daemon resubmission served different report bytes")
	}

	// --- A single simulation is a one-cell sweep: created, idempotent,
	// and — the wider sweep having run the cell — resolved without a new
	// simulation. Its fingerprint, listed by the cells route, is the key
	// of the stored result and of the trace. ---
	cell := exp.Spec{Targets: []string{"default/gauss/lrc"}, Scale: "tiny", Procs: 4, Seed: 1}
	post := func(spec exp.Spec) (int, SweepStatus) {
		t.Helper()
		body, _ := json.Marshal(spec)
		resp, err := d1.ts.Client().Post(d1.ts.URL+"/api/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st SweepStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, st
	}
	code, cs := post(cell)
	if code != http.StatusCreated || cs.Jobs != 1 || cs.ID != cell.ID() {
		t.Fatalf("one-cell sweep: %d %+v", code, cs)
	}
	cellID := cs.ID
	if cs, err = d1.c.WaitSweep(ctx, cellID, nil); err != nil || cs.State != StateDone || cs.Executed != 0 || cs.Deduped != 1 {
		t.Fatalf("one-cell sweep over a cell fig4 ran: %+v, %v", cs, err)
	}
	if code, cs = post(cell); code != http.StatusOK || cs.ID != cellID || cs.State != StateDone {
		t.Fatalf("one-cell sweep resubmitted: %d %+v", code, cs)
	}
	if m := d1.svc.rn.Meta(); m.Simulated != 6 {
		t.Fatalf("the one-cell sweep re-simulated a sweep cell: %+v", m)
	}
	cells, err := d1.c.SweepCells(ctx, cellID)
	if err != nil || len(cells) != 1 || cells["default/gauss/lrc"] == "" {
		t.Fatalf("cells of the one-cell sweep: %v, %v", cells, err)
	}
	jobFP := cells["default/gauss/lrc"]
	wide, err := d1.c.SweepCells(ctx, sweepID)
	if err != nil || len(wide) != 6 || wide["default/gauss/lrc"] != jobFP {
		t.Fatalf("cells of the fig4 sweep: %v, %v", wide, err)
	}
	own := map[string]bool{}
	for _, fp := range wide {
		own[fp] = true
	}
	for _, fp := range sseFPs {
		if !own[fp] {
			t.Fatalf("the sweep's SSE stream carried another job's event (%s)", fp)
		}
	}
	cellRep, err := d1.c.SweepReport(ctx, cellID)
	if err != nil || !bytes.Contains(cellRep, []byte(`"protocol": "lrc"`)) {
		t.Fatalf("one-cell report: %s, %v", cellRep, err)
	}
	if res, err := d1.c.Job(ctx, jobFP); err != nil || res.Fingerprint != jobFP || res.App != "gauss" || res.ExecCycles == 0 {
		t.Fatalf("stored result by fingerprint: %+v, %v", res, err)
	}
	if _, err := d1.c.Job(ctx, "feedface"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown fingerprint: %v", err)
	}

	// --- Live Perfetto trace export for a cell a sweep names. ---
	trace, err := d1.c.JobTrace(ctx, jobFP)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := causal.ValidateTrace(trace); err != nil || n == 0 {
		t.Fatalf("trace invalid (%d events): %v", n, err)
	}

	// --- Hostile bodies are refused before anything is decoded into a
	// sweep: oversize (413) and a field the spec does not have (400,
	// naming it — a mistyped "seed" must not run as seed 0); both count
	// as 4xx on the submission route. ---
	for _, bad := range []struct {
		body string
		code int
		says string
	}{
		{`{"targets":["fig4"],"scale":"tiny","procs":4,"sede":7}`, http.StatusBadRequest, `"sede"`},
		{`{"targets":["` + strings.Repeat("x", maxBodyBytes) + `"]}`, http.StatusRequestEntityTooLarge, "too large"},
	} {
		resp, err := d1.ts.Client().Post(d1.ts.URL+"/api/v1/sweeps", "application/json", strings.NewReader(bad.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != bad.code || !strings.Contains(string(msg), bad.says) {
			t.Fatalf("%d-byte body answered %d %q, want %d naming %s", len(bad.body), resp.StatusCode, msg, bad.code, bad.says)
		}
	}
	if all, err := d1.c.Sweeps(ctx); err != nil || len(all) != 2 {
		t.Fatalf("refused bodies left a sweep behind: %v, %v", all, err)
	}

	stats, err := d1.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Store == nil || stats.Store.Entries != 6 {
		t.Fatalf("store stats after cold run: %+v", stats.Store)
	}

	// --- Observability: the exposition parses, covers every subsystem,
	// and its lifecycle counters agree with the cold run. ---
	fams := scrapeMetrics(t, ctx, d1)
	for _, name := range []string{
		"lrcsimd_build_info",
		"lrcsimd_http_requests_total",
		"lrcsimd_http_request_duration_seconds",
		"lrcsimd_jobs_total",
		"lrcsimd_pool_workers",
		"lrcsimd_bus_published_total",
		"lrcsimd_store_entries",
	} {
		if !fams.families[name] {
			t.Fatalf("exposition missing family %s", name)
		}
	}
	if got := jobsCounter(fams, "executed"); got != 6 {
		t.Fatalf("cold exposition executed=%v, want 6", got)
	}
	if got := jobsCounter(fams, "cache_hit"); got != 0 {
		t.Fatalf("cold exposition cache_hit=%v, want 0", got)
	}
	refused := fams.value("lrcsimd_http_requests_total", `route="POST /api/v1/sweeps"`, `code="4xx"`)
	if refused != 2 {
		t.Fatalf("exposition counts %v refused submissions, want 2", refused)
	}

	// --- Every response carries X-Request-Id; a supplied ID is echoed. ---
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d1.ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "e2e-probe-1")
	resp, err := d1.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "e2e-probe-1" {
		t.Fatalf("supplied request ID echoed as %q", got)
	}
	resp, err = d1.ts.Client().Get(d1.ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(obs.RequestIDHeader) == "" {
		t.Fatal("response without a supplied ID carries no generated X-Request-Id")
	}

	d1.stop(t)
	running := 0
	for _, ev := range bus.events() {
		if ev.Kind == runner.EventRunning {
			running++
		}
	}
	if running != 6 {
		t.Fatalf("the cold sweep's six cells announced %d running events", running)
	}

	// --- Restart on the same store directory: the resubmitted sweep is
	// served entirely from persistence, fingerprints stable. ---
	d2 := startDaemon(t, dir, 2)
	if err := d2.c.Health(ctx); err != nil {
		t.Fatal(err)
	}

	// The persisted sweep registry resurrects the sweep with no client
	// resubmission: the restarted daemon re-ran it from the store at
	// boot, so it is already listed — and must finish as a pure cache
	// replay with the identical report bytes.
	if _, err := d2.c.Sweep(ctx, sweepID); err != nil {
		t.Fatalf("sweep not restored from persisted registry: %v", err)
	}
	if all, err := d2.c.Sweeps(ctx); err != nil || len(all) != 2 || all[0].ID != sweepID || all[1].ID != cellID {
		t.Fatalf("restored sweep list: %v, %v", all, err)
	}
	// The one-cell sweep is restored like any other — which a job never
	// was — with the report it had.
	if cs, err = d2.c.WaitSweep(ctx, cellID, nil); err != nil || cs.State != StateDone || cs.Executed != 0 {
		t.Fatalf("restored one-cell sweep: %+v, %v", cs, err)
	}
	if again, err := d2.c.SweepReport(ctx, cellID); err != nil || !bytes.Equal(again, cellRep) {
		t.Fatalf("one-cell report drifted across restart (%v):\n%s", err, again)
	}

	st3, err := d2.c.SubmitSweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st3.ID != sweepID {
		t.Fatalf("sweep identity drifted across restart: %s != %s", st3.ID, sweepID)
	}
	st3, err = d2.c.WaitSweep(ctx, sweepID, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pure persistence, whichever way each cell resolved: the two
	// resurrected sweeps run concurrently, so a cell they share may be a
	// store hit for one and a dedup against it for the other.
	if st3.State != StateDone || st3.Executed != 0 || st3.FromCache+st3.Deduped != st3.Jobs {
		t.Fatalf("warm restart counters: %+v", st3)
	}
	if m := d2.svc.rn.Meta(); m.Simulated != 0 {
		t.Fatalf("warm restart runner: %+v", m)
	}
	rep3, err := d2.c.SweepReport(ctx, sweepID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep1, rep3) {
		t.Fatalf("report bytes drifted across restart:\n%s\n---\n%s", rep1, rep3)
	}

	// The cell's result is a store lookup under the same fingerprint,
	// though this daemon never ran it.
	if res, err := d2.c.Job(ctx, jobFP); err != nil || res.Fingerprint != jobFP {
		t.Fatalf("stored result after restart: %+v, %v", res, err)
	}

	// --- Warm-restart exposition: the boot replay is pure cache — zero
	// executions, every cell a store hit. ---
	fams2 := scrapeMetrics(t, ctx, d2)
	if got := jobsCounter(fams2, "executed"); got != 0 {
		t.Fatalf("warm exposition executed=%v, want 0", got)
	}
	if got := jobsCounter(fams2, "cache_hit"); got < 6 {
		t.Fatalf("warm exposition cache_hit=%v, want >= 6", got)
	}

	// --- A sweep cancelled mid-run: its jobs are stopped on the simulated
	// clock with every processor context still blocked; the leak check
	// below requires those contexts, and the machines they pin, gone. ---
	long := exp.Spec{Targets: []string{"fig4"}, Apps: []string{"gauss", "fft"}, Scale: "small", Procs: 16, Seed: 2}
	st4, err := d2.c.SubmitSweep(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	longID, cancelled := st4.ID, false
	st4, err = d2.c.WaitSweep(ctx, longID, func(ev runner.Event) {
		if ev.Kind == runner.EventRunning && !cancelled {
			cancelled = true
			if err := d2.c.CancelSweep(ctx, longID); err != nil {
				t.Errorf("cancel: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st4.State != StateCanceled {
		t.Fatalf("sweep cancelled at its first running job ended %s (%s)", st4.State, st4.Error)
	}
	if got := jobsCounter(scrapeMetrics(t, ctx, d2), "canceled"); got < 1 {
		t.Fatalf("exposition canceled=%v after a cancelled sweep, want >= 1", got)
	}

	d2.stop(t)

	// --- Zero leaked goroutines. ---
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}
