package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"lazyrc/internal/api"
	"lazyrc/internal/exp"
	"lazyrc/internal/runner"
	"lazyrc/internal/store"
)

// daemon is the lrcsimd stack inside this process: segment store, service,
// HTTP server and typed client, wired as cmd/lrcsimd wires them. One client
// connection, closed loop: the next sweep is posted only after the previous
// report has been fetched.
type daemon struct {
	st  *store.Store
	svc *api.Service
	ts  *httptest.Server
	c   *api.Client
}

func startDaemon(dir string, workers int, tr *tracer, parent int) (*daemon, error) {
	d := &daemon{}
	var err error
	tr.do("store.open", parent, func() { d.st, err = store.Open(dir) })
	if err != nil {
		return nil, err
	}
	tr.do("api.boot", parent, func() {
		d.svc = api.NewService(workers, d.st, nil)
		d.ts = httptest.NewServer(api.NewServer(d.svc))
		d.c = &api.Client{Base: d.ts.URL, HTTPClient: d.ts.Client()}
	})
	return d, nil
}

// stop tears down in daemon order: drain the service, close the server,
// close the store.
func (d *daemon) stop(tr *tracer, parent int) error {
	var err error
	tr.do("api.close", parent, func() {
		err = d.svc.Close(context.Background())
		d.ts.CloseClientConnections()
		d.ts.Close()
	})
	tr.do("store.close", parent, func() {
		if cerr := d.st.Close(); err == nil {
			err = cerr
		}
	})
	return err
}

// sweepOut is what the client holds after one sweep.
type sweepOut struct {
	status     api.SweepStatus
	json, html []byte
	sseEvents  int
	wait       time.Duration // inside WaitSweep
	latency    time.Duration // POST to report bytes
}

// sweep is the path a user of lrcsimd feels: POST the spec, follow the SSE
// stream to the terminal event, fetch the report as JSON and as HTML.
func (d *daemon) sweep(spec exp.Spec, tr *tracer, parent int) (sweepOut, error) {
	ctx := context.Background()
	var out sweepOut
	var err error
	id := tr.begin("sweep", parent)
	defer tr.end(id)
	t0 := time.Now()
	var st api.SweepStatus
	tr.do("api.submit", id, func() { st, err = d.c.SubmitSweep(ctx, spec) })
	if err != nil {
		return out, err
	}
	tr.do("api.wait", id, func() {
		t := time.Now()
		out.status, err = d.c.WaitSweep(ctx, st.ID, func(runner.Event) { out.sseEvents++ })
		out.wait = time.Since(t)
	})
	if err != nil {
		return out, err
	}
	tr.do("api.report_json", id, func() { out.json, err = d.c.SweepReport(ctx, st.ID) })
	if err != nil {
		return out, err
	}
	tr.do("api.report_html", id, func() { out.html, err = d.c.SweepHTML(ctx, st.ID) })
	out.latency = time.Since(t0)
	return out, err
}

// watchJobs rebuilds one span per executed job from the service's event
// stream (running to done), under parent, and returns a function that stops
// watching and gives the summed job time.
func watchJobs(svc *api.Service, tr *tracer, parent int) (stop func() time.Duration) {
	// A cold sweep publishes under 200 events (28 jobs: queued, running,
	// heartbeats, done); the room left over keeps a slow reader from losing any.
	sub := svc.Subscribe(4096)
	busy := make(chan time.Duration)
	go func() {
		queued, running := map[string]int64{}, map[string]int64{}
		var sum time.Duration
		for ev := range sub.C() {
			now := tr.now()
			switch ev.Kind {
			case runner.EventQueued:
				queued[ev.FP] = now
			case runner.EventRunning:
				running[ev.FP] = now
			case runner.EventDone, runner.EventFailed:
				note := fmt.Sprintf("%s/%s queued_ms=%.1f", ev.App, ev.Proto, float64(running[ev.FP]-queued[ev.FP])/1e6)
				tr.async("runner.job", parent, running[ev.FP], now, note)
				sum += time.Duration(now - running[ev.FP])
			}
		}
		busy <- sum
	}()
	return func() time.Duration {
		sub.Close()
		return <-busy
	}
}

// executedEvents is the engine-event total of every job the service's
// runner has executed. Meta hands out the runner's live profile, not a copy,
// so the number is read out at once, while the pool is idle.
func executedEvents(svc *api.Service) uint64 {
	if p := svc.Stats().Runner.Perf; p != nil {
		return p.Events
	}
	return 0
}

// reportCycles parses a stable report and sums what it says was simulated.
func reportCycles(raw []byte) (rep exp.Report, cycles, msgs uint64, unverified int, err error) {
	if err = json.Unmarshal(raw, &rep); err != nil {
		return rep, 0, 0, 0, fmt.Errorf("report: %w", err)
	}
	for _, r := range rep.Runs {
		cycles += r.ExecCycles
		msgs += r.NetworkMsgs
		if !r.Verified {
			unverified++
		}
	}
	return rep, cycles, msgs, unverified, nil
}

// sweepCold posts a cold sweep per rep to one daemon: Figures 4 and 6 at
// small scale on 64 processors, 28 cells over 7 applications and 4
// protocols, each rep under a new seed, which makes new fingerprints for the
// same simulated work. A unit is one engine event.
type sweepCold struct {
	e     *env
	dir   string
	d     *daemon
	ref   *paperRef
	first *exp.Report // rep 0's report: later seeds must reproduce its simulated numbers
}

func (s *sweepCold) setup(e *env) error {
	s.e, s.first = e, nil
	var err error
	if s.ref, err = loadPaperRef(); err != nil {
		return err
	}
	if s.dir, err = os.MkdirTemp(e.dir, "cold-"); err != nil {
		return err
	}
	s.d, err = startDaemon(s.dir, e.workers, nil, 0)
	return err
}

func (s *sweepCold) teardown() {
	if s.d != nil {
		s.e.check(s.d.stop(nil, 0) == nil, "daemon did not stop cleanly")
		s.d = nil
	}
	os.RemoveAll(s.dir)
}

func (s *sweepCold) run(i int, tr *tracer) (rep, error) {
	scale := "small"
	if s.e.smoke {
		scale = "tiny"
	}
	spec := exp.Spec{Targets: []string{"fig4", "fig6"}, Scale: scale, Procs: 64, Seed: s.e.seed + uint64(i)}
	root := tr.begin("rep", 0)
	defer tr.end(root)

	var stopWatch func() time.Duration
	if tr != nil {
		stopWatch = watchJobs(s.d.svc, tr, root)
	}
	eventsBefore, droppedBefore := executedEvents(s.d.svc), s.d.svc.Stats().Bus.Dropped
	var out sweepOut
	var err error
	var r rep
	r.measured = measure(func() { out, err = s.d.sweep(spec, tr, root) })
	if err != nil {
		return r, err
	}
	events := executedEvents(s.d.svc) - eventsBefore
	r.counts = map[string]float64{}
	if stopWatch != nil {
		r.counts["runner.pool_busy_share"] = stopWatch().Seconds() / (float64(s.e.workers) * out.wait.Seconds())
	}

	st := out.status
	s.e.check(st.State == api.StateDone && st.Failed == 0, "sweep ended %s with %d failed jobs: %s", st.State, st.Failed, st.Error)
	s.e.check(st.Executed == st.Jobs && st.Jobs > 0, "cold sweep executed %d of %d cells", st.Executed, st.Jobs)
	s.e.check(bytes.Contains(out.html, []byte("<html")), "HTML report does not look like HTML")
	report, cycles, msgs, unverified, err := reportCycles(out.json)
	if err != nil {
		return r, err
	}
	s.e.check(unverified == 0, "%d cells do not verify", unverified)
	// The telemetry export carries the seed, so its digest is the one field
	// of a report that follows the seed; every simulated number must not.
	for i := range report.Runs {
		report.Runs[i].MetricsDigest = ""
	}
	if s.first == nil {
		s.first = &report
	} else {
		s.e.check(reflect.DeepEqual(report, *s.first), "report under seed %d differs from rep 0's in a simulated number", spec.Seed)
	}

	if events == 0 {
		return r, fmt.Errorf("the runner reports no executed events")
	}
	r.units, r.simWork = events, cycles
	r.counts["sim.events"] = float64(events)
	r.counts["mesh.msgs"] = float64(msgs)
	r.counts["mesh.msgs_per_event"] = float64(msgs) / float64(events)
	r.counts["api.sse_events"] = float64(out.sseEvents)
	r.counts["api.sse_dropped"] = float64(s.d.svc.Stats().Bus.Dropped - droppedBefore)
	r.counts["stats.fig4_abs_err_pp"] = s.ref.fig4Err(report)
	r.counts["stats.table2_abs_err_pp"] = s.ref.table2Err(report)
	return r, nil
}

func (s *sweepCold) finish(bool) map[string]float64 { return nil }

//go:embed reference/paper.json
var paperJSON []byte

// paperRef is reference/paper.json.
type paperRef struct {
	Validation string                        `json:"validation"`
	Fig4       map[string]float64            `json:"fig4_lazy_gain_pct"`
	Table2     map[string]map[string]float64 `json:"table2_miss_shares_pct"`
}

func loadPaperRef() (*paperRef, error) {
	var p paperRef
	if err := json.Unmarshal(paperJSON, &p); err != nil {
		return nil, fmt.Errorf("reference/paper.json: %w", err)
	}
	return &p, nil
}

// fig4Err is the mean, over the applications, of the distance in percentage
// points between the measured gain of lrc over erc and the paper's call.
func (p *paperRef) fig4Err(rep exp.Report) float64 {
	cycles := map[[2]string]float64{}
	for _, r := range rep.Runs {
		if r.Config == "default" {
			cycles[[2]string{r.App, r.Protocol}] = float64(r.ExecCycles)
		}
	}
	var sum float64
	for app, want := range p.Fig4 {
		erc, lrc := cycles[[2]string{app, "erc"}], cycles[[2]string{app, "lrc"}]
		sum += math.Abs(100*(erc-lrc)/erc - want)
	}
	return sum / float64(len(p.Fig4))
}

// table2Err is the mean absolute distance, in percentage points, between
// the measured miss classification under erc and the paper's Table 2.
func (p *paperRef) table2Err(rep exp.Report) float64 {
	var sum float64
	var n int
	for _, r := range rep.Runs {
		if want, ok := p.Table2[r.App]; ok && r.Config == "default" && r.Protocol == "erc" {
			for kind, share := range want {
				sum += math.Abs(r.MissShares[kind] - share)
				n++
			}
		}
	}
	return sum / float64(n)
}

// sweepWarm bypasses the simulator: every cell a sweep asks for is already
// in the store. Set-up fills a store with Figures 4 and 6 at tiny scale (28
// cells, which also cover Tables 2 and 3 and Figures 5 and 7). A rep copies
// that store and runs two daemon incarnations over the copy, the second
// resurrecting the first's sweep registry; each posts warmSweeps distinct
// specs (seeded choices of targets and applications) and the fill spec. A
// unit is one sweep, POST to report bytes.
type sweepWarm struct {
	e        *env
	pristine string
	fill     exp.Spec
	cold     sweepOut // the fill sweep as it ran cold
	specs    []exp.Spec
	lat      []float64 // every warm sweep's latency, ms
}

const warmSweeps = 100

func (s *sweepWarm) setup(e *env) error {
	s.e, s.lat = e, nil
	var err error
	if s.pristine, err = os.MkdirTemp(e.dir, "warm-"); err != nil {
		return err
	}
	s.fill = exp.Spec{Targets: []string{"fig4", "fig6"}, Scale: "tiny", Procs: 64, Seed: 1}
	d, err := startDaemon(s.pristine, e.workers, nil, 0)
	if err != nil {
		return err
	}
	s.cold, err = d.sweep(s.fill, nil, 0)
	if serr := d.stop(nil, 0); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	if err := s.gate(); err != nil {
		return err
	}

	// The specs: distinct (targets, applications) choices among those the
	// filled cells cover, in an order the seed fixes.
	targets := []string{"table2", "table3", "fig4", "fig5", "fig6", "fig7"}
	n := warmSweeps
	if e.smoke {
		n = 10
	}
	r := rng(e.seed)
	seen := map[string]bool{s.fill.ID(): true}
	s.specs = nil
	for len(s.specs) < 2*n {
		spec := exp.Spec{Scale: "tiny", Procs: 64, Seed: 1}
		spec.Targets = pick(&r, targets)
		spec.Apps = pick(&r, exp.AppOrder)
		if id := spec.ID(); !seen[id] {
			seen[id] = true
			s.specs = append(s.specs, spec)
		}
	}
	return nil
}

// pick returns a non-empty subset of from, chosen by r.
func pick(r *rng, from []string) []string {
	for {
		var out []string
		for _, s := range from {
			if r.intn(2) == 1 {
				out = append(out, s)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
}

// gate holds the cold fill to the committed behavioural contract: its cells
// must match BENCH_baseline.json exactly (tolerance 0).
func (s *sweepWarm) gate() error {
	st := s.cold.status
	s.e.check(st.State == api.StateDone && st.Failed == 0 && st.Executed == st.Jobs, "fill sweep: %+v", st)
	fresh, _, _, unverified, err := reportCycles(s.cold.json)
	if err != nil {
		return err
	}
	s.e.check(unverified == 0, "%d filled cells do not verify", unverified)
	base, err := exp.LoadReport(filepath.Join(s.e.root, "BENCH_baseline.json"))
	if err != nil {
		return err
	}
	have := map[[3]string]bool{}
	for _, r := range fresh.Runs {
		have[[3]string{r.Config, r.App, r.Protocol}] = true
	}
	kept := base.Runs[:0:0]
	for _, r := range base.Runs {
		if have[[3]string{r.Config, r.App, r.Protocol}] {
			kept = append(kept, r)
		}
	}
	base.Runs = kept
	violations := exp.Gate(base, fresh, 0)
	s.e.check(len(violations) == 0, "fill differs from BENCH_baseline.json: %v", violations)
	return nil
}

func (s *sweepWarm) teardown() { os.RemoveAll(s.pristine) }

func (s *sweepWarm) run(i int, tr *tracer) (rep, error) {
	dir, err := os.MkdirTemp(s.e.dir, "copy-")
	if err != nil {
		return rep{}, err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(s.pristine, dir); err != nil {
		return rep{}, err
	}
	root := tr.begin("rep", 0)
	defer tr.end(root)

	half := len(s.specs) / 2
	var r rep
	var lat []float64
	var sseEvents, dropped uint64
	var cycles uint64
	r.measured = measure(func() {
		for inc := 0; inc < 2 && err == nil; inc++ {
			incSpan := tr.begin("incarnation", root)
			var d *daemon
			if d, err = startDaemon(dir, s.e.workers, tr, incSpan); err != nil {
				break
			}
			for _, spec := range append([]exp.Spec{s.fill}, s.specs[inc*half:(inc+1)*half]...) {
				var out sweepOut
				if out, err = d.sweep(spec, tr, incSpan); err != nil {
					break
				}
				st := out.status
				s.e.check(st.State == api.StateDone && st.Executed == 0 && st.FromCache+st.Deduped == st.Jobs && st.Jobs > 0,
					"warm sweep was not served from the store: %+v", st)
				if spec.ID() == s.fill.ID() {
					s.e.check(bytes.Equal(out.json, s.cold.json) && bytes.Equal(out.html, s.cold.html),
						"incarnation %d serves the fill report differently from the cold run", inc)
					_, cycles, _, _, err = reportCycles(out.json)
				}
				lat = append(lat, float64(out.latency.Nanoseconds())/1e6)
				sseEvents += uint64(out.sseEvents)
				r.units++
			}
			if err == nil {
				dropped += d.svc.Stats().Bus.Dropped
				err = d.stop(tr, incSpan)
			}
			tr.end(incSpan)
		}
	})
	if err != nil {
		return r, err
	}
	r.simWork = cycles
	s.lat = append(s.lat, lat...)
	r.counts = map[string]float64{
		"api.sse_events":  float64(sseEvents),
		"api.sse_dropped": float64(dropped),
	}
	return r, nil
}

func (s *sweepWarm) finish(bool) map[string]float64 {
	sort.Float64s(s.lat)
	p50, p90 := s.lat[len(s.lat)/2], s.lat[len(s.lat)*9/10]
	fmt.Fprintf(os.Stderr, "warm sweep latency: p50 %.3f ms, p90 %.3f ms, max %.3f ms, n=%d\n", p50, p90, s.lat[len(s.lat)-1], len(s.lat))
	return map[string]float64{"api.sweep_p90_over_p50": p90 / p50}
}

// copyDir copies the regular files of one flat directory into another.
func copyDir(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		src, err := os.Open(filepath.Join(from, ent.Name()))
		if err != nil {
			return err
		}
		dst, err := os.Create(filepath.Join(to, ent.Name()))
		if err != nil {
			src.Close()
			return err
		}
		_, err = io.Copy(dst, src)
		src.Close()
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
