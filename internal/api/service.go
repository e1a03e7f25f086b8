package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"time"

	"lazyrc/internal/bus"
	"lazyrc/internal/exp"
	"lazyrc/internal/obs"
	"lazyrc/internal/runner"
	"lazyrc/internal/store"
)

// ErrDraining is returned by submissions after shutdown has begun.
var ErrDraining = errors.New("api: daemon is draining")

// ErrNotFound is returned for unknown sweep identities and fingerprints.
var ErrNotFound = errors.New("api: not found")

// ErrNotFinished is returned for the report of a sweep still running.
var ErrNotFinished = errors.New("api: sweep has not finished")

// serverFault marks an error that is the daemon's, not the request's: a
// report the encoder refuses, a trace re-run that fails.
type serverFault struct{ error }

// Service is the daemon's core: it owns the runner pool, the persistent
// result store, and the event bus, and it tracks every submitted sweep —
// the one unit of submission: a single simulation is a sweep whose only
// target is its cell key. HTTP handlers and tests talk to it directly;
// it has no transport dependencies of its own.
type Service struct {
	rn *runner.Runner
	st *store.Store // nil when running without persistence
	b  *bus.Bus[runner.Event]

	// Observability plane (wall-clock, never the simulated clock): the
	// metrics registry every endpoint and subsystem reports into, the
	// structured logger, and the per-route HTTP metric families the
	// server middleware feeds.
	reg   *obs.Registry
	log   *slog.Logger
	httpm *obs.HTTPMetrics
	start time.Time

	jobEvents map[runner.EventKind]*obs.Counter // each lifecycle event kind's counter
	simSpeed  *obs.GaugeVec                     // live cycles/sec of running jobs by (app, proto)

	runCtx context.Context // parent of every submission's context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	draining bool
	sweeps   map[string]*sweepState
	order    []string // sweep IDs in first-submission order
	// live indexes the sweeps not yet terminal by each fingerprint they
	// contain: a job event is folded into these and no others, so its
	// cost does not grow with the sweeps ever registered.
	live map[string][]*sweepState
	// rates tracks per-fingerprint heartbeat progress of running jobs,
	// feeding the lrcsimd_sim_cycles_per_second gauge. Wall-clock
	// observability only.
	rates map[string]*jobRate

	// What all sweeps share: each cell's keyed job, fingerprinted once
	// per daemon, and each run's report JSON, kept by result.
	jobs  exp.CellJobs
	frags exp.RunJSON
}

// jobRate is one running job's last observed heartbeat, for the live
// throughput gauge: cycles/sec between consecutive heartbeats.
type jobRate struct {
	lastCycle uint64
	lastAt    time.Time
}

// sweepState is one sweep's record. status is mutated under Service.mu;
// done closes exactly once when the sweep reaches a terminal state, after
// which rep is immutable until render turns it into the report bytes.
type sweepState struct {
	status SweepStatus
	// reqID is the submitting request's ID, stamped into every
	// lifecycle log line so one grep follows the request end to end.
	reqID string
	// doc is the normalized spec's canonical JSON (exp.Spec.Canonical),
	// kept from submission: the registry writes these bytes as they are.
	doc []byte
	// cells, fps and jobs are the sweep's expansion, computed once at
	// submission: the cells, the fingerprint of each, and every runner
	// job by fingerprint (the identity set events are attributed by, and
	// what a trace request re-executes). doneFPs is the subset that has
	// reached a terminal state; it backs Completed.
	cells   [][3]string
	fps     []string
	jobs    map[string]runner.Job
	doneFPs map[string]bool
	cancel  context.CancelFunc
	done    chan struct{}
	// startedAt is stamped when the sweep leaves queued, for the
	// terminal status's wall-clock duration.
	startedAt time.Time

	// rep is the stable report, kept from completion until the first
	// fetch: render encodes both forms once and drops it, so a sweep
	// nobody fetches (one resurrected at boot) never pays for rendering.
	rep        exp.Report
	render     sync.Once
	reportJSON []byte // stable report, indented JSON
	reportHTML []byte // self-contained HTML rendering
	renderErr  error  // what either encoder returned
}

// NewService builds a service executing on a pool of the given size,
// persisting through st (nil disables persistence) and logging through
// logger (nil discards). The bus and runner start empty; the sweep
// registry is reloaded from the store's persisted sidecar,
// resurrecting every sweep a previous daemon incarnation accepted — the
// re-runs resolve from the result store, so a warm boot restores
// finished reports without simulating. Close tears everything down.
func NewService(workers int, st *store.Store, logger *slog.Logger) *Service {
	var rstore runner.ResultStore
	if st != nil {
		rstore = st
	}
	if logger == nil {
		logger = obs.NopLogger()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		rn:     runner.New(workers, rstore),
		st:     st,
		b:      bus.New[runner.Event](),
		reg:    obs.NewRegistry(),
		log:    logger,
		start:  time.Now(),
		runCtx: ctx,
		cancel: cancel,
		sweeps: make(map[string]*sweepState),
		live:   make(map[string][]*sweepState),
		rates:  make(map[string]*jobRate),
	}
	s.registerMetrics()
	s.rn.Emit = s.onEvent
	if st != nil {
		// Resurrection submissions carry a synthetic request ID so their
		// lifecycle log lines are distinguishable from client traffic.
		bootCtx := obs.WithRequestID(context.Background(), "boot")
		loaded, dropped := st.Sweeps()
		for _, raw := range loaded {
			var spec exp.Spec
			if json.Unmarshal(raw, &spec) == nil { // schema drift: skip
				s.submit(bootCtx, spec, false) // a spec that no longer validates is dropped
			}
		}
		// The registry is rewritten only if resurrection changed it (a torn
		// or corrupt line, a spec dropped, a duplicate merged, a canonical
		// form moved): whole lines only, so no append fuses with a torn tail.
		s.mu.Lock()
		kept := make([]json.RawMessage, len(s.order))
		for i, id := range s.order {
			kept[i] = s.sweeps[id].doc
		}
		s.mu.Unlock()
		if dropped > 0 || !slices.EqualFunc(loaded, kept, func(a, b json.RawMessage) bool { return bytes.Equal(a, b) }) {
			if err := st.SaveSweeps(kept); err != nil {
				s.log.Warn("sweep registry not rewritten", "err", err)
			}
		}
	}
	return s
}

// registerMetrics builds the daemon's metric inventory: runner
// lifecycle counters (folded from the Emit stream), and func-backed
// gauges bridging the pool/bus/store Stats snapshots into the
// exposition. Wall-clock plane only — nothing here observes simulated
// time.
func (s *Service) registerMetrics() {
	obs.RegisterBuildInfo(s.reg, "lrcsimd")
	s.httpm = obs.NewHTTPMetrics(s.reg, "lrcsimd")

	jobs := s.reg.CounterVec("lrcsimd_jobs_total",
		"Job lifecycle events by kind: executed (fresh simulations), "+
			"cache_hit (served from the persistent store), deduped (resolved "+
			"by an identical in-flight or finished job), done, failed "+
			"(panics and construction errors), canceled, queued.",
		"kind")
	// Every kind's series is created here, at zero (a warm daemon's
	// executed=0 is a statement the exposition must make, not an absent
	// series), and an event increments it without a label lookup.
	s.jobEvents = map[runner.EventKind]*obs.Counter{runner.EventHeartbeat: s.reg.Counter(
		"lrcsimd_job_heartbeats_total", "Progress heartbeats received from running simulations.")}
	for _, k := range []struct {
		kind  runner.EventKind
		label string
	}{{runner.EventQueued, "queued"}, {runner.EventRunning, "executed"}, {runner.EventCached, "cache_hit"},
		{runner.EventDedup, "deduped"}, {runner.EventDone, "done"}, {runner.EventFailed, "failed"}, {runner.EventCanceled, "canceled"}} {
		s.jobEvents[k.kind] = jobs.With(k.label)
	}
	s.simSpeed = s.reg.GaugeVec("lrcsimd_sim_cycles_per_second",
		"Live simulation speed of running jobs (simulated cycles per "+
			"wall-clock second, measured between consecutive heartbeats; "+
			"0 when no job with the label pair is running).",
		"app", "proto")

	s.reg.GaugeFunc("lrcsimd_pool_workers", "Simulation worker pool size.",
		func() float64 { return float64(s.rn.Pool().Workers) })
	s.reg.GaugeFunc("lrcsimd_pool_running", "Jobs holding a worker slot right now.",
		func() float64 { return float64(s.rn.Pool().Running) })
	s.reg.GaugeFunc("lrcsimd_pool_queued", "Submissions in flight without a worker slot (queued or deduplicating).",
		func() float64 { return float64(s.rn.Pool().Queued) })

	s.reg.GaugeFunc("lrcsimd_bus_subscribers", "Attached event-bus subscribers (SSE streams).",
		func() float64 { return float64(s.b.Stats().Subscribers) })
	s.reg.CounterFunc("lrcsimd_bus_published_total", "Events published to the bus.",
		func() float64 { return float64(s.b.Stats().Published) })
	s.reg.CounterFunc("lrcsimd_bus_dropped_total", "Per-subscriber deliveries lost to full buffers.",
		func() float64 { return float64(s.b.Stats().Dropped) })

	s.reg.GaugeFunc("lrcsimd_sweeps", "Sweeps registered (all states).",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.sweeps)) })
	s.reg.GaugeFunc("lrcsimd_uptime_seconds", "Seconds since the service was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })

	if s.st == nil {
		return
	}
	s.reg.GaugeFunc("lrcsimd_store_segments", "On-disk segment files.",
		func() float64 { return float64(s.st.Stats().Segments) })
	s.reg.GaugeFunc("lrcsimd_store_entries", "Live fingerprints in the store index.",
		func() float64 { return float64(s.st.Stats().Entries) })
	s.reg.GaugeFunc("lrcsimd_store_live_bytes", "Bytes of latest-line-per-fingerprint payload.",
		func() float64 { return float64(s.st.Stats().LiveBytes) })
	s.reg.GaugeFunc("lrcsimd_store_dead_bytes", "Bytes a compaction would reclaim.",
		func() float64 { return float64(s.st.Stats().DeadBytes()) })
	s.reg.CounterFunc("lrcsimd_store_appends_total", "Results appended to the store.",
		func() float64 { return float64(s.st.Stats().Appends) })
	s.reg.CounterFunc("lrcsimd_store_lookups_total", "Index lookups served.",
		func() float64 { return float64(s.st.Stats().Lookups) })
	s.reg.CounterFunc("lrcsimd_store_misses_total", "Index lookups that found nothing.",
		func() float64 { return float64(s.st.Stats().Misses) })
	s.reg.CounterFunc("lrcsimd_store_compactions_total", "Compaction passes run.",
		func() float64 { return float64(s.st.Stats().Compactions) })
	s.reg.CounterFunc("lrcsimd_store_corrupt_lines_total", "Corrupt lines dropped while loading.",
		func() float64 { return float64(s.st.Stats().DroppedLines) })
}

// Draining reports whether shutdown has begun — the readiness signal:
// /readyz turns 503 the moment this turns true, while /healthz stays
// 200 until the process exits.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Subscribe attaches an event-stream subscriber to the daemon's bus.
func (s *Service) Subscribe(buffer int) *bus.Sub[runner.Event] {
	return s.b.Subscribe(buffer)
}

// onEvent is the runner's Emit hook: every job lifecycle event is fanned
// out to bus subscribers, folded into the metrics registry, and folded
// into the counters of every live sweep whose cell set contains the
// event's fingerprint.
func (s *Service) onEvent(ev runner.Event) {
	s.b.Publish(ev)
	if c := s.jobEvents[ev.Kind]; c != nil {
		c.Inc()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trackRate(ev)
	for _, sw := range s.live[ev.FP] {
		if sw.doneFPs[ev.FP] {
			continue
		}
		switch ev.Kind {
		case runner.EventQueued, runner.EventHeartbeat:
			continue
		case runner.EventRunning:
			sw.status.Executed++
			continue
		case runner.EventCached:
			sw.status.FromCache++
		case runner.EventDedup:
			sw.status.Deduped++
		case runner.EventDone:
			sw.status.SimCycles += ev.Cycle
		case runner.EventFailed:
			sw.status.Failed++
		}
		sw.doneFPs[ev.FP] = true // the rest are terminal
		sw.status.Completed = len(sw.doneFPs)
	}
}

// trackRate folds one lifecycle event into the live throughput gauge.
// Caller holds s.mu. Running starts tracking the fingerprint, each
// heartbeat sets the (app, proto) gauge to the speed since the previous
// one, and any terminal event zeroes the gauge and forgets the entry.
func (s *Service) trackRate(ev runner.Event) {
	switch ev.Kind {
	case runner.EventRunning:
		s.rates[ev.FP] = &jobRate{lastAt: time.Now()}
	case runner.EventHeartbeat:
		jr, ok := s.rates[ev.FP]
		if !ok {
			return
		}
		now := time.Now()
		if dt := now.Sub(jr.lastAt).Seconds(); dt > 0 && ev.Cycle > jr.lastCycle {
			s.simSpeed.With(ev.App, ev.Proto).Set(float64(ev.Cycle-jr.lastCycle) / dt)
		}
		jr.lastCycle = ev.Cycle
		jr.lastAt = now
	case runner.EventDone, runner.EventFailed, runner.EventCanceled:
		if _, ok := s.rates[ev.FP]; ok {
			delete(s.rates, ev.FP)
			s.simSpeed.With(ev.App, ev.Proto).Set(0)
		}
	}
}

// SubmitSweep registers a sweep for execution and returns its status.
// Submission is singleflight on the sweep's content identity: concurrent
// or repeated submissions of the same normalized spec share one record
// (and the cells themselves are further deduplicated per fingerprint by
// the runner, so even distinct overlapping sweeps simulate a shared cell
// once). The bool reports whether this call created the sweep. ctx
// carries the submitting request's ID (obs.RequestID), which is stamped
// into every lifecycle log line; it does NOT bound the sweep's
// execution — the sweep outlives the request.
func (s *Service) SubmitSweep(submitCtx context.Context, spec exp.Spec) (SweepStatus, bool, error) {
	return s.submit(submitCtx, spec, true)
}

// submit is SubmitSweep; persist false skips the registry append, which
// boot resurrection replaces with at most one rewrite, after the loop.
func (s *Service) submit(submitCtx context.Context, spec exp.Spec, persist bool) (SweepStatus, bool, error) {
	norm, e, cells, err := spec.Expand()
	if err != nil {
		return SweepStatus{}, false, err
	}
	id, doc := norm.Canonical()
	if st, err := s.Sweep(id); err == nil {
		return st, false, nil // a resubmission costs no fingerprint
	}
	// Each cell is fingerprinted once per daemon: the keyed jobs carry
	// their fingerprints into the runner through the evaluator's Prefetch.
	e.Jobs = &s.jobs
	fps := make([]string, len(cells))
	jobs := make(map[string]runner.Job, len(cells))
	for i, c := range cells {
		j := e.CellJob(c[0], c[1], c[2])
		fps[i] = j.Fingerprint()
		jobs[fps[i]] = j
	}
	reqID := obs.RequestID(submitCtx)

	s.mu.Lock()
	if sw, ok := s.sweeps[id]; ok {
		st := sw.status
		s.mu.Unlock()
		return st, false, nil
	}
	if s.draining {
		s.mu.Unlock()
		return SweepStatus{}, false, ErrDraining
	}
	ctx, cancel := context.WithCancel(s.runCtx)
	sw := &sweepState{
		status: SweepStatus{
			ID:    id,
			State: StateQueued,
			Spec:  norm,
			Jobs:  len(jobs),
		},
		reqID:   reqID,
		doc:     doc,
		cells:   cells,
		fps:     fps,
		jobs:    jobs,
		doneFPs: make(map[string]bool, len(jobs)),
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	s.sweeps[id] = sw
	s.order = append(s.order, id)
	for fp := range jobs {
		s.live[fp] = append(s.live[fp], sw)
	}
	st := sw.status
	s.wg.Add(1)
	s.mu.Unlock()

	s.log.Info("sweep submitted", "sweep", id, "jobs", len(jobs), "request_id", reqID)
	if persist && s.st != nil {
		// Best-effort: the sweep runs either way; only its resurrection
		// after a restart is lost.
		if err := s.st.AppendSweep(doc); err != nil {
			s.log.Warn("sweep not registered", "sweep", id, "err", err, "request_id", reqID)
		}
	}
	e.R, e.Ctx = s.rn, ctx
	go s.runSweep(ctx, sw, e, cells)
	return st, true, nil
}

// runSweep executes one sweep to a terminal state: the cells go to the
// pool once, and the report is assembled from what came back.
func (s *Service) runSweep(ctx context.Context, sw *sweepState, e *exp.Evaluator, cells [][3]string) {
	defer s.wg.Done()
	defer close(sw.done)

	s.mu.Lock()
	sw.status.State = StateRunning
	sw.startedAt = time.Now()
	s.mu.Unlock()

	e.Prefetch(cells)
	canceled := ctx.Err() != nil

	// The stable form drops the runner's volatile provenance, so a warm
	// re-submission (or a re-submission after a daemon restart over the
	// same store) serves bit-identical bytes.
	sw.rep = e.Report().Stable()
	firstFail := sw.rep.Err()

	s.mu.Lock()
	s.retire(sw)
	wall := time.Since(sw.startedAt)
	sw.status.WallMS = wall.Milliseconds()
	if secs := wall.Seconds(); secs > 0 {
		sw.status.CyclesPerSec = float64(sw.status.SimCycles) / secs
	}
	switch {
	case canceled:
		sw.status.State = StateCanceled
		sw.status.Error = "canceled: " + context.Cause(ctx).Error()
	case sw.status.Failed > 0 && firstFail != nil:
		sw.status.State = StateFailed
		sw.status.Error = firstFail.Error()
	default:
		sw.status.State = StateDone
		if firstFail != nil {
			// Deterministic verification failures are results, not crashes:
			// the sweep is done, the error is advisory.
			sw.status.Error = firstFail.Error()
		}
	}
	st := sw.status
	s.mu.Unlock()

	s.log.Info("sweep finished",
		"sweep", st.ID, "state", string(st.State),
		"executed", st.Executed, "from_cache", st.FromCache,
		"deduped", st.Deduped, "failed", st.Failed,
		"request_id", sw.reqID)
}

// retire removes a sweep that is turning terminal from the live index.
// Every job event of its own reached it before Prefetch returned; what
// follows belongs to other sweeps. Caller holds s.mu.
func (s *Service) retire(sw *sweepState) {
	for fp := range sw.jobs {
		rest := slices.DeleteFunc(s.live[fp], func(o *sweepState) bool { return o == sw })
		if len(rest) == 0 {
			delete(s.live, fp)
		} else {
			s.live[fp] = rest
		}
	}
}

// Sweep returns a sweep's current status.
func (s *Service) Sweep(id string) (SweepStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	if !ok {
		return SweepStatus{}, ErrNotFound
	}
	return sw.status, nil
}

// Sweeps lists all sweeps in first-submission order.
func (s *Service) Sweeps() []SweepStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SweepStatus, len(s.order))
	for i, id := range s.order {
		out[i] = s.sweeps[id].status
	}
	return out
}

// lookup returns a sweep's record. Its status is read under s.mu; what
// submission fixed (cells, fps, jobs, cancel, done) needs no lock.
func (s *Service) lookup(id string) (*sweepState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	if !ok {
		return nil, ErrNotFound
	}
	return sw, nil
}

// CancelSweep cancels a sweep's submission context. In-flight
// simulations stop cooperatively; already-terminal sweeps are unchanged.
func (s *Service) CancelSweep(id string) error {
	sw, err := s.lookup(id)
	if err == nil {
		sw.cancel()
	}
	return err
}

// SweepCells returns the sweep's expansion: the fingerprint of every cell
// it names, by cell key (variant/app/protocol). A fingerprint is what job
// events carry and what the store, a trace request and GET
// /api/v1/jobs/{fp} are keyed by.
func (s *Service) SweepCells(id string) (map[string]string, error) {
	sw, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	cells := make(map[string]string, len(sw.cells))
	for i, c := range sw.cells {
		cells[strings.Join(c[:], "/")] = sw.fps[i]
	}
	return cells, nil
}

// SweepReport returns the finished sweep's stable report JSON.
func (s *Service) SweepReport(id string) ([]byte, error) {
	return s.sweepBytes(id, func(sw *sweepState) []byte { return sw.reportJSON })
}

// SweepHTML returns the finished sweep's HTML report.
func (s *Service) SweepHTML(id string) ([]byte, error) {
	return s.sweepBytes(id, func(sw *sweepState) []byte { return sw.reportHTML })
}

// sweepBytes returns one form of a finished sweep's report, rendering
// both on the first fetch of either; the JSON reuses every run's fragment
// an earlier report kept. A report that cannot be encoded answers every
// fetch with the encoder's error.
func (s *Service) sweepBytes(id string, pick func(*sweepState) []byte) ([]byte, error) {
	sw, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	select {
	case <-sw.done:
	default:
		return nil, fmt.Errorf("%w: %s", ErrNotFinished, id)
	}
	sw.render.Do(func() {
		sw.reportJSON, sw.renderErr = s.frags.AppendReport(nil, sw.rep)
		sw.reportHTML, sw.rep = exp.AppendHTML(nil, sw.rep), exp.Report{}
	})
	if sw.renderErr != nil {
		return nil, serverFault{sw.renderErr}
	}
	return pick(sw), nil
}

// Job returns the stored result of a fingerprint — whichever sweep,
// paperbench run or earlier daemon incarnation put it in the persistent
// store.
func (s *Service) Job(fp string) (*runner.Result, error) {
	if s.st != nil {
		if res, ok := s.st.Get(fp); ok {
			return res, nil
		}
	}
	return nil, ErrNotFound
}

// jobFor returns the runner job of a fingerprint some sweep names (for
// trace re-execution).
func (s *Service) jobFor(fp string) (runner.Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		if j, ok := s.sweeps[id].jobs[fp]; ok {
			return j, nil
		}
	}
	return runner.Job{}, ErrNotFound
}

// Stats snapshots the daemon's counters.
func (s *Service) Stats() StatsResponse {
	resp := StatsResponse{
		Runner: s.rn.Meta(),
		Bus:    s.b.Stats(),
	}
	if s.st != nil {
		st := s.st.Stats()
		resp.Store = &st
	}
	s.mu.Lock()
	resp.Sweeps = len(s.sweeps)
	s.mu.Unlock()
	return resp
}

// Compact runs a store compaction pass (an error without persistence).
func (s *Service) Compact() (store.Stats, error) {
	if s.st == nil {
		return store.Stats{}, errors.New("api: no persistent store configured")
	}
	return s.st.Compact()
}

// Drain stops accepting new submissions and waits for in-flight sweeps
// to finish. If ctx expires first, everything still running is
// canceled (cooperatively, on the simulated clock) and Drain waits for
// the abandoned work to unwind before returning ctx's error.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	s.mu.Unlock()
	if !alreadyDraining {
		// From this instant /readyz answers 503 while /healthz stays 200:
		// load balancers stop routing before the listener goes away.
		s.log.Info("drain started")
	}

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel()
		<-finished
	}
	return err
}

// Close drains (bounded by ctx) and then shuts the event bus down,
// releasing every SSE subscriber. The store is the caller's to close —
// the service does not own its lifetime.
func (s *Service) Close(ctx context.Context) error {
	err := s.Drain(ctx)
	s.cancel()
	s.b.Close()
	return err
}
