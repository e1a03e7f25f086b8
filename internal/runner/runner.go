package runner

import (
	"context"
	"maps"
	"sync"
	"time"

	"lazyrc/internal/perf"
)

// ResultStore is the persistence contract the runner reuses results
// through. The segment store in internal/store is the one
// implementation; the interface exists so this package need not import
// it and tests can substitute a fake. Implementations must be safe for
// concurrent use.
type ResultStore interface {
	// Get returns the stored result for a fingerprint. The returned
	// result must be private to the caller (annotating it must not
	// mutate the store).
	Get(fp string) (*Result, bool)
	// Put records a completed result. Implementations must refuse
	// failed results — caching a crash would make it permanent.
	Put(r *Result) error
	// Recovered reports how many corrupt entries the store dropped
	// while loading (surfaced in the runner's execution record).
	Recovered() int
}

// Runner executes jobs on a bounded worker pool, deduplicating by
// fingerprint (two figures sharing a matrix point simulate it once, even
// when requested concurrently) and reusing results from an optional
// content-addressed store.
type Runner struct {
	// Emit, when non-nil, receives every job lifecycle event (see
	// EventKind for the state machine). Set before the first Do; calls
	// may come from concurrent workers. The lrcsimd daemon points this
	// at its pub-sub bus; paperbench prints its progress lines from it.
	// Running jobs additionally report an EventHeartbeat every
	// DefaultHeartbeatEvery simulated cycles; heartbeats (and the
	// cancellation poll that shares their timer) are background engine
	// events, so results are bit-identical with and without them.
	Emit func(Event)

	workers int
	store   ResultStore
	sem     chan struct{}
	start   time.Time

	mu       sync.Mutex
	done     map[string]*Result
	inflight map[string]chan struct{}
	meta     Meta
	eventSeq uint64
	pending  int // Do calls in progress (queued, waiting, or running)
}

// Meta is the runner's execution record, attached to reports. Simulated,
// CacheHits, CacheMisses, and FailedJobs are deterministic for a given
// job set and cache state; Workers and WallMS are volatile provenance
// (how the results were obtained, not what they are) and are the only
// fields that may differ between a -j 1 and a -j 8 run. Canceled counts
// submissions abandoned by context cancellation — inherently volatile
// (it depends on when the cancel landed). Reports compared byte for byte
// drop the whole record (exp.Report.Stable).
type Meta struct {
	Workers        int   `json:"workers"`
	WallMS         int64 `json:"wall_ms"`
	Simulated      int   `json:"simulated"`
	CacheHits      int   `json:"cache_hits"`
	CacheMisses    int   `json:"cache_misses"`
	FailedJobs     int   `json:"failed_jobs"`
	Canceled       int   `json:"canceled,omitempty"`
	CacheRecovered int   `json:"cache_recovered,omitempty"`

	// Perf aggregates the wall-clock phase profiles of every fresh
	// execution (cache hits contribute nothing — they did no simulated
	// work). Volatile provenance like WallMS.
	Perf *perf.Snapshot `json:"perf,omitempty"`
}

// New returns a runner with the given concurrency (minimum 1) and an
// optional result store (nil disables caching). Pass an untyped nil for
// "no store": a typed nil pointer inside a non-nil interface would be
// dereferenced.
func New(workers int, store ResultStore) *Runner {
	if workers < 1 {
		workers = 1
	}
	return &Runner{
		workers:  workers,
		store:    store,
		sem:      make(chan struct{}, workers),
		start:    time.Now(),
		done:     make(map[string]*Result),
		inflight: make(map[string]chan struct{}),
	}
}

// PoolStats is a point-in-time view of the pool's wall-clock occupancy
// — observability provenance, never part of a result. Queued counts
// submissions that have entered Do but hold no worker slot yet
// (store lookups, dedup waiters, and jobs waiting for a slot).
type PoolStats struct {
	Workers int `json:"workers"`
	Running int `json:"running"`
	Queued  int `json:"queued"`
}

// Pool snapshots the pool occupancy.
func (r *Runner) Pool() PoolStats {
	r.mu.Lock()
	pending := r.pending
	r.mu.Unlock()
	running := len(r.sem)
	queued := pending - running
	if queued < 0 {
		queued = 0
	}
	return PoolStats{Workers: r.workers, Running: running, Queued: queued}
}

// Do executes one job, blocking until its result is available. Results
// are resolved in order: in-process memo, then in-flight duplicate, then
// the store, then a worker slot. Safe for concurrent use.
//
// Cancelling ctx abandons the submission promptly: a queued job returns
// a Canceled result without executing, and a job already simulating is
// stopped cooperatively (the engine halts at the next cancellation
// poll). Canceled results are never memoized or stored, so a later
// submission of the same fingerprint re-executes the job.
func (r *Runner) Do(ctx context.Context, job Job) *Result {
	fp := job.Fingerprint()
	r.account(func(*Meta) { r.pending++ })
	defer r.account(func(*Meta) { r.pending-- })
	r.emit(EventQueued, fp, job, 0, 0, "")
	attached := false
	for {
		if err := ctx.Err(); err != nil {
			res := canceledResult(fp, job, err)
			r.emit(EventCanceled, fp, job, 0, 0, res.Failure)
			r.account(func(m *Meta) { m.Canceled++ })
			return res
		}
		r.mu.Lock()
		if res, ok := r.done[fp]; ok {
			r.mu.Unlock()
			r.emit(EventDedup, fp, job, 0, 0, "")
			return res
		}
		wait, ok := r.inflight[fp]
		if !ok {
			r.inflight[fp] = make(chan struct{})
			r.mu.Unlock()
			break
		}
		r.mu.Unlock()
		if !attached {
			attached = true
			r.emit(EventDedup, fp, job, 0, 0, "")
		}
		select {
		case <-wait:
		case <-ctx.Done():
			// Keep looping: the top of the loop converts the
			// cancellation into a Canceled result.
		}
	}

	res := r.lead(ctx, fp, job)

	r.mu.Lock()
	if !res.Canceled {
		r.done[fp] = res
	}
	wait := r.inflight[fp]
	delete(r.inflight, fp)
	r.mu.Unlock()
	close(wait)
	return res
}

// lead resolves a fingerprint this goroutine owns: store lookup, then a
// worker slot and a simulation. The caller resolves the in-flight
// channel afterwards.
func (r *Runner) lead(ctx context.Context, fp string, job Job) *Result {
	if r.store != nil {
		lookStart := time.Now()
		if cached, ok := r.store.Get(fp); ok {
			cached.Cached = true
			r.emit(EventCached, fp, job, cached.ExecCycles, time.Since(lookStart).Nanoseconds(), "")
			r.account(func(m *Meta) { m.CacheHits++ })
			return cached
		}
		r.account(func(m *Meta) { m.CacheMisses++ })
	}
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		res := canceledResult(fp, job, ctx.Err())
		r.emit(EventCanceled, fp, job, 0, 0, res.Failure)
		r.account(func(m *Meta) { m.Canceled++ })
		return res
	}
	r.emit(EventRunning, fp, job, 0, 0, "")
	hk := hooks{
		ctx:  ctx,
		beat: func(cycle uint64) { r.emit(EventHeartbeat, fp, job, cycle, 0, "") },
	}
	if r.Emit == nil {
		hk.beat = nil
	}
	execStart := time.Now()
	_, res := execWith(job, hk, false)
	execNS := time.Since(execStart).Nanoseconds()
	<-r.sem
	r.account(func(m *Meta) { m.Simulated++ })
	switch {
	case res.Canceled:
		r.emit(EventCanceled, fp, job, 0, execNS, res.Failure)
		r.account(func(m *Meta) { m.Canceled++ })
	case res.Failed():
		r.emit(EventFailed, fp, job, 0, execNS, res.Failure)
		r.account(func(m *Meta) { m.FailedJobs++ })
	default:
		storeErr := ""
		if r.store != nil {
			// A failed write only costs a future cache hit: the result
			// stands and the done event carries the complaint.
			if err := r.store.Put(res); err != nil {
				storeErr = "cache write failed: " + err.Error()
			}
		}
		if res.Perf != nil {
			snap := *res.Perf
			r.account(func(m *Meta) {
				if m.Perf == nil {
					m.Perf = &perf.Snapshot{}
				}
				m.Perf.Add(snap)
			})
		}
		r.emit(EventDone, fp, job, res.ExecCycles, execNS, storeErr)
	}
	return res
}

// DoAll runs a batch of jobs concurrently (bounded by the pool size) and
// returns their results in the order given, so rendering from a DoAll
// slice is deterministic regardless of completion order. On context
// cancellation it still returns a full slice promptly — unstarted jobs
// come back as Canceled results.
func (r *Runner) DoAll(ctx context.Context, jobs []Job) []*Result {
	out := make([]*Result, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j Job) {
			defer wg.Done()
			out[i] = r.Do(ctx, j)
		}(i, j)
	}
	wg.Wait()
	return out
}

// Meta snapshots the execution record. The snapshot is private to the
// caller: Perf is a deep copy, so it neither aliases an earlier snapshot
// nor races with a job finishing afterwards.
func (r *Runner) Meta() Meta {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.meta
	if m.Perf != nil {
		cp := *m.Perf
		cp.Phases = maps.Clone(cp.Phases)
		m.Perf = &cp
	}
	m.Workers = r.workers
	m.WallMS = time.Since(r.start).Milliseconds()
	if r.store != nil {
		m.CacheRecovered = r.store.Recovered()
	}
	return m
}

func (r *Runner) account(f func(*Meta)) {
	r.mu.Lock()
	f(&r.meta)
	r.mu.Unlock()
}
