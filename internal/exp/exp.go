// Package exp drives the paper's evaluation: it runs the (application ×
// protocol × machine-configuration) matrix, memoizing runs shared between
// tables and figures, and renders each table and figure of the paper as
// text. Absolute cycle counts differ from the 1994 testbed, but the
// comparisons the paper makes — who wins, by what factor, where the
// breakdown shifts — are reproduced in shape.
package exp

import (
	"context"
	"fmt"
	"sort"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/runner"
	"lazyrc/internal/stats"
)

// AppOrder lists the applications in the paper's table order.
var AppOrder = []string{"barnes-hut", "blu", "cholesky", "fft", "gauss", "locusroute", "mp3d"}

// Run captures one (application, protocol, configuration) execution.
type Run struct {
	App, Proto, Config string

	ExecTime               uint64
	CPU, Read, Write, Sync uint64 // aggregate cycles across processors
	MissRate               float64
	MissShares             [stats.NumMissKinds]float64
	Msgs, Bytes            uint64
	MetricsDigest          string
	Spans                  uint64
	SpanDigest             string
	VerifyErr              error
}

// Evaluator runs and memoizes experiments at one scale and machine size.
// Execution is delegated to a runner.Runner, which deduplicates cells
// shared between tables and figures, executes batches on a worker pool,
// and (when given a store) reuses results across processes.
type Evaluator struct {
	Scale apps.Scale
	Procs int
	// Seed is stamped into every run's configuration so seed-dependent
	// subsystems (fault injection) replay identically across evaluations.
	Seed uint64
	// R executes the evaluator's jobs. Nil means a serial runner with no
	// store is created on first use.
	R *runner.Runner
	// Ctx, when non-nil, bounds every job this evaluator submits: the
	// lrcsimd daemon sets it to the sweep's submission context so a
	// cancelled sweep stops simulating promptly. Nil means Background.
	Ctx context.Context

	runs map[string]*Run
}

// NewEvaluator returns an evaluator for the given scale and machine size
// (the paper evaluates 64 processors). Runs execute serially; use
// NewEvaluatorWith to share a worker pool and result cache.
func NewEvaluator(scale apps.Scale, procs int) *Evaluator {
	return NewEvaluatorWith(scale, procs, nil)
}

// NewEvaluatorWith returns an evaluator that executes through the given
// runner (nil behaves like NewEvaluator).
func NewEvaluatorWith(scale apps.Scale, procs int, r *runner.Runner) *Evaluator {
	return &Evaluator{Scale: scale, Procs: procs, R: r, runs: make(map[string]*Run)}
}

// engine returns the evaluator's runner, creating a serial one on first
// use so the zero configuration keeps its historical behaviour.
func (e *Evaluator) engine() *runner.Runner {
	if e.R == nil {
		e.R = runner.New(1, nil)
	}
	return e.R
}

// ctx returns the evaluator's submission context.
func (e *Evaluator) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// CellConfig derives the machine configuration of one evaluation cell
// from (preset, procs, scale, seed) — the single derivation every tool
// (paperbench, lrcsimd, lrcsim, the ablation/chaos/scaling extensions)
// goes through, so the same cell is the same machine everywhere. The
// cache size scales with the input scale, following the paper's own
// methodology (§3): inputs were shrunk to keep simulation tractable and
// caches were shrunk with them "in order to capture the effect of
// capacity and conflict misses" — with full-size caches the data fits
// and the eviction column of Table 2 (62.9% for barnes-hut!) vanishes.
func CellConfig(preset string, procs int, scale apps.Scale, seed uint64) (config.Config, error) {
	c, err := config.Preset(preset, procs)
	if err != nil {
		return config.Config{}, err
	}
	c.CacheSize = CacheForScale(scale)
	c.Seed = seed
	return c, nil
}

// mustCell is CellConfig for preset names fixed in this package's own
// tables, where an unknown preset is a bug.
func mustCell(preset string, procs int, scale apps.Scale, seed uint64) config.Config {
	c, err := CellConfig(preset, procs, scale, seed)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return c
}

// CacheForScale returns the per-processor cache size used at each input
// scale, preserving the paper's footprint-to-cache ratio.
func CacheForScale(s apps.Scale) int {
	switch s {
	case apps.Tiny:
		return 2 << 10
	case apps.Small:
		return 8 << 10
	case apps.Medium:
		return 32 << 10
	default:
		return 128 << 10 // the paper's configuration
	}
}

// Job materializes the runner job for one experiment cell.
func (e *Evaluator) Job(cfgName, appName, proto string) runner.Job {
	return runner.Job{App: appName, Scale: e.Scale, Proto: proto, Cfg: mustCell(cfgName, e.Procs, e.Scale, e.Seed)}
}

// Get runs (or recalls) one experiment cell. The runner deduplicates by
// content fingerprint, so a cell already simulated by Prefetch — or by a
// previous process sharing the result store — is served without
// re-simulation. A crashed run surfaces as a Run whose VerifyErr carries
// the failure, not as a panic of the whole evaluation.
func (e *Evaluator) Get(cfgName, appName, proto string) *Run {
	key := cfgName + "/" + appName + "/" + proto
	if r, ok := e.runs[key]; ok {
		return r
	}
	res := e.engine().Do(e.ctx(), e.Job(cfgName, appName, proto))
	r := runFromResult(res, cfgName)
	e.runs[key] = r
	return r
}

// runFromResult converts a runner result into the evaluator's Run form.
func runFromResult(res *runner.Result, cfgName string) *Run {
	r := &Run{
		App: res.App, Proto: res.Proto, Config: cfgName,
		ExecTime: res.ExecCycles,
		CPU:      res.CPUCycles, Read: res.ReadCycles,
		Write: res.WriteCycles, Sync: res.SyncCycles,
		MissRate:   res.MissRate,
		MissShares: res.MissShares,
		Msgs:       res.Msgs, Bytes: res.Bytes,
		MetricsDigest: res.MetricsDigest,
		Spans:         res.Spans,
		SpanDigest:    res.SpanDigest,
	}
	if err := res.Err(); err != nil {
		r.VerifyErr = err
	}
	return r
}

// Prefetch simulates the given (config, app, protocol) cells through the
// runner's worker pool. Rendering afterwards reads every cell from the
// in-process memo, so table and figure order stays deterministic while
// the simulations themselves ran concurrently.
func (e *Evaluator) Prefetch(cells [][3]string) {
	jobs := make([]runner.Job, len(cells))
	for i, c := range cells {
		jobs[i] = e.Job(c[0], c[1], c[2])
	}
	e.engine().DoAll(e.ctx(), jobs)
}

// Runs returns all memoized runs, sorted by key (for reports).
func (e *Evaluator) Runs() []*Run {
	keys := make([]string, 0, len(e.runs))
	for k := range e.runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Run, len(keys))
	for i, k := range keys {
		out[i] = e.runs[k]
	}
	return out
}

// Normalized returns the run's execution time normalized to the
// sequentially consistent run of the same application and configuration
// — the unit line of the paper's figures.
func (e *Evaluator) Normalized(cfgName, appName, proto string) float64 {
	sc := e.Get(cfgName, appName, "sc")
	r := e.Get(cfgName, appName, proto)
	if sc.ExecTime == 0 {
		return 0
	}
	return float64(r.ExecTime) / float64(sc.ExecTime)
}

// OverheadShares returns the run's aggregate cpu/read/write/sync cycles
// as fractions of the SC run's total aggregate cycles (the presentation
// of Figures 5, 7 and 9).
func (e *Evaluator) OverheadShares(cfgName, appName, proto string) (cpu, read, write, sync float64) {
	sc := e.Get(cfgName, appName, "sc")
	total := float64(sc.CPU + sc.Read + sc.Write + sc.Sync)
	if total == 0 {
		return
	}
	r := e.Get(cfgName, appName, proto)
	return float64(r.CPU) / total, float64(r.Read) / total,
		float64(r.Write) / total, float64(r.Sync) / total
}

// VerifyAll re-checks that every memoized run verified; the first failure
// is returned.
func (e *Evaluator) VerifyAll() error {
	for _, r := range e.Runs() {
		if r.VerifyErr != nil {
			return fmt.Errorf("%s/%s/%s: %w", r.Config, r.App, r.Proto, r.VerifyErr)
		}
	}
	return nil
}
