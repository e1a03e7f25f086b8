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
	"sync"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/runner"
)

// AppOrder lists the applications in the paper's table order.
var AppOrder = []string{"barnes-hut", "blu", "cholesky", "fft", "gauss", "locusroute", "mp3d"}

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
	// Jobs memoizes the keyed jobs CellJob returns. NewEvaluator makes
	// one per evaluator; a daemon shares one among its sweeps' evaluators.
	Jobs *CellJobs

	runs map[string]memoRun // by cellKey
}

// CellJobs holds keyed jobs (runner.Job.Keyed) by all one derives from:
// the evaluator's scale, processors and seed, and the cell key. Evaluators
// sharing one fingerprint a cell once among them. Safe for concurrent use.
type CellJobs struct{ memo[cellJob, runner.Job] }

type cellJob struct {
	scale apps.Scale
	procs int
	seed  uint64
	cell  [3]string
}

// memoRun is one memoized cell: the result and the variant name it ran
// under (a result records its full configuration, not the name).
type memoRun struct {
	variant string
	res     *runner.Result
}

// cellKey is the identity of a (variant, app, protocol) cell in the
// evaluator's memo and a report's view; reports list runs in its order.
func cellKey(variant, appName, proto string) string {
	return variant + "/" + appName + "/" + proto
}

// NewEvaluator returns an evaluator for the given scale and machine size
// (the paper evaluates 64 processors). Runs execute serially; set R to
// share a worker pool and result cache.
func NewEvaluator(scale apps.Scale, procs int) *Evaluator {
	return &Evaluator{Scale: scale, Procs: procs, Jobs: new(CellJobs), runs: make(map[string]memoRun)}
}

// CellConfig derives the machine configuration of one evaluation cell
// from (variant, procs, scale, seed) — the single derivation every tool
// (paperbench, lrcsimd, lrcsim, the chaos soak) goes through, so the
// same cell is the same machine everywhere. A variant is a preset
// ("default", "future") or a study row the target table declares
// (line=256, first-touch, procs=16, ...), which derives from the default
// cell. The cache size scales with the input scale, following the
// paper's own methodology (§3): inputs were shrunk to keep simulation
// tractable and caches were shrunk with them "in order to capture the
// effect of capacity and conflict misses" — with full-size caches the
// data fits and the eviction column of Table 2 (62.9% for barnes-hut!)
// vanishes.
func CellConfig(variant string, procs int, scale apps.Scale, seed uint64) (config.Config, error) {
	derive, study := studyVariants[variant]
	if study {
		variant = "default"
	}
	c, err := config.Preset(variant, procs)
	if err != nil {
		return config.Config{}, fmt.Errorf("%w, or a study's variant such as line=256", err)
	}
	c.CacheSize = CacheForScale(scale)
	c.Seed = seed
	if study {
		derive(&c)
	}
	return c, nil
}

// mustCell is CellConfig for variant names fixed in this package's own
// tables, where an unknown one is a bug.
func mustCell(variant string, procs int, scale apps.Scale, seed uint64) config.Config {
	c, err := CellConfig(variant, procs, scale, seed)
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
func (e *Evaluator) Job(variant, appName, proto string) runner.Job {
	return runner.Job{App: appName, Scale: e.Scale, Proto: proto, Cfg: mustCell(variant, e.Procs, e.Scale, e.Seed)}
}

// CellJob is Job keyed (runner.Job.Keyed) and memoized in e.Jobs: a cell
// is fingerprinted on its first request, so a submitter listing a sweep's
// fingerprints and the Prefetch that runs it hash each cell once between
// them, and a daemon's later sweeps naming the cell hash it no more.
func (e *Evaluator) CellJob(variant, appName, proto string) runner.Job {
	k := cellJob{e.Scale, e.Procs, e.Seed, [3]string{variant, appName, proto}}
	j, _ := e.Jobs.get(k, func() (runner.Job, error) { return e.Job(variant, appName, proto).Keyed(), nil })
	return j
}

// memo is a map filled on demand, safe for concurrent use; a value whose
// computation fails is not kept. Its keys are written once and read many
// times, what sync.Map is for.
type memo[K comparable, V any] struct{ m sync.Map }

func (c *memo[K, V]) get(k K, fill func() (V, error)) (V, error) {
	if v, ok := c.m.Load(k); ok {
		return v.(V), nil
	}
	v, err := fill()
	if err == nil {
		c.m.Store(k, v)
	}
	return v, err
}

// Prefetch simulates the given (variant, app, protocol) cells through
// the runner's worker pool and memoizes what comes back — the one way a
// cell enters the evaluator — so the report reads every cell from the
// memo: table and figure order stays deterministic while the simulations
// themselves ran concurrently. No job is submitted to the runner twice
// in one call — cells whose variants derive the same machine (cb=16 is
// the default one) are one job, whose result each of them reads, so a
// sweep's event stream carries one lifecycle per fingerprint — and a
// cell prefetched again is the runner's memo hit, not a second run.
func (e *Evaluator) Prefetch(cells [][3]string) {
	jobs := make([]runner.Job, 0, len(cells))
	index := make(map[string]int, len(cells)) // fingerprint -> its job's index in jobs
	slot := make([]int, len(cells))           // cell -> its job's index
	for i, c := range cells {
		j := e.CellJob(c[0], c[1], c[2])
		k, ok := index[j.Fingerprint()]
		if !ok {
			k = len(jobs)
			index[j.Fingerprint()] = k
			jobs = append(jobs, j)
		}
		slot[i] = k
	}
	if e.R == nil {
		e.R = runner.New(1, nil) // the zero configuration: serial, no store
	}
	ctx := e.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	results := e.R.DoAll(ctx, jobs)
	for i, c := range cells {
		e.runs[cellKey(c[0], c[1], c[2])] = memoRun{c[0], results[slot[i]]}
	}
}
