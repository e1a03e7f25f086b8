package exp

import (
	"context"
	"fmt"
	"strings"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/runner"
)

// Sweep reproduces the §4.3 sensitivity experiments in which memory
// latency, bandwidth, and cache line size vary: for each point it reports
// the lazy protocol's execution time relative to eager release
// consistency. The paper's findings: higher latency and bandwidth shrink
// (but do not close) the gap; longer lines widen it by inducing more
// false sharing.
type Sweep struct {
	Name   string
	Mut    func(*config.Config, int)
	Points []int
	Label  func(int) string
}

// Sweeps returns the three §4.3 parameter sweeps.
func Sweeps() []Sweep {
	return []Sweep{
		{
			Name:   "memory startup latency",
			Mut:    func(c *config.Config, v int) { c.MemSetup = uint64(v) },
			Points: []int{10, 20, 40, 80},
			Label:  func(v int) string { return fmt.Sprintf("%d cycles", v) },
		},
		{
			Name: "memory/network bandwidth",
			Mut: func(c *config.Config, v int) {
				c.MemBW, c.NetBW, c.BusBW = v, v, v
			},
			Points: []int{1, 2, 4},
			Label:  func(v int) string { return fmt.Sprintf("%d bytes/cycle", v) },
		},
		{
			Name:   "cache line size",
			Mut:    func(c *config.Config, v int) { c.LineSize = v },
			Points: []int{64, 128, 256},
			Label:  func(v int) string { return fmt.Sprintf("%d bytes", v) },
		},
	}
}

// SweepApps are the workloads the sensitivity study runs (the three whose
// behaviour §4.3 discusses: one false-sharing-bound, one migratory, one
// with no false sharing).
var SweepApps = []string{"mp3d", "locusroute", "gauss"}

// RunSweep renders one sweep: the lazy/eager execution-time ratio per
// application per point. All (app × point × protocol) runs are submitted
// to the runner as one batch, so they execute concurrently on its worker
// pool — and any point shared with another figure or a previous process
// (via the runner's store) is never simulated twice.
func RunSweep(ctx context.Context, rn *runner.Runner, scale apps.Scale, procs int, sw Sweep) string {
	// Plan the batch: two protocols per (app, point) cell, app-major, so
	// cell (ai, pi) lands at results[(ai*len(Points)+pi)*2] (eager) and
	// the slot after it (lazy).
	//
	// The sweeps deliberately keep the paper's full-size 128 KB cache at
	// every input scale instead of the co-scaled CellConfig: the
	// EXPERIMENTS.md §4.3 verdicts were measured that way.
	var jobs []runner.Job
	for _, appName := range SweepApps {
		for _, v := range sw.Points {
			cfg := config.Default(procs)
			sw.Mut(&cfg, v)
			jobs = append(jobs,
				runner.Job{App: appName, Scale: scale, Proto: "erc", Cfg: cfg},
				runner.Job{App: appName, Scale: scale, Proto: "lrc", Cfg: cfg})
		}
	}
	results := rn.DoAll(ctx, jobs)

	var b strings.Builder
	fmt.Fprintf(&b, "Sensitivity: %s (lazy execution time / eager execution time)\n", sw.Name)
	fmt.Fprintf(&b, "  %-12s", "Application")
	for _, v := range sw.Points {
		fmt.Fprintf(&b, " %14s", sw.Label(v))
	}
	fmt.Fprintln(&b)
	for ai, appName := range SweepApps {
		fmt.Fprintf(&b, "  %-12s", appName)
		for pi := range sw.Points {
			base := (ai*len(sw.Points) + pi) * 2
			eager, lazy := results[base], results[base+1]
			if eager.Failed() || lazy.Failed() || eager.ExecCycles == 0 {
				fmt.Fprintf(&b, " %14s", "failed")
				continue
			}
			fmt.Fprintf(&b, " %14.3f", float64(lazy.ExecCycles)/float64(eager.ExecCycles))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Mp3dQuality reproduces the §4.2 quality-of-solution experiment: the
// cumulative per-axis velocity vector of mp3d run with immediate
// visibility (the SC execution) versus with stale, lazily propagated cell
// densities. The paper found the Y and Z components within 0.1% and X
// within 6.7%. It runs its two specially constructed app instances
// directly rather than through the runner: the StaleReads mutation is
// not part of a Job spec, and caching a mutated run under the plain
// mp3d fingerprint would poison the cache. Like the sweeps it keeps the
// full-size cache its EXPERIMENTS.md verdict was measured with.
func Mp3dQuality(scale apps.Scale, procs int) string {
	cfg := config.Default(procs)

	run := func(stale bool) (sx, sy float64) {
		app := apps.NewMp3d(scale)
		app.StaleReads = stale
		if _, err := apps.Run(cfg, "sc", app); err != nil {
			panic(fmt.Sprintf("mp3d quality run: %v", err))
		}
		return app.VelocitySums()
	}
	fx, fy := run(false) // fresh: sequentially consistent data propagation
	lx, ly := run(true)  // stale: lazy-protocol-like propagation

	rel := func(a, b float64) float64 {
		if a == 0 {
			return 0
		}
		d := (b - a) / a
		if d < 0 {
			d = -d
		}
		return 100 * d
	}
	var b strings.Builder
	fmt.Fprintf(&b, "mp3d quality of solution (cumulative velocity vector after %s run)\n", scale)
	fmt.Fprintf(&b, "  axis   immediate        stale (lazy)     divergence\n")
	fmt.Fprintf(&b, "  X    %12.5f    %12.5f    %8.2f%%\n", fx, lx, rel(fx, lx))
	fmt.Fprintf(&b, "  Y    %12.5f    %12.5f    %8.2f%%\n", fy, ly, rel(fy, ly))
	return b.String()
}
