package exp

import (
	"fmt"
	"strings"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
)

// sweeps reproduces the §4.3 sensitivity experiments in which memory
// latency, bandwidth, and cache line size vary: for each point it reports
// the lazy protocol's execution time relative to eager release
// consistency. The paper's findings: higher latency and bandwidth shrink
// (but do not close) the gap; longer lines widen it by inducing more
// false sharing. The workloads are the three whose behaviour §4.3
// discusses: one false-sharing-bound, one migratory, one with no false
// sharing.
var sweeps = []block{
	{
		title:  "memory startup latency",
		points: intPoints("memsetup", "%d cycles", func(c *config.Config, v int) { paperCache(c); c.MemSetup = uint64(v) }, 10, 20, 40, 80),
		apps:   sweepApps, protos: eagerLazy,
	},
	{
		title:  "memory/network bandwidth",
		points: intPoints("bw", "%d bytes/cycle", func(c *config.Config, v int) { paperCache(c); c.MemBW, c.NetBW, c.BusBW = v, v, v }, 1, 2, 4),
		apps:   sweepApps, protos: eagerLazy,
	},
	{
		title:  "cache line size",
		points: intPoints("line", "%d bytes", func(c *config.Config, v int) { paperCache(c); c.LineSize = v }, 64, 128, 256),
		apps:   sweepApps, protos: eagerLazy,
	},
}

var (
	sweepApps = []string{"mp3d", "locusroute", "gauss"}
	eagerLazy = []string{"erc", "lrc"}
)

// paperCache pins the paper's full-size 128 KB cache: the sweeps
// deliberately keep it at every input scale instead of the co-scaled
// CellConfig one, because the EXPERIMENTS.md §4.3 verdicts were measured
// that way.
func paperCache(c *config.Config) { c.CacheSize = CacheForScale(apps.Paper) }

// sweepTable renders one sweep: the lazy/eager execution-time ratio per
// application per point.
func sweepTable(v *View, sw block) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sensitivity: %s (lazy execution time / eager execution time)\n", sw.title)
	fmt.Fprintf(&b, "  %-12s", "Application")
	for _, p := range sw.points {
		fmt.Fprintf(&b, " %14s", p.label)
	}
	fmt.Fprintln(&b)
	for _, appName := range sw.apps {
		fmt.Fprintf(&b, "  %-12s", appName)
		for _, p := range sw.points {
			eager, lazy := v.cell(p.variant, appName, "erc"), v.cell(p.variant, appName, "lrc")
			if !eager.Verified || !lazy.Verified || eager.ExecCycles == 0 {
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
