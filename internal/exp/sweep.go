package exp

import (
	"fmt"
	"math"
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

// paperCache pins the paper's full-size 128 KB cache: the sweeps and the
// quality check deliberately keep it at every input scale instead of the
// co-scaled CellConfig one, because the EXPERIMENTS.md §4.3 and §4.2
// verdicts were measured that way.
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

// quality is the §4.2 quality-of-solution experiment: mp3d's answer, the
// cumulative per-axis velocity vector, under SC and under lazy release
// consistency, each load returning the value the protocol delivered (a
// lazily invalidated copy reads stale). The paper found the Y and Z
// components within 0.1% and X within 6.7%.
var quality = []block{{
	points: []point{{"track-values", "values tracked", func(c *config.Config) { paperCache(c); c.TrackValues = true }}},
	apps:   []string{"mp3d"}, protos: []string{"sc", "lrc"},
}}

// qualityTable renders the two answers and their per-axis divergence.
func qualityTable(v *View, q block) string {
	sc, lazy := v.cell(q.points[0].variant, "mp3d", q.protos[0]), v.cell(q.points[0].variant, "mp3d", q.protos[1])
	var b strings.Builder
	fmt.Fprintf(&b, "mp3d quality of solution (cumulative velocity vector after %s run, %s)\n", v.scale, q.points[0].label)
	fmt.Fprintf(&b, "  axis   %-17s%-17sdivergence\n", q.protos[0], q.protos[1])
	for i, axis := range []string{"X", "Y"} {
		div, ok := divergence(sc, lazy, i)
		if !ok {
			fmt.Fprintf(&b, "  %s    %12s\n", axis, "failed")
			continue
		}
		fmt.Fprintf(&b, "  %s    %12.5f    %12.5f    %8.2f%%\n", axis, sc.Answer[i], lazy.Answer[i], div)
	}
	return b.String()
}

// divergence is how far, in percent, the lazy run's answer moved from
// the SC run's on axis i; ok is false when either run failed or lacks
// that axis.
func divergence(sc, lazy ReportRun, i int) (div float64, ok bool) {
	if !sc.Verified || !lazy.Verified || len(sc.Answer) <= i || len(lazy.Answer) <= i {
		return 0, false
	}
	if f := sc.Answer[i]; f != 0 {
		div = 100 * math.Abs((lazy.Answer[i]-f)/f)
	}
	return div, true
}
