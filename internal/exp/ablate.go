package exp

import (
	"fmt"
	"strings"

	"lazyrc/internal/config"
)

// ablations exercise the design choices §2 of the paper argues for,
// beyond the lazy/lazier split that Figures 6-7 already cover, each on
// one application under one protocol:
//
//   - the 16-entry coalescing write-through buffer (vs. smaller/larger);
//   - the 4-entry CPU write buffer of the relaxed protocols;
//   - the claim that the lazy protocol's higher directory access cost
//     "does not affect performance" because it hides behind memory;
//   - interleaved vs. first-touch page placement;
//   - the overlap of acquire-time invalidation with lock latency.
var ablations = []block{
	{
		title:  "coalescing buffer depth (lazy write-through traffic control)",
		points: intPoints("cb", "%d entries", func(c *config.Config, v int) { c.CBEntries = v }, 1, 4, 16, 64),
		apps:   []string{"blu"}, protos: []string{"lrc"},
	},
	{
		title:  "write buffer depth (eager write latency masking)",
		points: intPoints("wb", "%d entries", func(c *config.Config, v int) { c.WBEntries = v }, 1, 2, 4, 8),
		apps:   []string{"fft"}, protos: []string{"erc"},
	},
	{
		title:  "lazy directory access cost (claim: hidden behind memory)",
		points: intPoints("dir-lrc", "%d cycles", func(c *config.Config, v int) { c.DirCostLRC = uint64(v) }, 15, 25, 50, 100),
		apps:   []string{"gauss"}, protos: []string{"lrc"},
	},
	{
		title: "page placement (0 = interleaved, 1 = first touch)",
		points: []point{
			{variant: "default", label: "interleaved"},
			{"first-touch", "first touch", func(c *config.Config) { c.FirstTouch = true }},
		},
		apps: []string{"mp3d"}, protos: []string{"lrc"},
	},
	{
		title: "acquire-time invalidation overlap (0 = overlapped, 1 = serialized)",
		points: []point{
			{variant: "default", label: "overlapped"},
			{"no-acquire-overlap", "after grant", func(c *config.Config) { c.NoAcquireOverlap = true }},
		},
		apps: []string{"cholesky"}, protos: []string{"lrc"},
	},
}

// ablationTable renders one ablation: execution time per point, each
// after the first with its change relative to the first.
func ablationTable(v *View, ab block) string {
	appName, proto := ab.apps[0], ab.protos[0]
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s\n", ab.title)
	fmt.Fprintf(&b, "  %s under %s, %d procs, %s inputs\n", appName, proto, v.procs, v.scale)
	base := -1.0
	for _, p := range ab.points {
		r := v.cell(p.variant, appName, proto)
		if failed := firstFailure(r); failed != "" {
			fmt.Fprintf(&b, "  %-14s %s\n", p.label, failed)
			continue
		}
		val := float64(r.ExecCycles)
		rel := ""
		if base < 0 {
			base = val
		} else if base > 0 {
			rel = fmt.Sprintf("  (%+.1f%%)", 100*(val/base-1))
		}
		fmt.Fprintf(&b, "  %-14s %14d cycles%s\n", p.label, r.ExecCycles, rel)
	}
	return b.String()
}

// dsmContrast reproduces the paper's DSM-vs-hardware contrast directly:
// the lazy-ext/lazy execution-time ratio with hardware protocol
// processors (background notices) and with software coherence (notices
// stall the processor). The paper's claim — "this represents a
// qualitative shift from the DSM world, where lazier protocols always
// yield performance improvements" — predicts the ratio crosses from >1
// (lazier loses) toward ≤1 (lazier wins) when the overlap is taken away.
var dsmContrast = []block{{
	points: []point{
		{variant: "default", label: "hardware protocol processor"},
		{"software-coherence", "software coherence (no overlap)", func(c *config.Config) { c.SoftwareCoherence = true }},
	},
	apps: []string{"locusroute"}, protos: []string{"lrc", "lrc-ext"},
}}

func dsmTable(v *View, d block) string {
	appName := d.apps[0]
	var b strings.Builder
	fmt.Fprintf(&b, "DSM contrast: %s, %d procs (lazy-ext time / lazy time)\n", appName, v.procs)
	for _, p := range d.points {
		lrc, ext := v.cell(p.variant, appName, "lrc"), v.cell(p.variant, appName, "lrc-ext")
		if failed := firstFailure(lrc, ext); failed != "" {
			fmt.Fprintf(&b, "  %-34s %s\n", p.label, failed)
			continue
		}
		fmt.Fprintf(&b, "  %-34s %.3f\n", p.label, float64(ext.ExecCycles)/float64(lrc.ExecCycles))
	}
	return b.String()
}

// firstFailure is what a study row prints in place of numbers it cannot
// trust: the first of its runs that crashed or failed verification, or
// "" when all verified.
func firstFailure(runs ...ReportRun) string {
	for _, r := range runs {
		if !r.Verified {
			return "failed: " + r.Error
		}
	}
	return ""
}
