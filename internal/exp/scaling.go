package exp

import (
	"fmt"
	"strings"

	"lazyrc/internal/config"
)

// scaling reports how the lazy protocol's advantage moves with the
// machine size — an extension beyond the paper's fixed 64-processor
// evaluation. For each processor count it reads the application's
// execution time under eager and lazy release consistency and prints
// the two and their ratio. More processors mean more sharers per weak
// block (larger notice fan-out) but also more concurrency for the eager
// protocol's transfers to serialize.
var scaling = []block{
	{points: scalingCounts, apps: []string{"mp3d"}, protos: eagerLazy},
	{points: scalingCounts, apps: []string{"blu"}, protos: eagerLazy},
	{points: scalingCounts, apps: []string{"gauss"}, protos: eagerLazy},
}

// scalingCounts are the machine sizes the scaling experiment sweeps,
// whatever size the rest of the evaluation runs at.
var scalingCounts = intPoints("procs", "%d", func(c *config.Config, v int) { c.Procs = v }, 4, 16, 64)

func scalingTable(v *View, s block) string {
	appName := s.apps[0]
	var b strings.Builder
	fmt.Fprintf(&b, "Scaling: %s, %s inputs (execution cycles; ratio = lazy/eager)\n", appName, v.scale)
	fmt.Fprintf(&b, "  %6s %14s %14s %8s\n", "procs", "eager", "lazy", "ratio")
	for _, p := range s.points {
		eager, lazy := v.cell(p.variant, appName, "erc"), v.cell(p.variant, appName, "lrc")
		if failed := firstFailure(eager, lazy); failed != "" {
			fmt.Fprintf(&b, "  %6s %s\n", p.label, failed)
			continue
		}
		ratio := 0.0
		if eager.ExecCycles > 0 {
			ratio = float64(lazy.ExecCycles) / float64(eager.ExecCycles)
		}
		fmt.Fprintf(&b, "  %6s %14d %14d %8.3f\n", p.label, eager.ExecCycles, lazy.ExecCycles, ratio)
	}
	return b.String()
}
