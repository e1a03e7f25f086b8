package exp

import (
	"context"
	"fmt"
	"strings"

	"lazyrc/internal/apps"
	"lazyrc/internal/runner"
)

// RunScaling reports how the lazy protocol's advantage moves with the
// machine size — an extension beyond the paper's fixed 64-processor
// evaluation. For each processor count it runs the application under
// eager and lazy release consistency (all sizes concurrently, through
// the runner) and prints the execution times and their ratio. More
// processors mean more sharers per weak block (larger notice fan-out)
// but also more concurrency for the eager protocol's transfers to
// serialize.
func RunScaling(ctx context.Context, rn *runner.Runner, scale apps.Scale, appName string, counts []int) string {
	jobs := make([]runner.Job, 0, 2*len(counts))
	for _, np := range counts {
		cfg := mustCell("default", np, scale, 0)
		jobs = append(jobs,
			runner.Job{App: appName, Scale: scale, Proto: "erc", Cfg: cfg},
			runner.Job{App: appName, Scale: scale, Proto: "lrc", Cfg: cfg})
	}
	results := rn.DoAll(ctx, jobs)

	var b strings.Builder
	fmt.Fprintf(&b, "Scaling: %s, %s inputs (execution cycles; ratio = lazy/eager)\n", appName, scale)
	fmt.Fprintf(&b, "  %6s %14s %14s %8s\n", "procs", "eager", "lazy", "ratio")
	for i, np := range counts {
		eager, lazy := results[2*i], results[2*i+1]
		if err := firstErr(eager, lazy); err != nil {
			fmt.Fprintf(&b, "  %6d failed: %v\n", np, err)
			continue
		}
		ratio := 0.0
		if eager.ExecCycles > 0 {
			ratio = float64(lazy.ExecCycles) / float64(eager.ExecCycles)
		}
		fmt.Fprintf(&b, "  %6d %14d %14d %8.3f\n", np, eager.ExecCycles, lazy.ExecCycles, ratio)
	}
	return b.String()
}

// ScalingCounts are the machine sizes the scaling experiment sweeps.
var ScalingCounts = []int{4, 16, 64}
