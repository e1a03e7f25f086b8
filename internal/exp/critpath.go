package exp

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"lazyrc/internal/causal"
	"lazyrc/internal/protocol"
	"lazyrc/internal/runner"
)

// CriticalPath renders the per-protocol per-app stall attribution table
// for `paperbench -critical-path`: for every (application, protocol)
// cell of the evaluator's default machine it runs a span-traced
// simulation, attributes every stalled cycle to its protocol cause with
// the critical-path analyzer, and prints the cause shares of total stall
// time. This is the transaction-granularity mirror of the paper's Figure
// 5/7 overhead breakdowns — instead of "write stall grew" it shows
// *which* protocol resource the cycles queued behind.
//
// Runs here retain the full span store, so they execute through
// runner.ExecTraced — the execution the daemon's trace download serves —
// rather than through the runner's digest-only result cache. A cell
// that crashes is an error naming it.
func (e *Evaluator) CriticalPath() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "critical-path stall attribution (%s, %d procs; %% of each run's stall cycles)\n", e.Scale, e.Procs)
	tw := tabwriter.NewWriter(&b, 0, 8, 1, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "app\tproto\tstall\t")
	for c := causal.Cause(0); c < causal.NumCauses; c++ {
		fmt.Fprintf(tw, "%s\t", c)
	}
	fmt.Fprintln(tw)
	for _, appName := range AppOrder {
		for _, proto := range protocol.Names() {
			m, res := runner.ExecTraced(e.Job("default", appName, proto), true)
			if m == nil {
				return "", fmt.Errorf("critical-path: default/%s/%s: %s", appName, proto, res.Failure)
			}
			a := causal.Analyze(m.Causal)
			total := a.Total()
			fmt.Fprintf(tw, "%s\t%s\t%d\t", appName, proto, total)
			for c := causal.Cause(0); c < causal.NumCauses; c++ {
				if total == 0 {
					fmt.Fprintf(tw, "-\t")
					continue
				}
				fmt.Fprintf(tw, "%.1f\t", 100*float64(a.CauseTotal(c))/float64(total))
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
	return b.String(), nil
}
