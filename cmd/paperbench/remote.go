package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"lazyrc/internal/api"
	"lazyrc/internal/exp"
	"lazyrc/internal/runner"
)

// remoteOpts carries the -remote client-mode parameters.
type remoteOpts struct {
	base    string
	targets []string
	scale   string
	procs   int
	seed    uint64
	quiet   bool

	jsonOut   string
	reportOut string
	baseline  string
	tol       float64
}

// runRemote submits the requested evaluation to a running lrcsimd daemon
// as a sweep spec, follows its SSE event stream to completion, fetches
// the rendered reports, and (when -baseline is set) runs the regression
// gate locally against the fetched report. The daemon owns execution:
// the sweep's cells carry the same fingerprints a local run would, so a
// store warmed locally serves the remote submission and vice versa.
func runRemote(o remoteOpts) int {
	spec := exp.Spec{Targets: o.targets, Scale: o.scale, Procs: o.procs, Seed: o.seed}
	if _, err := spec.Normalize(); err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: -remote accepts matrix targets only: %v\n", err)
		return 2
	}
	ctx := context.Background()
	c := &api.Client{Base: o.base}

	st, err := c.SubmitSweep(ctx, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: submit: %v\n", err)
		return 1
	}
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "sweep %s: %d cell(s), state %s\n", st.ID[:16], st.Jobs, st.State)
	}

	var onEvent func(runner.Event)
	if !o.quiet {
		onEvent = printEvent
	}
	if !st.Terminal() {
		if st, err = c.WaitSweep(ctx, st.ID, onEvent); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: wait: %v\n", err)
			return 1
		}
	}
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "sweep %s: %s (%d executed, %d from cache, %d deduped, %d failed)\n",
			st.ID[:16], st.State, st.Executed, st.FromCache, st.Deduped, st.Failed)
	}
	if st.State != api.StateDone {
		fmt.Fprintf(os.Stderr, "paperbench: sweep %s: %s\n", st.State, st.Error)
		return 1
	}
	if st.Error != "" {
		// Done with a verification error: deterministic, reported, nonzero.
		fmt.Fprintf(os.Stderr, "paperbench: a run failed verification: %s\n", st.Error)
	}

	repBytes, err := c.SweepReport(ctx, st.ID)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: report: %v\n", err)
		return 1
	}
	if o.jsonOut != "" {
		if err := os.WriteFile(o.jsonOut, repBytes, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			return 1
		}
	}
	if o.reportOut != "" {
		html, err := c.SweepHTML(ctx, st.ID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: html report: %v\n", err)
			return 1
		}
		if err := os.WriteFile(o.reportOut, html, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			return 1
		}
		if !o.quiet {
			fmt.Fprintf(os.Stderr, "HTML report written to %s\n", o.reportOut)
		}
	}

	code := 0
	if st.Error != "" {
		code = 1
	}
	if o.baseline != "" {
		var rep exp.Report
		if err := json.Unmarshal(repBytes, &rep); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: fetched report: %v\n", err)
			return 1
		}
		if !gate(o.baseline, rep, o.tol, o.quiet) {
			code = 1
		}
	}
	return code
}
