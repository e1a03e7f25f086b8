package main

import (
	"context"
	"encoding/json"
	"fmt"

	"lazyrc/internal/api"
	"lazyrc/internal/exp"
	"lazyrc/internal/runner"
)

// fetchRemote has a running lrcsimd daemon evaluate the spec: it submits
// the sweep, follows its SSE event stream to completion, and fetches the
// finished report.
func fetchRemote(ctx context.Context, c *api.Client, spec exp.Spec, onEvent func(runner.Event), note func(string, ...any)) (exp.Report, error) {
	var rep exp.Report
	st, err := c.SubmitSweep(ctx, spec)
	if err != nil {
		return rep, fmt.Errorf("submit: %w", err)
	}
	note("sweep %s: %d cell(s), state %s\n", st.ID[:16], st.Jobs, st.State)
	if st, err = c.WaitSweep(ctx, st.ID, onEvent); err != nil {
		return rep, fmt.Errorf("wait: %w", err)
	}
	note("sweep %s: %s (%d executed, %d from cache, %d deduped, %d failed)\n",
		st.ID[:16], st.State, st.Executed, st.FromCache, st.Deduped, st.Failed)
	if st.State != api.StateDone {
		return rep, fmt.Errorf("sweep %s: %s", st.State, st.Error)
	}
	raw, err := c.SweepReport(ctx, st.ID)
	if err != nil {
		return rep, fmt.Errorf("report: %w", err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("fetched report: %w", err)
	}
	return rep, nil
}
