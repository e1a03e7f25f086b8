package exp

import (
	"encoding/json"
	"fmt"
	"io"

	"lazyrc/internal/runner"
	"lazyrc/internal/stats"
)

// Report is the machine-readable form of an evaluation: every memoized
// run with its full measurements, keyed for downstream tooling (plotting,
// regression tracking). Rendered by `paperbench -json`, committed (in
// Stable form) as the regression-gate baseline.
type Report struct {
	// Scale and Procs identify the evaluation point.
	Scale string `json:"scale"`
	Procs int    `json:"procs"`
	// Runner records how the evaluation executed: worker count, wall
	// time, cache hits and misses, failed jobs. Within it only Workers
	// and WallMS are volatile — every other field, like Runs itself, is
	// bit-identical between a -j 1 and a -j 8 evaluation.
	Runner *runner.Meta `json:"runner,omitempty"`
	// Runs are all (config, app, protocol) cells executed.
	Runs []ReportRun `json:"runs"`
}

// Stable returns a copy suitable for byte comparison across worker
// counts and reruns: runner provenance is dropped, results are kept.
func (r Report) Stable() Report {
	r.Runner = nil
	return r
}

// ReportRun is one run's measurements.
type ReportRun struct {
	Config   string `json:"config"`
	App      string `json:"app"`
	Protocol string `json:"protocol"`

	ExecCycles uint64 `json:"exec_cycles"`
	// Normalized is execution time relative to the SC run of the same
	// app and config (present when that run was also executed).
	Normalized float64 `json:"normalized,omitempty"`

	CPUCycles   uint64 `json:"cpu_cycles"`
	ReadCycles  uint64 `json:"read_cycles"`
	WriteCycles uint64 `json:"write_cycles"`
	SyncCycles  uint64 `json:"sync_cycles"`

	MissRatePct float64            `json:"miss_rate_pct"`
	MissShares  map[string]float64 `json:"miss_shares_pct"`

	NetworkMsgs  uint64 `json:"network_msgs"`
	NetworkBytes uint64 `json:"network_bytes"`

	// MetricsDigest fingerprints the run's cycle-domain telemetry shape
	// (see runner.Result.MetricsDigest). Empty in pre-telemetry baselines.
	MetricsDigest string `json:"metrics_digest,omitempty"`

	// Spans and SpanDigest carry the run's causal span count and stream
	// fingerprint (see runner.Result.SpanDigest). Empty in pre-tracing
	// baselines.
	Spans      uint64 `json:"spans,omitempty"`
	SpanDigest string `json:"span_digest,omitempty"`

	Verified bool   `json:"verified"`
	Error    string `json:"error,omitempty"`
}

// Report assembles the machine-readable report from all memoized runs,
// stamped with the runner's execution record.
func (e *Evaluator) Report() Report {
	rep := Report{Scale: e.Scale.String(), Procs: e.Procs}
	if e.R != nil {
		meta := e.R.Meta()
		rep.Runner = &meta
	}
	for _, r := range e.Runs() {
		rr := ReportRun{
			Config:     r.Config,
			App:        r.App,
			Protocol:   r.Proto,
			ExecCycles: r.ExecTime,
			CPUCycles:  r.CPU, ReadCycles: r.Read,
			WriteCycles: r.Write, SyncCycles: r.Sync,
			MissRatePct:  100 * r.MissRate,
			NetworkMsgs:  r.Msgs,
			NetworkBytes: r.Bytes,
			MetricsDigest: r.MetricsDigest,
			Spans:         r.Spans,
			SpanDigest:    r.SpanDigest,
			Verified:     r.VerifyErr == nil,
			MissShares:   map[string]float64{},
		}
		if r.VerifyErr != nil {
			rr.Error = r.VerifyErr.Error()
		}
		for k := stats.MissKind(0); k < stats.NumMissKinds; k++ {
			rr.MissShares[k.String()] = 100 * r.MissShares[k]
		}
		// Attach the normalized time when the SC baseline is memoized
		// (without forcing new runs).
		scKey := r.Config + "/" + r.App + "/sc"
		if sc, ok := e.runs[scKey]; ok && sc.ExecTime > 0 {
			rr.Normalized = float64(r.ExecTime) / float64(sc.ExecTime)
		}
		rep.Runs = append(rep.Runs, rr)
	}
	return rep
}

// WriteReportJSON writes any report as indented JSON — the one encoding
// used for -json output and committed baselines, so the two are
// byte-comparable.
func WriteReportJSON(w io.Writer, r Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("exp: encoding report: %w", err)
	}
	return nil
}
