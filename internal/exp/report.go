package exp

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"lazyrc/internal/protocol"
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

	// What the chaos soak's end-state verdict reads (ChaosVerdict): the
	// fingerprint of the final shared-memory image (empty in reports older
	// than the soak's joining them), and how many messages a fault plan
	// faulted and the transport retransmitted (zero on a reliable fabric).
	MemDigest      string `json:"mem_digest,omitempty"`
	FaultsInjected uint64 `json:"faults_injected,omitempty"`
	Retransmits    uint64 `json:"retransmits,omitempty"`

	// Answer is the application's solution vector (runner.Result.Answer),
	// absent for workloads that report none: what the §4.2 quality check
	// compares.
	Answer []float64 `json:"answer,omitempty"`

	// Verified is false, and Error says why, for a run that crashed,
	// tripped the invariant auditor or the watchdog (faulted runs are
	// guarded), failed its numerical verification, or left a processor
	// unfinished.
	Verified bool   `json:"verified"`
	Error    string `json:"error,omitempty"`

	// res is the result Evaluator.Report assembled the run from (nil for
	// a run loaded or built by hand): its identity keys the run's JSON.
	res *runner.Result
}

// Report assembles the report of every memoized run, in cell-key order,
// stamped with the runner's execution record. It is the one place a
// runner.Result becomes a ReportRun; text tables, JSON, HTML and the gate
// all read the report, never the results.
func (e *Evaluator) Report() Report {
	rep := Report{Scale: e.Scale.String(), Procs: e.Procs}
	if e.R != nil {
		meta := e.R.Meta()
		rep.Runner = &meta
	}
	keys := make([]string, 0, len(e.runs))
	for k := range e.runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := e.runs[k]
		res := m.res
		rr := ReportRun{
			Config:     m.variant,
			App:        res.App,
			Protocol:   res.Proto,
			ExecCycles: res.ExecCycles,
			CPUCycles:  res.CPUCycles, ReadCycles: res.ReadCycles,
			WriteCycles: res.WriteCycles, SyncCycles: res.SyncCycles,
			MissRatePct:   100 * res.MissRate,
			NetworkMsgs:   res.Msgs,
			NetworkBytes:  res.Bytes,
			MetricsDigest: res.MetricsDigest,
			Spans:         res.Spans,
			SpanDigest:    res.SpanDigest,
			MissShares:    map[string]float64{},
			MemDigest:     res.MemDigest, FaultsInjected: res.FaultsInjected, Retransmits: res.Retransmits,
			Answer: res.Answer,
			res:    res,
		}
		if err := res.Err(); err != nil {
			rr.Error = err.Error()
		}
		rr.Verified = rr.Error == ""
		for kind := stats.MissKind(0); kind < stats.NumMissKinds; kind++ {
			rr.MissShares[kind.String()] = 100 * res.MissShares[kind]
		}
		rep.Runs = append(rep.Runs, rr)
	}
	// The normalized time is attached wherever the SC baseline was run
	// too (it stays zero, and off the wire, otherwise).
	v := rep.View()
	for i := range rep.Runs {
		r := &rep.Runs[i]
		r.Normalized = v.Normalized(r.Config, r.App, r.Protocol)
	}
	return rep
}

// Err returns the first run, in report order, that did not verify (see
// ReportRun.Verified), or nil when every run did.
func (r Report) Err() error {
	for _, run := range r.Runs {
		if !run.Verified {
			return fmt.Errorf("%s/%s/%s: %s", run.Config, run.App, run.Protocol, run.Error)
		}
	}
	return nil
}

// View is a report indexed by (config, app, protocol) — what every
// rendering of the evaluation (text tables, HTML charts, the report's own
// normalized column) reads through, and the one place the paper's
// SC-normalisation arithmetic is written. Not safe for concurrent use:
// lookups on behalf of a renderer remember the cells they missed.
type View struct {
	scale string // the report's evaluation point, for study headings
	procs int
	runs  map[string]*ReportRun
	// What the renderer at work found wrong, for Render to name: cell keys
	// asked for and absent, and soak cells that failed their verdict.
	missing, failures []string
}

// View indexes the report's runs. The view reads the report's own run
// slice, so it must not outlive a mutation of it.
func (r Report) View() *View {
	v := &View{scale: r.Scale, procs: r.Procs, runs: make(map[string]*ReportRun, len(r.Runs))}
	for i := range r.Runs {
		run := &r.Runs[i]
		v.runs[cellKey(run.Config, run.App, run.Protocol)] = run
	}
	return v
}

// Run returns one cell's measurements and whether the report has it.
func (v *View) Run(cfgName, appName, proto string) (ReportRun, bool) {
	if r, ok := v.runs[cellKey(cfgName, appName, proto)]; ok {
		return *r, true
	}
	return ReportRun{}, false
}

// cell is Run for the arithmetic and the renderers: a cell the report
// lacks reads as zero and is remembered.
func (v *View) cell(cfgName, appName, proto string) ReportRun {
	r, ok := v.Run(cfgName, appName, proto)
	if !ok {
		v.missing = append(v.missing, cellKey(cfgName, appName, proto))
	}
	return r
}

// protoSlot is a protocol's place in names, the evaluation order; any
// other name comes after them all. It orders the protocols a rendering
// shows and picks a chart's palette slot, so color follows the protocol,
// never its rank.
func protoSlot(names []string, proto string) int {
	if i := slices.Index(names, proto); i >= 0 {
		return i
	}
	return len(names)
}

// protocols lists the protocols of the runs keep accepts, in evaluation
// order (protocol.Names()) and any other name after: the rows of the
// soak and the columns of the HTML charts are what the report holds.
func (v *View) protocols(keep func(*ReportRun) bool) []string {
	var ps []string
	for _, r := range v.runs {
		if keep(r) && !slices.Contains(ps, r.Protocol) {
			ps = append(ps, r.Protocol)
		}
	}
	names := protocol.Names()
	slices.SortFunc(ps, func(a, b string) int {
		return cmp.Or(protoSlot(names, a)-protoSlot(names, b), strings.Compare(a, b))
	})
	return ps
}

// Normalized returns the run's execution time normalized to the
// sequentially consistent run of the same application and configuration
// — the unit line of the paper's figures. Zero when the report has no
// (or a failed) SC run to divide by.
func (v *View) Normalized(cfgName, appName, proto string) float64 {
	sc := v.cell(cfgName, appName, "sc")
	if sc.ExecCycles == 0 {
		return 0
	}
	return float64(v.cell(cfgName, appName, proto).ExecCycles) / float64(sc.ExecCycles)
}

// OverheadShares returns the run's aggregate cpu/read/write/sync cycles
// as fractions of the SC run's total aggregate cycles (the presentation
// of Figures 5, 7 and 9). ok is false, and the shares zero, when the
// report has no (or a failed) SC run to divide by.
func (v *View) OverheadShares(cfgName, appName, proto string) (cpu, read, write, sync float64, ok bool) {
	sc := v.cell(cfgName, appName, "sc")
	total := float64(sc.CPUCycles + sc.ReadCycles + sc.WriteCycles + sc.SyncCycles)
	if total == 0 {
		return
	}
	r := v.cell(cfgName, appName, proto)
	return float64(r.CPUCycles) / total, float64(r.ReadCycles) / total,
		float64(r.WriteCycles) / total, float64(r.SyncCycles) / total, true
}

// WriteReportJSON writes any report as indented JSON — the one encoding
// used for -json output and committed baselines, so the two are
// byte-comparable.
func WriteReportJSON(w io.Writer, r Report) error {
	b, err := (*RunJSON)(nil).AppendReport(nil, r)
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}

// RunJSON keeps report runs' indented JSON by what a run is a function
// of: its result (the runner's memoized one, so sweeps sharing a cell
// share it), variant and normalized time. A run without a result, one of
// a canceled result (never memoized: the cell runs again) and one the
// encoder refuses are not kept. Safe for concurrent use.
type RunJSON struct{ memo[runKey, []byte] }

type runKey struct {
	res        *runner.Result
	variant    string
	normalized uint64 // math.Float64bits
}

// AppendReport appends r as encoding/json's encoder indents it by two
// spaces: the report without its runs, then each run's fragment, the run
// indented at its depth, kept or encoded now, in a buffer the fragments'
// lengths size. A nil RunJSON keeps nothing.
func (c *RunJSON) AppendReport(dst []byte, r Report) ([]byte, error) {
	runs := r.Runs
	r.Runs = runs[:0] // null stays null
	head, err := json.MarshalIndent(r, "", "  ")
	frags := make([][]byte, len(runs))
	n := len(head) + 8
	for i := 0; i < len(runs) && err == nil; i++ {
		run := &runs[i]
		enc := func() ([]byte, error) { return json.MarshalIndent(run, "    ", "  ") }
		if c == nil || run.res == nil || run.res.Canceled {
			frags[i], err = enc()
		} else {
			frags[i], err = c.get(runKey{run.res, run.Config, math.Float64bits(run.Normalized)}, enc)
		}
		n += len(frags[i]) + 6
	}
	if err != nil {
		return dst, fmt.Errorf("exp: encoding report: %w", err)
	}
	if len(runs) == 0 {
		return append(append(dst, head...), '\n'), nil
	}
	dst = append(slices.Grow(dst, n), head[:len(head)-len("[]\n}")]...)
	sep := "[\n    "
	for _, f := range frags {
		dst = append(append(dst, sep...), f...)
		sep = ",\n    "
	}
	return append(dst, "\n  ]\n}\n"...), nil
}
