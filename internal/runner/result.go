package runner

import (
	"context"
	"errors"
	"fmt"

	"lazyrc/internal/apps"
	"lazyrc/internal/check"
	"lazyrc/internal/machine"
	"lazyrc/internal/perf"
	"lazyrc/internal/sim"
	"lazyrc/internal/stats"
)

// Result is one job's measurements. It is the unit stored in the
// content-addressed cache, so every field that downstream consumers read
// must round-trip exactly through JSON: integers are exact by
// construction, and Go's float64 encoding is shortest-form and
// re-parses bit-identically, so a cache-served result renders the same
// report bytes as a freshly simulated one.
type Result struct {
	Fingerprint string `json:"fp"`
	App         string `json:"app"`
	Scale       string `json:"scale"`
	Proto       string `json:"proto"`

	ExecCycles  uint64 `json:"exec_cycles"`
	CPUCycles   uint64 `json:"cpu_cycles"`
	ReadCycles  uint64 `json:"read_cycles"`
	WriteCycles uint64 `json:"write_cycles"`
	SyncCycles  uint64 `json:"sync_cycles"`

	MissRate   float64                     `json:"miss_rate"`
	MissShares [stats.NumMissKinds]float64 `json:"miss_shares"`

	Msgs  uint64 `json:"network_msgs"`
	Bytes uint64 `json:"network_bytes"`

	// MetricsDigest is the fold of the run's telemetry samples and
	// histograms (telemetry.Registry.Digest, "<samples>-<hash>"; fixed
	// sampling interval, see MetricsInterval). Telemetry is
	// cycle-domain and engine-driven, so the digest is identical across
	// worker counts and machines — the regression gate compares it to
	// catch shape drift that end-of-run totals would miss.
	MetricsDigest string `json:"metrics_digest,omitempty"`

	// Spans counts the causal spans the run's coherence and
	// synchronization activity produced; SpanDigest is their stream
	// fingerprint (causal.Tracer.Digest, "<count>-<hash>"). Spans are
	// recorded in digest-only mode — the runner wants the determinism
	// fingerprint, not the store — and, like the metrics digest, the
	// value is identical across worker counts and machines, so the
	// regression gate compares it to catch protocol-behaviour drift
	// that leaves end-of-run totals untouched.
	Spans      uint64 `json:"spans,omitempty"`
	SpanDigest string `json:"span_digest,omitempty"`

	// MemDigest is the SHA-256 of the machine's final shared-memory image
	// and Completed reports whether every processor finished. Together
	// they are the end-state half of the chaos oracle: a faulted run must
	// reproduce the fault-free same-seed run's digest and completion
	// exactly, or the reliable transport leaked a loss into application
	// state.
	MemDigest string `json:"mem_digest,omitempty"`
	Completed bool   `json:"completed"`

	// CheckErr records a protocol-invariant violation (epoch or
	// quiescence audit) or a liveness-watchdog trip. Guards run only for
	// faulted jobs (Cfg.FaultPlan != ""); fault-free jobs leave it empty.
	CheckErr string `json:"check_err,omitempty"`

	// Transport counters, nonzero only under fault injection: messages
	// the injector faulted, losses the transport retransmitted around,
	// and duplicate or stale arrivals the receivers suppressed.
	FaultsInjected uint64 `json:"faults_injected,omitempty"`
	Retransmits    uint64 `json:"retransmits,omitempty"`
	DupSuppressed  uint64 `json:"dup_suppressed,omitempty"`

	// Answer is the solution vector of an application that reports one
	// (an Answer method: mp3d's velocity sums, the §4.2 quality metric),
	// nil for the others.
	Answer []float64 `json:"answer,omitempty"`

	// VerifyErr records a deterministic numerical-verification failure.
	// Such results are still cacheable: the same job always fails the
	// same way.
	VerifyErr string `json:"verify_err,omitempty"`

	// Failure records an execution failure — a panic inside the
	// simulation or an error constructing the machine or application.
	// Failed results are never cached, so a rerun retries the job.
	Failure string `json:"-"`

	// Cached marks a result served from the store rather than simulated.
	// Provenance only; never serialized, never rendered.
	Cached bool `json:"-"`

	// Canceled marks a submission abandoned by context cancellation —
	// either before it started or stopped mid-simulation. Canceled
	// results are never memoized or stored; a later submission of the
	// same job re-executes it. Provenance only, like Cached.
	Canceled bool `json:"-"`

	// Perf is the execution's wall-clock phase profile. Provenance only,
	// like Cached: it varies by host and load, so it is never serialized
	// into the store (cache-served results carry none), never part of
	// the fingerprint, and never rendered into stable reports.
	Perf *perf.Snapshot `json:"-"`
}

// Failed reports whether the job crashed (as opposed to completing,
// possibly with a verification error).
func (r *Result) Failed() bool { return r.Failure != "" }

// Err folds every way a run can fail into one error: nil for a clean
// run, else the failure of a crashed job, what a guard of a faulted one
// found, the verification error, or that a processor never finished.
func (r *Result) Err() error {
	switch {
	case r.Failure != "":
		return errors.New(r.Failure)
	case r.CheckErr != "":
		return errors.New("check: " + r.CheckErr)
	case r.VerifyErr != "":
		return errors.New(r.VerifyErr)
	case !r.Completed:
		return errors.New("incomplete: a processor never finished")
	}
	return nil
}

// MetricsInterval is the fixed telemetry sampling interval of every
// execution, so the metrics digest lrcsim prints for a cell is the
// cell's stored one. Part of the result contract: changing it changes
// every metrics digest, so bump fingerprintVersion with it.
const MetricsInterval = 4096

// watchdogQuiet guards faulted jobs, beside the invariant audits every
// check.Epoch cycles: a liveness watchdog stops a run making no progress
// for this many cycles (a lost message the transport failed to recover
// would otherwise hang the sweep).
const watchdogQuiet = 200000

// cancelPollEvery is the simulated-cycle cadence at which a hooked run
// checks its submission context; DefaultHeartbeatEvery is the default
// cadence of progress heartbeats. Both fire as background engine events
// (observers that mutate nothing), so a hooked run is bit-identical to
// an unhooked one — pinned by TestHookedExecIsByteIdentical.
const (
	cancelPollEvery       = 4096
	DefaultHeartbeatEvery = 1 << 18
)

// hooks carries the runner's per-execution instrumentation into the
// simulation: a cancellation context polled on the simulated clock and a
// heartbeat callback reporting the current cycle. The zero value (used
// by plain Exec) installs nothing.
type hooks struct {
	ctx   context.Context
	beat  func(cycle uint64)
	every uint64 // heartbeat cadence in cycles; 0 = DefaultHeartbeatEvery
}

// active reports whether the hooks need the in-run poller at all.
func (h hooks) active() bool {
	return (h.ctx != nil && h.ctx.Done() != nil) || h.beat != nil
}

// canceled reports whether the submission context is dead.
func (h hooks) canceled() bool {
	return h.ctx != nil && h.ctx.Err() != nil
}

// install attaches the background prober to a built machine: every
// cancelPollEvery cycles it stops the engine if the context died (which
// ends the polling), and every `every` cycles it reports the cycle to beat.
func (h hooks) install(m *machine.Machine) {
	every := h.every
	if every == 0 {
		every = DefaultHeartbeatEvery
	}
	nextBeat := every
	m.Eng.Every(cancelPollEvery, func() {
		if h.canceled() {
			m.Eng.Stop()
			return
		}
		now := m.Eng.Now()
		if h.beat != nil && now >= nextBeat {
			h.beat(now)
			for nextBeat <= now {
				nextBeat += every
			}
		}
	})
}

// canceledResult is the record returned for a submission abandoned
// before (or while) executing; cause is the dead context's error.
func canceledResult(fp string, j Job, cause error) *Result {
	return &Result{
		Fingerprint: fp,
		App:         j.App,
		Scale:       j.Scale.String(),
		Proto:       j.Proto,
		Failure:     "canceled: " + cause.Error(),
		Canceled:    true,
	}
}

// simulate executes one job, fills in its measurements and returns the
// finished machine. retain keeps every causal span and telemetry point
// for a trace; otherwise the tracer and the registry keep only digests.
// It is a package variable so tests can substitute a crashing body to
// exercise panic capture.
var simulate = func(j Job, res *Result, hk hooks, retain bool) (*machine.Machine, error) {
	app, err := apps.New(j.App, j.Scale)
	if err != nil {
		return nil, err
	}
	var aud *check.Auditor
	var stalled string
	m, verr := apps.Run(j.Cfg, j.Proto, app, func(m *machine.Machine) {
		// Every execution carries all three observers: the metrics and
		// span digests are part of the result, and the perf snapshot
		// (passive — pinned by TestPerfIsPassive — at the cost of two
		// MemStats reads plus clock reads in one event of perf.Stride,
		// about 4 % of a bare run) feeds the runner's throughput meta —
		// report provenance and /api/v1/stats, which bench/ reads.
		m.EnableMetrics(MetricsInterval).Retain(retain)
		m.EnableSpans(retain, 0)
		m.EnablePerf()
		// Faulted jobs run guarded: a protocol-invariant auditor audits
		// every epoch and at quiescence, and a watchdog converts a
		// transport-level hang into a recorded failure instead of a stuck
		// worker. Fault-free jobs stay unguarded (both guards are
		// background-only, but keeping them off preserves the pre-chaos
		// runner byte for byte).
		if j.Cfg.FaultPlan != "" {
			aud = check.New(m)
			aud.Start(check.Epoch)
			m.EnableWatchdog(watchdogQuiet, func(r sim.StallReport) {
				if stalled == "" {
					stalled = r.String()
				}
				m.Eng.Stop()
			})
		}
		if hk.active() {
			hk.install(m)
		}
	})
	if m == nil {
		// No machine means construction failed (unknown protocol, bad
		// config): an execution failure, not a deterministic
		// verification result.
		return nil, verr
	}
	if verr != nil {
		res.VerifyErr = verr.Error()
	}
	res.ExecCycles = m.Stats.ExecutionTime()
	res.CPUCycles, res.ReadCycles, res.WriteCycles, res.SyncCycles = m.Stats.Aggregate()
	res.MissRate = m.Stats.MissRate()
	res.MissShares = m.Stats.MissShares()
	res.Msgs, res.Bytes = m.Net.Stats()
	res.MetricsDigest = m.Tel.Digest()
	res.Spans = m.Causal.Count()
	res.SpanDigest = m.Causal.Digest()
	res.MemDigest = m.MemDigest()
	res.Completed = m.Completed()
	snap := m.Perf.Snapshot()
	res.Perf = &snap
	reord, delay, dup, drop := m.Net.FaultStats()
	retx, _, outage, brown, _, _ := m.Net.TransportStats()
	res.FaultsInjected = reord + delay + dup + drop + outage + brown
	res.Retransmits = retx
	res.DupSuppressed = m.DuplicatesIgnored()
	if a, ok := app.(interface{ Answer() []float64 }); ok {
		res.Answer = a.Answer()
	}
	if aud != nil {
		aud.Final()
		switch {
		case stalled != "":
			res.CheckErr = "watchdog: " + stalled
		case aud.Err() != nil:
			res.CheckErr = aud.Err().Error()
		}
	}
	return m, nil
}

// Exec runs one job synchronously. A panic anywhere inside the
// simulation is captured into the result's Failure field — one crashing
// run yields a failed-job record, not a dead sweep.
func Exec(j Job) *Result {
	_, res := execWith(j, hooks{}, false)
	return res
}

// ExecTraced runs a job as Exec does — the same observers, and the same
// guards for a faulted job — and also returns the finished machine, for
// what a result does not carry: the report lrcsim prints, the trace it
// writes, the daemon's trace download (Machine.WritePerfetto). retain
// keeps every causal span and telemetry point (costly in memory, so the
// stored-result path does not); the digests are the same either way. The
// machine is nil only when the run crashed or could not be built, and
// Result.Failure says why; a verification failure still yields it (the
// trace is what explains it).
func ExecTraced(j Job, retain bool) (*machine.Machine, *Result) {
	return execWith(j, hooks{}, retain)
}

// execWith is the one execution body: Exec with the runner's
// per-execution hooks — a cancellation context polled on the simulated
// clock and a heartbeat callback — and the span retention of ExecTraced.
// A run stopped by cancellation is marked Canceled (unless it had
// already completed — a cancel that races a clean finish keeps the
// result).
func execWith(j Job, hk hooks, retain bool) (m *machine.Machine, res *Result) {
	res = &Result{
		Fingerprint: j.Fingerprint(),
		App:         j.App,
		Scale:       j.Scale.String(),
		Proto:       j.Proto,
	}
	func() {
		defer func() {
			if p := recover(); p != nil {
				res.Failure = fmt.Sprintf("panic: %v", p)
			}
		}()
		var err error
		if m, err = simulate(j, res, hk, retain); err != nil {
			res.Failure = err.Error()
		}
	}()
	if hk.canceled() && !res.Completed {
		res.Canceled = true
		res.Failure = "canceled: " + hk.ctx.Err().Error()
		res.VerifyErr, res.CheckErr = "", ""
	}
	return m, res
}
