// Package api is the lrcsimd experiment service: a long-running daemon
// that accepts evaluation sweeps — down to a single cell — over
// HTTP/JSON, executes them on the shared runner pool (deduplicated by
// content fingerprint, served from the persistent segment store when
// possible), streams each sweep's job lifecycle events over SSE, and
// serves rendered reports and Perfetto traces live.
//
// The package splits into the wire types (this file), the Service (the
// daemon's state machine: sweep registry, submission singleflight, event
// fanout, graceful drain), the HTTP server bound to it, and a typed
// client used by paperbench -remote and the end-to-end tests.
package api

import (
	"lazyrc/internal/bus"
	"lazyrc/internal/exp"
	"lazyrc/internal/runner"
	"lazyrc/internal/store"
)

// Sweep states. Lifecycle: queued → running → one of the terminal
// states. A sweep is "failed" when any of its jobs crashed,
// "canceled" when its submission context died first, "done" otherwise
// (including runs with verification errors, which are deterministic
// results, not failures — they surface per-run in the report).
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// SweepStatus is the wire form of one submitted sweep.
type SweepStatus struct {
	// ID is the sweep's content identity (exp.Spec.ID): identical specs
	// submitted concurrently or repeatedly share one record.
	ID string `json:"id"`
	// State is one of the State* constants.
	State string `json:"state"`
	// Spec is the normalized spec the sweep executes.
	Spec exp.Spec `json:"spec"`
	// Jobs is the number of unique simulation cells the sweep expands to.
	Jobs int `json:"jobs"`
	// Completed counts cells that have reached a terminal state.
	Completed int `json:"completed"`
	// Executed counts fresh simulations observed on this sweep's cells
	// while it ran; FromCache counts cells served from the persistent
	// store; Deduped counts cells resolved by an identical in-process
	// job (another sweep's, or a repeat submission's); Failed counts
	// crashed cells. A warm resubmission after a daemon restart shows
	// Executed == 0 and FromCache == Jobs.
	Executed  int `json:"executed"`
	FromCache int `json:"from_cache"`
	Deduped   int `json:"deduped"`
	Failed    int `json:"failed"`
	// Error carries the failure summary of a failed sweep.
	Error string `json:"error,omitempty"`
	// WallMS, SimCycles, and CyclesPerSec describe how fast the sweep
	// ran, stamped when it reaches a terminal state: wall-clock duration,
	// total simulated cycles across fresh executions (cache hits and
	// dedups contribute none), and their ratio. Host-dependent
	// provenance — never part of any result or fingerprint.
	WallMS       int64   `json:"wall_ms,omitempty"`
	SimCycles    uint64  `json:"sim_cycles,omitempty"`
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
}

// StatsResponse is the daemon's observability snapshot.
type StatsResponse struct {
	Runner runner.Meta  `json:"runner"`
	Bus    bus.Stats    `json:"bus"`
	Store  *store.Stats `json:"store,omitempty"`
	Sweeps int          `json:"sweeps"`
}
