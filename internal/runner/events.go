package runner

// Job lifecycle events. The runner is the single source of truth for job
// state: every transition a job makes — submitted, deduplicated against
// an identical in-flight or finished job, served from the store, started
// on a worker, progressed (a cycle-count heartbeat from the running
// simulation), and finished — is announced through the Emit hook. The
// lrcsimd daemon routes these onto its pub-sub bus; the batch CLIs leave
// Emit nil and pay nothing.

// EventKind names one job lifecycle transition.
type EventKind string

// The job lifecycle state machine:
//
//	queued ──┬─(identical job already done or in flight)──► dedup
//	         ├─(result found in the store)────────────────► cached
//	         └─(worker slot acquired)─────────────────────► running
//	running ──(heartbeat, every DefaultHeartbeatEvery)────► running
//	running ──┬────────────────────────────────────────────► done
//	          ├─(panic / construction error)───────────────► failed
//	          └─(submission context canceled)──────────────► canceled
//
// dedup, cached, done, failed, and canceled are terminal for the
// submission (a deduplicated submission resolves to whatever its leader
// produced).
const (
	EventQueued    EventKind = "queued"
	EventDedup     EventKind = "dedup"
	EventCached    EventKind = "cached"
	EventRunning   EventKind = "running"
	EventHeartbeat EventKind = "heartbeat"
	EventDone      EventKind = "done"
	EventFailed    EventKind = "failed"
	EventCanceled  EventKind = "canceled"
)

// Event is one job lifecycle announcement. Seq is a runner-global,
// strictly increasing sequence number assigned at emission, so consumers
// can order events from concurrent workers.
type Event struct {
	Seq  uint64    `json:"seq"`
	Kind EventKind `json:"kind"`
	// FP is the job's content fingerprint — the stable identity every
	// consumer keys on.
	FP string `json:"fp"`
	// App, Scale, Proto, and Procs identify the job for human consumers
	// (the label Job.String renders from).
	App   string `json:"app"`
	Scale string `json:"scale"`
	Proto string `json:"proto"`
	Procs int    `json:"procs"`
	// Cycle carries simulated progress: the current simulation cycle on a
	// heartbeat, the final execution time on done.
	Cycle uint64 `json:"cycle,omitempty"`
	// WallNS carries the wall-clock duration of the resolution on the
	// terminal events that have one: store lookup time on cached,
	// execution time on done/failed. Provenance — it differs per host
	// and run, so nothing deterministic may consume it.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Err carries the failure text on failed and canceled events, and a
	// store-write complaint on a done event whose result could not be
	// persisted.
	Err string `json:"err,omitempty"`
}

// emit publishes one lifecycle event through the Emit hook, assigning
// the sequence number. Safe to call from concurrent workers; a nil hook
// makes it free. wallNS stamps the event's resolution duration (0 for
// events without one).
func (r *Runner) emit(kind EventKind, fp string, j Job, cycle uint64, wallNS int64, errText string) {
	emit := r.Emit
	if emit == nil {
		return
	}
	r.mu.Lock()
	r.eventSeq++
	seq := r.eventSeq
	r.mu.Unlock()
	emit(Event{
		Seq:    seq,
		Kind:   kind,
		FP:     fp,
		App:    j.App,
		Scale:  j.Scale.String(),
		Proto:  j.Proto,
		Procs:  j.Cfg.Procs,
		Cycle:  cycle,
		WallNS: wallNS,
		Err:    errText,
	})
}
