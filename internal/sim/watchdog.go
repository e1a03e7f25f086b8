package sim

import (
	"fmt"
	"slices"
	"sort"
)

// ContextStatus is one context's entry in a stall report.
type ContextStatus struct {
	Name       string
	Parked     bool
	WaitReason string // what the context is waiting for, if parked
	Progress   uint64 // resume count — unchanged across probes means no forward progress
}

// StallReport describes a simulation that has stopped making forward
// progress while events are still flowing — a livelock or lost wakeup the
// end-of-run deadlock panic would only surface after every queued event
// (timers, retries, probes) drained, possibly millions of cycles later.
type StallReport struct {
	// Time is the simulated time of the probe that detected the stall;
	// Interval is the watchdog period, so no context progressed in
	// (Time-Interval, Time].
	Time     Time
	Interval uint64
	// Events is the total event count at detection.
	Events uint64
	// Contexts lists every unfinished context, sorted by name.
	Contexts []ContextStatus
	// Retransmits lists the oldest in-flight reliable-transport
	// retransmit entries (messages the fabric is failing to deliver),
	// filled in by the machine layer when fault injection is active.
	Retransmits []string
	// StallCauses describes the causal critical-path state of the stalled
	// contexts — the open stall spans and, where a pending retransmission
	// belongs to the same transaction, the loss it is blocked on. Filled
	// in by the machine layer when causal tracing is active.
	StallCauses []string
	// Notes carries machine-level diagnostics (in-flight transactions,
	// NIC queue depths) appended by higher layers.
	Notes []string
}

// String renders the report for logs.
func (r StallReport) String() string {
	s := fmt.Sprintf("sim: stall at time %d (no context progress in %d cycles, %d events executed): %d context(s):",
		r.Time, r.Interval, r.Events, len(r.Contexts))
	for _, c := range r.Contexts {
		if c.Parked {
			s += fmt.Sprintf("\n  %s: waiting for %s (progress %d)", c.Name, c.WaitReason, c.Progress)
		} else {
			s += fmt.Sprintf("\n  %s: runnable (progress %d)", c.Name, c.Progress)
		}
	}
	for _, line := range slices.Concat(r.StallCauses, r.Retransmits, r.Notes) {
		s += "\n  " + line
	}
	return s
}

type watchdog struct {
	eng      *Engine
	interval uint64
	onStall  func(StallReport)
	last     map[*Context]uint64
	primed   bool // last has a full snapshot to compare against
	fired    bool // stall already reported; reset when progress resumes
}

// Watchdog installs a liveness watchdog: every interval cycles it probes
// per-context progress counters, and if an entire interval passes with
// every unfinished context parked and none progressing it calls onStall
// with a structured report. The handler may call Stop to abort the run.
// Probes are background events, so the watchdog never keeps an otherwise
// finished simulation alive. The stall is reported once per episode; if
// progress resumes and stalls again, onStall fires again.
//
// The detection is a heuristic: a context parked on a legitimately slow
// operation (a contended fill, a long barrier wait) has made no progress
// either, so the interval must comfortably exceed the longest wait the
// workload can legitimately produce — thousands of cycles at minimum,
// tens of thousands for heavily synchronized workloads. Too small an
// interval reports ordinary memory latency as a stall.
func (e *Engine) Watchdog(interval uint64, onStall func(StallReport)) {
	w := &watchdog{eng: e, interval: interval, onStall: onStall, last: map[*Context]uint64{}}
	e.Every(interval, w.probe)
}

func (w *watchdog) probe() {
	e := w.eng
	live, allParked, progressed := 0, true, false
	for _, c := range e.contexts {
		if c.done {
			continue
		}
		live++
		if !c.parked {
			allParked = false
		}
		if w.last[c] != c.progress {
			progressed = true
		}
	}
	if w.primed && live > 0 && allParked && !progressed {
		if !w.fired {
			w.fired = true
			w.onStall(w.report())
		}
	} else {
		w.fired = false
	}
	for _, c := range e.contexts {
		w.last[c] = c.progress
	}
	w.primed = true
}

func (w *watchdog) report() StallReport {
	e := w.eng
	r := StallReport{Time: e.now, Interval: w.interval, Events: e.nEvents}
	for _, c := range e.contexts {
		if c.done {
			continue
		}
		st := ContextStatus{Name: c.name, Parked: c.parked, Progress: c.progress}
		if c.parked {
			st.WaitReason = c.why
		}
		r.Contexts = append(r.Contexts, st)
	}
	sort.Slice(r.Contexts, func(i, j int) bool { return r.Contexts[i].Name < r.Contexts[j].Name })
	return r
}
