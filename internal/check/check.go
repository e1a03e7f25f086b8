// Package check implements a runtime protocol-invariant auditor for the
// simulated machine. It cross-checks the distributed state the protocols
// maintain — home-node directory entries against the actual contents of
// every processor cache and the set of outstanding transactions — both
// periodically during a run (epoch audits) and strictly at quiescence.
//
// Mid-run, distributed state legitimately disagrees while a transaction is
// in flight (a fill streaming on a bus, an acknowledgement crossing the
// mesh), so epoch audits skip blocks that are busy anywhere: any node with
// an outstanding transaction for the block, a home with transfer or grant
// machinery open, or pending acknowledgements. What remains must agree
// exactly; a violation means protocol state has been corrupted — by a bug
// or by an injected fault the protocols failed to absorb.
//
// The auditor observes but never mutates simulation state, and its epochs
// run as background events, so enabling it does not change the simulated
// schedule and cannot keep a finished simulation alive.
package check

import (
	"fmt"

	"lazyrc/internal/cache"
	"lazyrc/internal/directory"
	"lazyrc/internal/machine"
	"lazyrc/internal/protocol"
)

// Violation is one detected invariant breach.
type Violation struct {
	// Time is the simulated time of the audit that caught it.
	Time uint64
	// Node is the home node whose directory the violation concerns, or
	// NoNode for a check of the machine as a whole.
	Node int
	// Block is the coherence block, or NoBlock for machine-level checks.
	Block uint64
	// Invariant names the broken invariant (stable, kebab-case).
	Invariant string
	// Detail is the human-readable specifics.
	Detail string
	// Final marks a quiescence-audit violation.
	Final bool
}

// NoBlock marks a violation not tied to a single coherence block, NoNode
// one not tied to a single node.
const (
	NoBlock = ^uint64(0)
	NoNode  = -1
)

// String renders the violation.
func (v Violation) String() string {
	where := "machine"
	if v.Node != NoNode {
		where = fmt.Sprintf("node %d", v.Node)
	}
	if v.Block != NoBlock {
		where += fmt.Sprintf(" block %d", v.Block)
	}
	kind := "epoch"
	if v.Final {
		kind = "final"
	}
	return fmt.Sprintf("check: t=%d %s audit: %s: invariant %q: %s", v.Time, kind, where, v.Invariant, v.Detail)
}

// Auditor audits one machine. Create with New, optionally Start periodic
// epoch audits before the run, and call Final after it.
type Auditor struct {
	m    *machine.Machine
	lazy bool

	violations []Violation
	epochs     uint64
}

// maxViolations bounds how many violations are recorded (the first one
// is almost always the informative one; the rest are usually its
// fallout).
const maxViolations = 16

// New returns an auditor for m.
func New(m *machine.Machine) *Auditor {
	a := &Auditor{m: m, lazy: m.Nodes[0].Proto.Lazy()}
	a.Reset()
	return a
}

// Reset forgets the epochs and violations, for the machine's next run
// after Machine.Reset.
func (a *Auditor) Reset() {
	a.violations, a.epochs = a.violations[:0], 0
}

// Epoch is the cycle interval between the epoch audits of a checked run:
// the runner's guarded faulted jobs'.
const Epoch = 10000

// Start schedules an epoch audit every `every` cycles for the rest of the
// run. Audits are background events: they never keep the simulation
// alive. Call before Machine.Run.
func (a *Auditor) Start(every uint64) { a.m.Eng.Every(every, a.Epoch) }

// Violations returns the recorded violations in detection order.
func (a *Auditor) Violations() []Violation { return a.violations }

// Err returns the first recorded violation as an error, or nil.
func (a *Auditor) Err() error {
	if len(a.violations) == 0 {
		return nil
	}
	return fmt.Errorf("%s (%d violation(s) total)", a.violations[0], len(a.violations))
}

func (a *Auditor) record(v Violation) {
	if len(a.violations) < maxViolations {
		a.violations = append(a.violations, v)
	}
}

// blockBusy reports whether any part of the machine has an open
// transaction on block, making mid-run disagreement legitimate.
func (a *Auditor) blockBusy(block uint64, home *protocol.Node) bool {
	if home.HomeBusy(block) {
		return true
	}
	for _, n := range a.m.Nodes {
		if n.HasTxn(block) {
			return true
		}
	}
	return false
}

// Epoch performs one mid-run audit: every quiescent block's directory
// entry must validate structurally and agree with the caches.
func (a *Auditor) Epoch() {
	a.epochs++
	a.audit(false)
}

// Final is the one end-of-run audit, run after Machine.Run: exact
// directory/cache agreement with no acknowledgement still being
// collected, and everything the machine demands of itself at quiescence
// (Machine.CheckQuiescent: no residual transaction, buffered write,
// parked or undelivered message, invalid lease or home still in service),
// whose first breach is recorded as a violation like any other.
func (a *Auditor) Final() {
	a.audit(true)
	if err := a.m.CheckQuiescent(); err != nil {
		a.record(Violation{Time: a.m.Eng.Now(), Node: NoNode, Block: NoBlock, Final: true,
			Invariant: "machine-quiescent", Detail: err.Error()})
	}
}

// audit checks every home's entries — all of them at quiescence, the ones
// not busy mid-run — and then the home's per-state counts (kept at the
// transitions; what telemetry samples) against a recount of the entries,
// busy ones included: a count moves with its entry's state.
func (a *Auditor) audit(final bool) {
	now := a.m.Eng.Now()
	for _, home := range a.m.Nodes {
		var recount [4]int
		for _, r := range home.Dir.Entries() {
			recount[r.State]++
			if final || !a.blockBusy(r.Block, home) {
				a.checkEntry(now, home.ID, r.Block, r.Entry, final)
			}
		}
		if kept := home.Dir.StateCounts(); kept != recount {
			a.record(Violation{Time: now, Node: home.ID, Block: NoBlock, Final: final, Invariant: "dir-state-counts",
				Detail: fmt.Sprintf("directory keeps %v blocks per state, its entries recount to %v", kept, recount)})
		}
	}
}

// checkEntry audits one directory entry against the machine's caches.
func (a *Auditor) checkEntry(now uint64, homeID int, block uint64, e *directory.Entry, final bool) {
	v := func(invariant, detail string) {
		a.record(Violation{Time: now, Node: homeID, Block: block, Invariant: invariant, Detail: detail, Final: final})
	}
	if err := e.Validate(); err != nil {
		v("directory-structure", err.Error())
	}
	if e.PendingAcks > a.m.Cfg.Procs {
		v("pending-acks-bound", fmt.Sprintf("%d pending acks exceeds %d processors", e.PendingAcks, a.m.Cfg.Procs))
	}
	if final && e.PendingAcks != 0 {
		v("no-pending-acks", fmt.Sprintf("%d ack(s) still being collected at quiescence", e.PendingAcks))
	}
	rw := 0
	for _, n := range a.m.Nodes {
		line := n.Cache.Lookup(block)
		if line == nil {
			if final && e.Sharers.Has(n.ID) {
				v("sharer-holds-copy", fmt.Sprintf("node %d is in the sharer set but caches no copy", n.ID))
			}
			if final && e.Writers.Has(n.ID) {
				v("writer-holds-copy", fmt.Sprintf("node %d is in the writer set but caches no copy", n.ID))
			}
			continue
		}
		// A cached copy the home does not know about can never be
		// invalidated — the one-sided inclusion that must hold even
		// mid-run on quiescent blocks.
		if !e.Sharers.Has(n.ID) {
			v("cached-copy-tracked", fmt.Sprintf("node %d caches the block (%v) but is not in the sharer set", n.ID, line.State))
		}
		if line.State == cache.ReadWrite {
			rw++
			if !a.lazy && !e.Writers.Has(n.ID) {
				v("writable-copy-marked", fmt.Sprintf("node %d holds a writable copy but is not in the writer set", n.ID))
			}
		}
	}
	if !a.lazy && rw > 1 {
		v("single-writer", fmt.Sprintf("%d writable copies of the block exist under an eager protocol", rw))
	}
}
