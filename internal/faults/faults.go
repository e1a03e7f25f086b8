// Package faults provides deterministic, seed-replayable fault injection
// for the simulated interconnect. A Plan describes the probability and
// magnitude of injected extra delay (in-flight jitter), duplication,
// reordering, and loss, plus scheduled link-outage windows and per-node
// receive brownouts; an Injector draws from a seeded SplitMix64 stream to
// turn the rule into a concrete Fault decision per message.
//
// Loss is only survivable when an end-to-end retry exists. The mesh
// attaches a plan only through its reliable-delivery transport
// (mesh/transport.go), which retries every message kind, so a plan may
// drop anything.
//
// Determinism: the injector consumes its random stream in Decide-call
// order, and Decide is called from the (single-threaded, deterministic)
// simulation engine, so a given (seed, plan, workload) triple produces an
// identical fault schedule — and therefore an identical simulation — on
// every run. With no injector attached the simulation is bit-identical to
// a build without this package.
package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// kindNamer maps protocol message kinds to their mnemonics in the
// transport's error messages. The protocol package registers it at init;
// the indirection keeps this package free of a protocol dependency
// (protocol imports mesh imports faults).
var kindNamer func(int) string

// RegisterKindName installs the message-kind naming function (nil leaves
// the raw-integer behaviour).
func RegisterKindName(name func(int) string) { kindNamer = name }

// KindName renders a message kind with the registered namer, falling back
// to the raw integer.
func KindName(k int) string {
	if kindNamer != nil {
		return kindNamer(k)
	}
	return strconv.Itoa(k)
}

// Rule gives the injection probabilities and magnitudes every message is
// drawn against. All probabilities are in [0, 1]; all magnitudes are in
// simulated cycles.
type Rule struct {
	// DelayProb is the chance of adding in-flight latency jitter, drawn
	// uniformly from [DelayMin, DelayMax]. Jitter shifts a message's
	// arrival but cannot reorder messages bound for the same destination.
	DelayProb          float64
	DelayMin, DelayMax uint64

	// DupProb is the chance the message is delivered twice; the duplicate
	// re-enters the network up to DupDelayMax cycles after the original.
	// Receivers deduplicate by delivery sequence number, so duplication
	// perturbs timing and resource occupancy without double-applying
	// protocol actions.
	DupProb     float64
	DupDelayMax uint64

	// ReorderProb is the chance the message is held for up to ReorderMax
	// cycles before entering the network, letting later messages overtake
	// it. Per-(src,dst) FIFO order is still preserved — the mesh never
	// reorders two messages between the same pair of nodes, matching the
	// ordering guarantee of dimension-ordered routing that the protocols
	// are entitled to assume.
	ReorderProb float64
	ReorderMax  uint64

	// DropProb is the chance the message is silently discarded; the mesh's
	// reliable-delivery transport retransmits it.
	DropProb float64
}

// Zero reports whether the rule injects nothing.
func (r Rule) Zero() bool {
	return r.DelayProb == 0 && r.DupProb == 0 && r.ReorderProb == 0 && r.DropProb == 0
}

func (r Rule) validate() error {
	for _, p := range []float64{r.DelayProb, r.DupProb, r.ReorderProb, r.DropProb} {
		if !(p >= 0 && p <= 1) { // NaN included
			return fmt.Errorf("faults: probability %v outside [0,1]", p)
		}
	}
	if r.DelayProb > 0 && r.DelayMax < r.DelayMin {
		return fmt.Errorf("faults: delay window [%d,%d] is empty", r.DelayMin, r.DelayMax)
	}
	return nil
}

// Outage is a scheduled link failure: the undirected mesh link between
// adjacent nodes A and B is down for [From, From+Len) simulated cycles.
// Every message whose XY route crosses the link during the window is
// lost on the wire (and recovered by the transport's retransmission).
type Outage struct {
	A, B      int
	From, Len uint64
}

// Covers reports whether the outage is in effect at simulated time now.
func (o Outage) Covers(now uint64) bool {
	return now >= o.From && now < o.From+o.Len
}

// String renders the outage in plan-clause form.
func (o Outage) String() string {
	return fmt.Sprintf("down=%d-%d:%d:%d", o.A, o.B, o.From, o.Len)
}

// Brownout is a scheduled receive failure: node Node drops every message
// arriving during [From, From+Len) simulated cycles — the NIC is alive
// enough to sink the bits but nothing reaches the protocol. Lost
// messages are recovered by the transport's retransmission.
type Brownout struct {
	Node      int
	From, Len uint64
}

// Covers reports whether the brownout is in effect at simulated time now.
func (b Brownout) Covers(now uint64) bool {
	return now >= b.From && now < b.From+b.Len
}

// String renders the brownout in plan-clause form.
func (b Brownout) String() string {
	return fmt.Sprintf("brown=%d:%d:%d", b.Node, b.From, b.Len)
}

// Plan is a complete fault-injection schedule description: the
// probabilistic rule every message is drawn against, and scheduled link
// outages and node brownouts.
type Plan struct {
	Rule Rule

	// Outages and Brownouts are scheduled deterministic failures,
	// independent of the probabilistic rule (each carries its own
	// window).
	Outages   []Outage
	Brownouts []Brownout
}

// LinkDown reports whether the undirected link between adjacent nodes a
// and b is inside an outage window at simulated time now.
func (p Plan) LinkDown(a, b int, now uint64) bool {
	for _, o := range p.Outages {
		if ((o.A == a && o.B == b) || (o.A == b && o.B == a)) && o.Covers(now) {
			return true
		}
	}
	return false
}

// NodeBrowned reports whether node is inside a receive-brownout window at
// simulated time now.
func (p Plan) NodeBrowned(node int, now uint64) bool {
	for _, b := range p.Brownouts {
		if b.Node == node && b.Covers(now) {
			return true
		}
	}
	return false
}

// Validate checks probabilities, delay windows, and outage schedules.
func (p Plan) Validate() error {
	if err := p.Rule.validate(); err != nil {
		return err
	}
	for _, o := range p.Outages {
		if o.A < 0 || o.B < 0 || o.A == o.B {
			return fmt.Errorf("faults: outage %s does not name two distinct nodes", o)
		}
		if o.Len == 0 {
			return fmt.Errorf("faults: outage %s has a zero-length window", o)
		}
	}
	for _, b := range p.Brownouts {
		if b.Node < 0 {
			return fmt.Errorf("faults: brownout %s names a negative node", b)
		}
		if b.Len == 0 {
			return fmt.Errorf("faults: brownout %s has a zero-length window", b)
		}
	}
	return nil
}

// fmtProb renders a probability in the shortest form that re-parses to
// the identical float64.
func fmtProb(p float64) string { return strconv.FormatFloat(p, 'g', -1, 64) }

// appendRule renders one rule's settings as plan items: each setting with
// a nonzero field, magnitudes explicit.
func appendRule(items []string, r Rule) []string {
	if r.DelayProb != 0 || r.DelayMin != 0 || r.DelayMax != 0 {
		items = append(items, fmt.Sprintf("delay=%s:%d:%d", fmtProb(r.DelayProb), r.DelayMin, r.DelayMax))
	}
	if r.DupProb != 0 || r.DupDelayMax != 0 {
		items = append(items, fmt.Sprintf("dup=%s:%d", fmtProb(r.DupProb), r.DupDelayMax))
	}
	if r.ReorderProb != 0 || r.ReorderMax != 0 {
		items = append(items, fmt.Sprintf("reorder=%s:%d", fmtProb(r.ReorderProb), r.ReorderMax))
	}
	if r.DropProb != 0 {
		items = append(items, fmt.Sprintf("drop=%s", fmtProb(r.DropProb)))
	}
	return items
}

// String renders the plan in the textual format ParsePlan accepts, so
// ParsePlan(p.String()) reproduces p.
func (p Plan) String() string {
	items := appendRule(nil, p.Rule)
	for _, o := range p.Outages {
		items = append(items, o.String())
	}
	for _, b := range p.Brownouts {
		items = append(items, b.String())
	}
	return strings.Join(items, ",")
}

// ParsePlan parses the textual plan format used by the FaultPlan
// configuration knob and the -faults command-line flag.
//
// A plan is a semicolon-separated list of clauses, each a comma-separated
// list of settings; at most one clause sets the rule (delay, dup, reorder,
// drop), which applies to every message:
//
//	delay=P[:MIN:MAX]   extra in-flight latency with probability P,
//	                    uniform in [MIN,MAX] cycles (default 1:64)
//	dup=P[:MAX]         duplicate delivery with probability P, the copy
//	                    re-sent within MAX cycles (default 32)
//	reorder=P[:MAX]     hold before sending with probability P, up to MAX
//	                    cycles (default 64); per-(src,dst) FIFO preserved
//	drop=P              drop with probability P (the mesh transport
//	                    retransmits until delivered)
//	down=A-B:FROM:LEN   the mesh link between adjacent nodes A and B is
//	                    down for [FROM,FROM+LEN) cycles (repeatable)
//	brown=NODE:FROM:LEN node NODE drops everything it receives during
//	                    [FROM,FROM+LEN) cycles (repeatable)
//
// Example: "drop=0.1,delay=0.05:1:64;down=0-1:20000:5000" drops a tenth
// of all traffic, jitters some of the rest, and takes the 0–1 link down
// for 5000 cycles.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	seenRule := false
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			return Plan{}, fmt.Errorf("faults: empty clause (stray %q?)", ";")
		}
		var r Rule
		ruleItems := false // clause carries delay/dup/reorder/drop settings
		for _, item := range strings.Split(clause, ",") {
			item = strings.TrimSpace(item)
			if item == "" {
				return Plan{}, fmt.Errorf("faults: empty setting in clause %q", clause)
			}
			key, val, ok := strings.Cut(item, "=")
			if !ok {
				return Plan{}, fmt.Errorf("faults: malformed setting %q (want key=value)", item)
			}
			args := strings.Split(val, ":")
			prob := func() (float64, error) {
				f, err := strconv.ParseFloat(args[0], 64)
				if err != nil || !(f >= 0 && f <= 1) { // NaN included
					return 0, fmt.Errorf("faults: %s probability %q not in [0,1]", key, args[0])
				}
				return f, nil
			}
			cyc := func(i int, def uint64) (uint64, error) {
				if i >= len(args) {
					return def, nil
				}
				n, err := strconv.ParseUint(args[i], 10, 64)
				if err != nil {
					return 0, fmt.Errorf("faults: %s cycle count %q: %v", key, args[i], err)
				}
				return n, nil
			}
			var err error
			switch key {
			case "delay", "dup", "reorder", "drop":
				ruleItems = true
			}
			switch key {
			case "delay":
				if r.DelayProb, err = prob(); err != nil {
					return Plan{}, err
				}
				if r.DelayMin, err = cyc(1, 1); err != nil {
					return Plan{}, err
				}
				if r.DelayMax, err = cyc(2, maxU64(64, r.DelayMin)); err != nil {
					return Plan{}, err
				}
			case "dup":
				if r.DupProb, err = prob(); err != nil {
					return Plan{}, err
				}
				if r.DupDelayMax, err = cyc(1, 32); err != nil {
					return Plan{}, err
				}
			case "reorder":
				if r.ReorderProb, err = prob(); err != nil {
					return Plan{}, err
				}
				if r.ReorderMax, err = cyc(1, 64); err != nil {
					return Plan{}, err
				}
			case "drop":
				if r.DropProb, err = prob(); err != nil {
					return Plan{}, err
				}
			case "down":
				if len(args) != 3 {
					return Plan{}, fmt.Errorf("faults: down wants A-B:FROM:LEN, got %q", val)
				}
				a, b, ok := strings.Cut(args[0], "-")
				if !ok {
					return Plan{}, fmt.Errorf("faults: down link %q wants A-B", args[0])
				}
				var o Outage
				if o.A, err = strconv.Atoi(a); err != nil {
					return Plan{}, fmt.Errorf("faults: down link node %q: %v", a, err)
				}
				if o.B, err = strconv.Atoi(b); err != nil {
					return Plan{}, fmt.Errorf("faults: down link node %q: %v", b, err)
				}
				if o.From, err = cyc(1, 0); err != nil {
					return Plan{}, err
				}
				if o.Len, err = cyc(2, 0); err != nil {
					return Plan{}, err
				}
				p.Outages = append(p.Outages, o)
			case "brown":
				if len(args) != 3 {
					return Plan{}, fmt.Errorf("faults: brown wants NODE:FROM:LEN, got %q", val)
				}
				var br Brownout
				if br.Node, err = strconv.Atoi(args[0]); err != nil {
					return Plan{}, fmt.Errorf("faults: brown node %q: %v", args[0], err)
				}
				if br.From, err = cyc(1, 0); err != nil {
					return Plan{}, err
				}
				if br.Len, err = cyc(2, 0); err != nil {
					return Plan{}, err
				}
				p.Brownouts = append(p.Brownouts, br)
			default:
				return Plan{}, fmt.Errorf("faults: unknown setting %q (want delay, dup, reorder, drop, down, or brown)", key)
			}
		}
		if ruleItems {
			if seenRule {
				return Plan{}, fmt.Errorf("faults: more than one clause sets the rule")
			}
			seenRule = true
			p.Rule = r
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Fault is one concrete injection decision for one message.
type Fault struct {
	// PreDelay holds the message back before it enters the network
	// (reordering); ExtraLat is added to its in-flight latency (jitter).
	PreDelay, ExtraLat uint64
	// Duplicate requests a second delivery, re-entering the network
	// DupDelay cycles after the original.
	Duplicate bool
	DupDelay  uint64
	// Drop discards the message; the transport's retransmission timer
	// recovers it.
	Drop bool
}

// Injector turns a Plan into per-message Fault decisions from a seeded
// deterministic stream.
type Injector struct {
	rng  *RNG
	plan Plan
	seed uint64

	decided, faulted uint64
}

// NewInjector returns an injector for the plan whose schedule is a pure
// function of seed.
func NewInjector(seed uint64, plan Plan) *Injector {
	if seed == 0 {
		seed = 1
	}
	return &Injector{rng: NewRNG(seed), plan: plan, seed: seed}
}

// Seed returns the seed the injector was built with — printed in failure
// reports so a failing schedule can be replayed.
func (in *Injector) Seed() uint64 { return in.seed }

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// Validate checks the injector's plan.
func (in *Injector) Validate() error { return in.plan.Validate() }

// Decide draws the fault decision for one message. It must be called in
// deterministic (engine) order; the decision stream is a pure function of
// the injector's seed and the call sequence.
func (in *Injector) Decide() Fault {
	var f Fault
	r := in.plan.Rule
	if r.Zero() {
		return f
	}
	in.decided++
	if r.DropProb > 0 && in.rng.Float64() < r.DropProb {
		f.Drop = true
		in.faulted++
		return f
	}
	if r.ReorderProb > 0 && in.rng.Float64() < r.ReorderProb {
		f.PreDelay = 1 + in.rng.Uint64n(maxU64(r.ReorderMax, 1))
	}
	if r.DelayProb > 0 && in.rng.Float64() < r.DelayProb {
		f.ExtraLat = r.DelayMin + in.rng.Uint64n(r.DelayMax-r.DelayMin+1)
	}
	if r.DupProb > 0 && in.rng.Float64() < r.DupProb {
		f.Duplicate = true
		f.DupDelay = 1 + in.rng.Uint64n(maxU64(r.DupDelayMax, 1))
	}
	if f.PreDelay > 0 || f.ExtraLat > 0 || f.Duplicate {
		in.faulted++
	}
	return f
}

// Stats returns how many messages were considered and how many received at
// least one fault.
func (in *Injector) Stats() (decided, faulted uint64) { return in.decided, in.faulted }
