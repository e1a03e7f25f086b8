package mc

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// This file computes the litmus oracle: the exact set of register
// outcomes a sequentially consistent machine allows, by enumerating every
// interleaving of the program's operations (memoized on machine state).
// Alongside, a vector-clock race detector runs over each interleaving;
// a program is data-race-free iff no SC execution exhibits concurrent
// conflicting accesses to the same word (the adve/hill definition, which
// is decidable for these finite programs). The enumerator validates each
// Test's declared DRF flag, so a mislabeled test cannot silently weaken
// the conformance check.

// vclock is a vector clock, one lane per processor (validateTest bounds
// Procs by maxProcs). An array, so assignment copies it.
type vclock [maxProcs]uint32

const maxProcs = 4

func (c *vclock) join(o vclock) {
	for i, v := range o {
		c[i] = max(c[i], v)
	}
}

// scState is the complete SC machine state during enumeration. A state is
// cloned once per successor, so the layout keeps a clone to four
// allocations: the scalars share one array, the vector clocks another,
// and the inner slices of regs and accesses are shared between a state
// and its clones — step appends to a clipped slice, which copies it, and
// never writes through one.
type scState struct {
	t *Test
	// scalars backs pc, mem, locks and flags.
	scalars []uint64
	pc      []uint64 // per-processor program counter
	mem     []uint64 // per-variable value
	locks   []uint64 // 0 free, else owner+1
	flags   []uint64 // 0 clear, 1 set
	regs    [][]uint64

	// happens-before machinery for race detection: vcs backs the
	// processors', locks' and flags' vector clocks.
	vcs                    []vclock
	procVC, lockVC, flagVC []vclock
	// accesses[v] records every access to variable v with the accessor's
	// vector clock at access time.
	accesses [][]scAccess
}

type scAccess struct {
	proc  int
	write bool
	vc    vclock
}

func newSCState(t *Test) *scState {
	s := &scState{
		t:        t,
		scalars:  make([]uint64, t.Procs+len(t.Vars)+t.Locks+t.Flags),
		regs:     make([][]uint64, t.Procs),
		vcs:      make([]vclock, t.Procs+t.Locks+t.Flags),
		accesses: make([][]scAccess, len(t.Vars)),
	}
	s.view()
	return s
}

// view points the named slices into their backing arrays.
func (s *scState) view() {
	t, sc := s.t, s.scalars
	s.pc, sc = sc[:t.Procs], sc[t.Procs:]
	s.mem, sc = sc[:len(t.Vars)], sc[len(t.Vars):]
	s.locks, s.flags = sc[:t.Locks], sc[t.Locks:]
	s.procVC, s.lockVC, s.flagVC = s.vcs[:t.Procs], s.vcs[t.Procs:t.Procs+t.Locks], s.vcs[t.Procs+t.Locks:]
}

func (s *scState) clone() *scState {
	c := &scState{
		t:        s.t,
		scalars:  slices.Clone(s.scalars),
		regs:     slices.Clone(s.regs),
		vcs:      slices.Clone(s.vcs),
		accesses: slices.Clone(s.accesses),
	}
	c.view()
	return c
}

// appendKey appends a serialization of everything that can influence the
// remaining execution (including recorded registers and the
// happens-before state, so the race verdict stays exact under
// memoization). The test fixes every length but the registers', written
// ahead of their elements, and the access lists', which come last with
// each access tagged by its variable; with prefix-free varints that makes
// the key injective.
func (s *scState) appendKey(b []byte) []byte {
	vc := func(c vclock) {
		for _, v := range c {
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	for _, v := range s.scalars {
		b = binary.AppendUvarint(b, v)
	}
	for _, rs := range s.regs {
		b = binary.AppendUvarint(b, uint64(len(rs)))
		for _, v := range rs {
			b = binary.AppendUvarint(b, v)
		}
	}
	for _, c := range s.vcs {
		vc(c)
	}
	for v, as := range s.accesses {
		for _, a := range as {
			tag := byte(a.proc) << 1
			if a.write {
				tag |= 1
			}
			b = append(b, byte(v), tag)
			vc(a.vc)
		}
	}
	return b
}

// enabled reports whether proc p's next op can execute.
func (s *scState) enabled(p int) bool {
	if int(s.pc[p]) >= len(s.t.Code[p]) {
		return false
	}
	op := s.t.Code[p][s.pc[p]]
	switch op.Kind {
	case OpAcquire:
		return s.locks[op.Obj] == 0
	case OpWaitFlag:
		return s.flags[op.Obj] != 0
	}
	return true
}

// step executes proc p's next op in place, returning whether it raced
// with an earlier access.
func (s *scState) step(p int) (raced bool) {
	op := s.t.Code[p][s.pc[p]]
	s.pc[p]++
	switch op.Kind {
	case OpAcquire:
		s.locks[op.Obj] = uint64(p) + 1
		s.procVC[p].join(s.lockVC[op.Obj])
	case OpRelease:
		s.locks[op.Obj] = 0
		s.lockVC[op.Obj].join(s.procVC[p])
	case OpSetFlag:
		s.flags[op.Obj] = 1
		s.flagVC[op.Obj].join(s.procVC[p])
	case OpWaitFlag:
		s.procVC[p].join(s.flagVC[op.Obj])
	case OpRead, OpWrite:
		write := op.Kind == OpWrite
		for _, prev := range s.accesses[op.Var] {
			if prev.proc == p || (!prev.write && !write) {
				continue
			}
			// prev happens-before this access iff prev's post-access clock
			// (vc[prev.proc]+1) has propagated to p through synchronization;
			// conflicting accesses with neither ordered are a race.
			if s.procVC[p][prev.proc] < prev.vc[prev.proc]+1 {
				raced = true
			}
		}
		s.accesses[op.Var] = append(slices.Clip(s.accesses[op.Var]), scAccess{proc: p, write: write, vc: s.procVC[p]})
		if write {
			s.mem[op.Var] = op.Val
		} else {
			s.regs[p] = append(slices.Clip(s.regs[p]), s.mem[op.Var])
		}
		s.procVC[p][p]++
	}
	return raced
}

func (s *scState) done() bool {
	for p := range s.pc {
		if int(s.pc[p]) < len(s.t.Code[p]) {
			return false
		}
	}
	return true
}

// SCResult is the oracle for one litmus test.
type SCResult struct {
	// Allowed is the sorted set of outcomes (formatOutcome strings) some
	// SC interleaving produces.
	Allowed []string
	// Racy reports whether any SC interleaving contains a data race.
	Racy bool
	// States is the number of distinct machine states visited.
	States int
}

// AllowedOutcome reports whether outcome is in the allowed set.
func (r *SCResult) AllowedOutcome(outcome string) bool {
	for _, a := range r.Allowed {
		if a == outcome {
			return true
		}
	}
	return false
}

// scStateCap bounds the enumeration; the corpus stays far below it, and
// exceeding it means a test is too large to serve as an oracle.
const scStateCap = 2_000_000

// scOracle is SCOutcomes(t), computed once per test: every Explore of t
// consults it, and it is a pure function of t.
func (t *Test) scOracle() (*SCResult, error) {
	t.sc.once.Do(func() { t.sc.res, t.sc.err = SCOutcomes(t) })
	return t.sc.res, t.sc.err
}

// SCOutcomes enumerates every sequentially consistent execution of t.
func SCOutcomes(t *Test) (*SCResult, error) {
	if err := validateTest(t); err != nil {
		return nil, err
	}
	res := &SCResult{}
	outcomes := map[string]bool{}
	visited := map[string]bool{}
	var key []byte // reused: a state's key is looked up and stored before the search descends
	var dfs func(s *scState) error
	dfs = func(s *scState) error {
		key = s.appendKey(key[:0])
		if visited[string(key)] {
			return nil
		}
		if len(visited) >= scStateCap {
			return fmt.Errorf("mc: SC enumeration of %q exceeded %d states", t.Name, scStateCap)
		}
		visited[string(key)] = true
		if s.done() {
			outcomes[formatOutcome(s.regs)] = true
			return nil
		}
		any := false
		for p := 0; p < s.t.Procs; p++ {
			if !s.enabled(p) {
				continue
			}
			any = true
			next := s.clone()
			if next.step(p) {
				res.Racy = true
			}
			if err := dfs(next); err != nil {
				return err
			}
		}
		if !any {
			return fmt.Errorf("mc: litmus test %q deadlocks under SC (pc=%v)", t.Name, s.pc)
		}
		return nil
	}
	if err := dfs(newSCState(t)); err != nil {
		return nil, err
	}
	for o := range outcomes {
		res.Allowed = append(res.Allowed, o)
	}
	sort.Strings(res.Allowed)
	res.States = len(visited)
	if res.Racy == t.DRF {
		return nil, fmt.Errorf("mc: litmus test %q declares DRF=%t but SC enumeration found racy=%t",
			t.Name, t.DRF, res.Racy)
	}
	return res, nil
}

// formatOutcome canonically renders the register values each processor's
// reads observed, e.g. "p0=1;p1=0,1" (processors with no reads omitted).
func formatOutcome(regs [][]uint64) string {
	var b strings.Builder
	for p, rs := range regs {
		if len(rs) == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "p%d=", p)
		for i, v := range rs {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", v)
		}
	}
	return b.String()
}

// validateTest checks structural sanity of a litmus test.
func validateTest(t *Test) error {
	if t.Procs < 2 || t.Procs > maxProcs {
		return fmt.Errorf("mc: test %q: Procs %d out of range [2,%d]", t.Name, t.Procs, maxProcs)
	}
	if len(t.Code) != t.Procs {
		return fmt.Errorf("mc: test %q: %d programs for %d procs", t.Name, len(t.Code), t.Procs)
	}
	slots := map[[2]int]string{}
	for _, v := range t.Vars {
		if v.Line < 0 || v.Word < 0 || v.Word >= lineWords {
			return fmt.Errorf("mc: test %q: var %q at line %d word %d is not a word of a %d-word line",
				t.Name, v.Name, v.Line, v.Word, lineWords)
		}
		k := [2]int{v.Line, v.Word}
		if prev, dup := slots[k]; dup {
			return fmt.Errorf("mc: test %q: vars %q and %q share line %d word %d",
				t.Name, prev, v.Name, v.Line, v.Word)
		}
		slots[k] = v.Name
	}
	for p, code := range t.Code {
		for i, op := range code {
			switch op.Kind {
			case OpRead, OpWrite:
				if op.Var < 0 || op.Var >= len(t.Vars) {
					return fmt.Errorf("mc: test %q: p%d op %d: var %d out of range", t.Name, p, i, op.Var)
				}
			case OpAcquire, OpRelease:
				if op.Obj < 0 || op.Obj >= t.Locks {
					return fmt.Errorf("mc: test %q: p%d op %d: lock %d out of range", t.Name, p, i, op.Obj)
				}
			case OpSetFlag, OpWaitFlag:
				if op.Obj < 0 || op.Obj >= t.Flags {
					return fmt.Errorf("mc: test %q: p%d op %d: flag %d out of range", t.Name, p, i, op.Obj)
				}
			default:
				return fmt.Errorf("mc: test %q: p%d op %d: unknown kind %d", t.Name, p, i, op.Kind)
			}
		}
	}
	return nil
}
