package mc

import (
	"fmt"
	"sync"
)

// This file defines the litmus-test language and the corpus. A litmus
// test is a tiny program — 2–4 processors, a handful of shared variables
// packed onto 1–2 cache lines — whose every read records a register. The
// checker explores message-delivery interleavings of the program under a
// protocol and compares the observed register outcomes against the set a
// sequentially consistent machine allows (computed by the enumerator in
// scref.go). For data-race-free programs, release consistency promises
// exactly the SC outcomes, so any extra outcome is a protocol bug.

// OpKind is one litmus operation.
type OpKind int

const (
	// OpRead loads a shared variable into the next register.
	OpRead OpKind = iota
	// OpWrite stores an immediate to a shared variable.
	OpWrite
	// OpAcquire acquires lock Obj.
	OpAcquire
	// OpRelease releases lock Obj.
	OpRelease
	// OpSetFlag sets one-shot flag Obj (release semantics).
	OpSetFlag
	// OpWaitFlag blocks until flag Obj is set (acquire semantics).
	OpWaitFlag
)

// Op is one instruction of a litmus program.
type Op struct {
	Kind OpKind
	Var  int    // variable index (OpRead/OpWrite)
	Val  uint64 // immediate (OpWrite)
	Obj  int    // lock or flag index (sync ops)
}

// Var is one shared variable: a (line, word) slot. Distinct variables on
// the same line exercise false sharing.
type Var struct {
	Name string
	Line int
	Word int
}

// Test is one litmus program.
type Test struct {
	Name string
	Doc  string
	// Procs is the processor count (2–4).
	Procs int
	Vars  []Var
	Locks int
	Flags int
	// Code[p] is processor p's program.
	Code [][]Op
	// DRF declares the program data-race-free. Validated against the SC
	// enumerator's race detector; DRF programs must produce only
	// SC-allowed outcomes under every protocol, racy programs only under
	// the SC protocol.
	DRF bool

	sc struct { // scOracle's memo
		once sync.Once
		res  *SCResult
		err  error
	}
}

func r(v int) Op           { return Op{Kind: OpRead, Var: v} }
func w(v int, x uint64) Op { return Op{Kind: OpWrite, Var: v, Val: x} }
func acq(l int) Op         { return Op{Kind: OpAcquire, Obj: l} }
func rel(l int) Op         { return Op{Kind: OpRelease, Obj: l} }
func setf(f int) Op        { return Op{Kind: OpSetFlag, Obj: f} }
func waitf(f int) Op       { return Op{Kind: OpWaitFlag, Obj: f} }

// Tests returns the litmus corpus. The slice and its tests are shared;
// callers must not mutate them.
func Tests() []*Test {
	return corpus
}

// FindTest returns the named test, or an error listing the known names.
func FindTest(name string) (*Test, error) {
	names := make([]string, 0, len(corpus))
	for _, t := range corpus {
		if t.Name == name {
			return t, nil
		}
		names = append(names, t.Name)
	}
	return nil, fmt.Errorf("mc: unknown litmus test %q (known: %v)", name, names)
}

var corpus = []*Test{
	{
		Name:  "mp-flag",
		Doc:   "message passing: producer writes x then sets a flag; consumer waits and must read the new x",
		Procs: 2,
		Vars:  []Var{{Name: "x", Line: 0, Word: 0}},
		Flags: 1,
		Code: [][]Op{
			{w(0, 1), setf(0)},
			{waitf(0), r(0)},
		},
		DRF: true,
	},
	{
		Name: "mp-stale",
		Doc: "stale-copy message passing: the consumer caches x before the producer " +
			"writes it, so the consumer's acquire must apply the queued write notice " +
			"— the schedule-independent detector for skipped acquire invalidations",
		Procs: 2,
		Vars:  []Var{{Name: "x", Line: 0, Word: 0}},
		Flags: 2,
		Code: [][]Op{
			// P0 waits until P1 provably caches x, then writes and publishes.
			{waitf(1), w(0, 1), setf(0)},
			// P1 caches x=0, announces it, then acquires and re-reads.
			{r(0), setf(1), waitf(0), r(0)},
		},
		DRF: true,
	},
	{
		Name:  "sb-lock",
		Doc:   "store buffering with each variable under its own lock (data-race-free)",
		Procs: 2,
		Vars:  []Var{{Name: "x", Line: 0, Word: 0}, {Name: "y", Line: 1, Word: 0}},
		Locks: 2,
		Code: [][]Op{
			{acq(0), w(0, 1), rel(0), acq(1), r(1), rel(1)},
			{acq(1), w(1, 1), rel(1), acq(0), r(0), rel(0)},
		},
		DRF: true,
	},
	{
		Name: "sb-racy",
		Doc: "classic store buffering with no synchronization: racy, so the lazy " +
			"protocols owe it nothing beyond invariants; the SC protocol must still " +
			"forbid the r0=0,r1=0 outcome... which buffered writes would produce",
		Procs: 2,
		Vars:  []Var{{Name: "x", Line: 0, Word: 0}, {Name: "y", Line: 1, Word: 0}},
		Code: [][]Op{
			{w(0, 1), r(1)},
			{w(1, 1), r(0)},
		},
		DRF: false,
	},
	{
		Name: "iriw-lock",
		Doc: "independent reads of independent writes, every access under the " +
			"variable's lock: the two readers must not disagree on the write order",
		Procs: 4,
		Vars:  []Var{{Name: "x", Line: 0, Word: 0}, {Name: "y", Line: 1, Word: 0}},
		Locks: 2,
		Code: [][]Op{
			{acq(0), w(0, 1), rel(0)},
			{acq(1), w(1, 1), rel(1)},
			{acq(0), r(0), rel(0), acq(1), r(1), rel(1)},
			{acq(1), r(1), rel(1), acq(0), r(0), rel(0)},
		},
		DRF: true,
	},
	{
		Name: "fs-multiwriter",
		Doc: "false-sharing multi-writer: both processors write distinct words of " +
			"the same line concurrently (the lazy protocols' weak state), then " +
			"exchange flags and must each read the other's word",
		Procs: 2,
		Vars:  []Var{{Name: "a", Line: 0, Word: 0}, {Name: "b", Line: 0, Word: 1}},
		Flags: 2,
		Code: [][]Op{
			{w(0, 1), setf(0), waitf(1), r(1)},
			{w(1, 1), setf(1), waitf(0), r(0)},
		},
		DRF: true,
	},
	{
		Name: "lock-handoff",
		Doc: "lock-protected handoff: values must follow the lock through " +
			"successive critical sections in either acquisition order",
		Procs: 2,
		Vars:  []Var{{Name: "x", Line: 0, Word: 0}},
		Locks: 1,
		Code: [][]Op{
			{acq(0), w(0, 1), rel(0), acq(0), r(0), rel(0)},
			{acq(0), r(0), w(0, 2), rel(0)},
		},
		DRF: true,
	},
}
