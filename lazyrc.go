// Package lazyrc is a cycle-level simulation study of lazy release
// consistency for hardware-coherent multiprocessors, reproducing
// Kontothanassis, Scott, and Bianchini (Supercomputing '95).
//
// It provides:
//
//   - a deterministic execution-driven multiprocessor simulator — mesh
//     interconnect, finite direct-mapped caches, write buffers,
//     distributed directories, and contended memory modules;
//   - six coherence protocols: sequential consistency (SC), eager
//     release consistency in the style of DASH (ERC), the paper's lazy
//     release consistency (LRC), the lazier variant that defers write
//     notices to release points (LRCExt), and two timestamp-based
//     lease protocols with no invalidation traffic at all (Tardis and
//     its relaxed Tardis 2.0 successor);
//   - the paper's seven SPLASH-suite workloads re-implemented as real,
//     verified computations over the simulated shared address space;
//   - an experiment harness that regenerates every table and figure of
//     the paper's evaluation.
//
// # Quick start
//
//	cfg := lazyrc.DefaultConfig(64)
//	m, err := lazyrc.NewMachine(cfg, "lrc")
//	if err != nil { ... }
//	counter := m.AllocI64(1)
//	lock := m.NewLock()
//	m.Run(func(p *lazyrc.Proc) {
//		p.Acquire(lock)
//		p.WriteI64(counter.At(0), p.ReadI64(counter.At(0))+1)
//		p.Release(lock)
//	})
//	fmt.Println(m.Stats.ExecutionTime())
//
// See examples/falsesharing for a runnable program and cmd/paperbench
// for the paper's full evaluation.
package lazyrc

import (
	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/exp"
	"lazyrc/internal/machine"
	"lazyrc/internal/protocol"
	"lazyrc/internal/stats"
)

// Config is the simulated machine's parameter table (Table 1 of the
// paper).
type Config = config.Config

// DefaultConfig returns the paper's Table 1 parameters for n processors.
func DefaultConfig(n int) Config { return config.Default(n) }

// FutureConfig returns the §4.3 future-machine parameters (40-cycle
// memory startup, 4 bytes/cycle bandwidth, 256-byte lines).
func FutureConfig(n int) Config { return config.Future(n) }

// Machine is one simulated multiprocessor.
type Machine = machine.Machine

// Proc is the per-processor handle a workload runs against.
type Proc = machine.Proc

// Addr is a simulated shared-memory address.
type Addr = machine.Addr

// Lock, Barrier, and Flag are the synchronization objects whose acquire
// and release operations carry the consistency-model semantics.
type (
	Lock    = machine.Lock
	Barrier = machine.Barrier
	Flag    = machine.Flag
)

// F64 and I64 are handles to shared arrays.
type (
	F64 = machine.F64
	I64 = machine.I64
)

// ProcStats is one processor's cycle breakdown and miss counts.
type ProcStats = stats.Proc

// MissKind classifies a miss (cold, true, false, eviction, write).
type MissKind = stats.MissKind

// Miss categories, as in Table 2 of the paper.
const (
	Cold       = stats.Cold
	TrueShare  = stats.TrueShare
	FalseShare = stats.FalseShare
	Eviction   = stats.Eviction
	WriteMiss  = stats.WriteMiss
)

// NewMachine builds a machine running the named protocol: "sc", "erc",
// "lrc", "lrc-ext", "tardis", or "tardis2".
func NewMachine(cfg Config, proto string) (*Machine, error) {
	return machine.New(cfg, proto)
}

// Protocols lists the available protocol names in evaluation order.
func Protocols() []string { return protocol.Names() }

// App is one of the paper's workloads.
type App = apps.App

// Scale selects a workload input size (ScaleTiny through ScalePaper).
type Scale = apps.Scale

// Workload input scales.
const (
	ScaleTiny   = apps.Tiny
	ScaleSmall  = apps.Small
	ScaleMedium = apps.Medium
	ScalePaper  = apps.Paper
)

// ParseScale converts "tiny", "small", "medium", or "paper" to a Scale.
func ParseScale(s string) (Scale, error) { return apps.ParseScale(s) }

// NewApp instantiates a workload by name: "gauss", "fft", "blu",
// "barnes-hut", "cholesky", "locusroute", or "mp3d".
func NewApp(name string, scale Scale) (App, error) { return apps.New(name, scale) }

// AppNames lists the available workloads.
func AppNames() []string { return apps.Names() }

// RunApp executes a workload on a fresh machine and verifies its result.
func RunApp(cfg Config, proto string, app App) (*Machine, error) {
	return apps.Run(cfg, proto, app)
}

// Evaluator runs and memoizes the paper's experiment matrix.
type Evaluator = exp.Evaluator

// NewEvaluator returns an evaluator at the given scale and machine size
// (the paper evaluates 64 processors).
func NewEvaluator(scale Scale, procs int) *Evaluator { return exp.NewEvaluator(scale, procs) }
