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
// The facade is the machine alone. The paper's workloads and experiments
// run as evaluation cells through cmd/lrcsim (one cell), cmd/paperbench
// (the evaluation) and cmd/lrcsimd (the service); see
// examples/falsesharing for a runnable program.
package lazyrc

import (
	"lazyrc/internal/config"
	"lazyrc/internal/machine"
	"lazyrc/internal/protocol"
)

// Config is the simulated machine's parameter table (Table 1 of the
// paper).
type Config = config.Config

// DefaultConfig returns the paper's Table 1 parameters for n processors.
func DefaultConfig(n int) Config { return config.Default(n) }

// Machine is one simulated multiprocessor.
type Machine = machine.Machine

// Proc is the per-processor handle a workload runs against.
type Proc = machine.Proc

// F64 is a handle to a shared array of float64.
type F64 = machine.F64

// NewMachine builds a machine running the named protocol: "sc", "erc",
// "lrc", "lrc-ext", "tardis", or "tardis2".
func NewMachine(cfg Config, proto string) (*Machine, error) {
	return machine.New(cfg, proto)
}

// Protocols lists the available protocol names in evaluation order.
func Protocols() []string { return protocol.Names() }
