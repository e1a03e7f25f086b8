// Package config holds the simulated machine's parameter table.
//
// The defaults reproduce Table 1 of Kontothanassis, Scott, and Bianchini,
// "Lazy Release Consistency for Hardware-Coherent Multiprocessors"
// (Supercomputing '95). All costs are in processor cycles; all sizes in
// bytes. The Future preset reproduces the hypothetical machine of §4.3
// (higher latency, higher bandwidth, longer cache lines).
package config

import (
	"errors"
	"fmt"
)

// Config describes one simulated machine. The zero value is not usable;
// start from Default or Future and override fields as needed.
type Config struct {
	// Procs is the number of processor nodes. It must be a positive
	// perfect square or twice a perfect square so the nodes can be laid
	// out on a near-square 2-D mesh (1, 2, 4, 8, 16, 32, 64, ...).
	Procs int

	// LineSize is the coherence block (cache line) size in bytes.
	LineSize int
	// CacheSize is the per-processor data cache capacity in bytes.
	// Caches are direct-mapped, as in the paper.
	CacheSize int
	// PageSize is the unit of home-node interleaving for shared data.
	PageSize int

	// MemSetup is the memory module startup cost in cycles.
	MemSetup uint64
	// MemBW is memory bandwidth in bytes per cycle.
	MemBW int
	// BusBW is the node-local bus bandwidth in bytes per cycle.
	BusBW int
	// NetBW is the (bidirectional) network link bandwidth in bytes/cycle.
	NetBW int
	// SwitchLat is the per-hop switch latency in cycles.
	SwitchLat uint64
	// WireLat is the per-hop wire latency in cycles.
	WireLat uint64

	// NoticeCost is the protocol-processor cost of handling one write
	// notice (cycles).
	NoticeCost uint64
	// DirCostLRC is the directory access cost of the lazy protocols.
	DirCostLRC uint64
	// DirCostERC is the directory access cost of the eager and
	// sequentially consistent protocols.
	DirCostERC uint64

	// WBEntries is the CPU-side write buffer depth used by the relaxed
	// protocols (reads bypass writes; writes to the same line coalesce).
	WBEntries int
	// CBEntries is the coalescing write-through buffer depth used by the
	// lazy protocols, placed between the cache and the memory system.
	CBEntries int

	// Quantum bounds processor local-time run-ahead (cycles) between
	// synchronizations with the global event loop. Smaller values raise
	// fidelity of contention interleaving at simulation-speed cost.
	Quantum uint64

	// LeaseLen is the logical-timestamp read-lease length granted by the
	// timestamp protocols (tardis, tardis2). A read of a line at program
	// timestamp pts extends the line's read lease to at least
	// pts+LeaseLen; the copy self-expires — with no invalidation message
	// — once the reader's own timestamp passes the lease end. Longer
	// leases mean fewer renewals but staler tolerated copies (never
	// affecting correctness, only renewal traffic). Ignored by the
	// invalidation protocols.
	LeaseLen uint64

	// TSDeltaBits bounds the per-line timestamp storage of the timestamp
	// protocols: each node stores lease timestamps as deltas from a
	// per-node base, and rebases (Tardis's timestamp compression) when a
	// delta would no longer fit in TSDeltaBits bits. Rebasing clamps
	// stale lease write-timestamps upward, which can only expire leases
	// early — safe by construction. Ignored by the invalidation
	// protocols.
	TSDeltaBits int

	// FirstTouch places each shared page at the first processor that
	// accesses it in simulated time, instead of round-robin interleaving
	// — the locality optimization the paper's §6 expects to shrink (but
	// not erase) the lazy protocol's advantage as coherence traffic
	// falls.
	FirstTouch bool

	// SoftwareCoherence models a software DSM-style system: coherence
	// work that a protocol processor would perform in the background —
	// sending a write notice and waiting out its acknowledgement
	// collection — stalls the main processor instead. The paper's §4.3
	// explanation for the lazy/lazier reversal ("write notices cannot be
	// processed in parallel with computation [in software], and the same
	// penalty has to be paid regardless of when they are processed")
	// predicts that under this knob the lazier protocol stops losing.
	SoftwareCoherence bool

	// NoAcquireOverlap disables the lazy protocols' overlap of
	// acquire-time invalidation with the synchronization latency itself:
	// all invalidation work happens after the grant arrives. This is an
	// ablation knob for the paper's claim that "much of the latency of
	// this operation can be hidden behind the latency of the lock
	// acquisition".
	NoAcquireOverlap bool

	// StaleDensity is the §4.2 quality-of-solution emulation of lazily
	// propagated data: mp3d's collision phase reads each cell's density as
	// of the previous step instead of the current one. The other
	// applications ignore it.
	StaleDensity bool

	// CheckInvariants enables continuous directory/protocol invariant
	// checking (panics on violation). Intended for tests.
	CheckInvariants bool

	// Seed is the base random seed of the run. The simulation itself is
	// deterministic and does not consume randomness; the seed feeds
	// seed-dependent subsystems (today: fault injection) and is recorded
	// in reports so any run can be replayed exactly.
	Seed uint64

	// FaultPlan is the textual fault-injection plan applied to the
	// interconnect (see faults.ParsePlan for the format, e.g.
	// "delay=0.05:1:64,dup=0.03:32"). Empty disables injection, leaving
	// the fabric reliable and the schedule bit-identical to a build
	// without the faults package.
	FaultPlan string

	// Mutation injects a named, deliberate protocol bug — the model
	// checker's self-test that its conformance oracle actually catches
	// broken coherence. Empty (the only value for real runs) leaves every
	// protocol intact. Known mutations:
	//
	//	skip-acquire-inval: the lazy protocols skip processing queued
	//	write-notice invalidations at acquire, so stale cached copies
	//	survive into the critical section.
	//
	//	skip-lease-renewal: the timestamp protocols treat every cached
	//	lease as forever valid — reads never check expiry or renew, and
	//	tardis2 skips its acquire-time expiry sweep — so a consumer can
	//	read a stale copy after an acquire that should have outrun its
	//	lease.
	Mutation string
}

// Mutations lists the recognized Mutation values (excluding "").
func Mutations() []string { return []string{"skip-acquire-inval", "skip-lease-renewal"} }

// Default returns the Table 1 configuration of the paper for n processors.
func Default(n int) Config {
	return Config{
		Procs:       n,
		LineSize:    128,
		CacheSize:   128 << 10,
		PageSize:    4096,
		MemSetup:    20,
		MemBW:       2,
		BusBW:       2,
		NetBW:       2,
		SwitchLat:   2,
		WireLat:     1,
		NoticeCost:  4,
		DirCostLRC:  25,
		DirCostERC:  15,
		WBEntries:   4,
		CBEntries:   16,
		Quantum:     200,
		LeaseLen:    8,
		TSDeltaBits: 20,
	}
}

// Future returns the §4.3 "future hypothetical machine": 40-cycle memory
// startup, 4 bytes/cycle memory and network bandwidth, 256-byte lines.
func Future(n int) Config {
	c := Default(n)
	c.MemSetup = 40
	c.MemBW = 4
	c.NetBW = 4
	c.BusBW = 4
	c.LineSize = 256
	return c
}

// Presets lists the named machine presets Preset accepts.
func Presets() []string { return []string{"default", "future"} }

// Preset returns a named machine preset — the serialization-friendly
// form used by cell keys and submitted sweep specs, where a client names
// the machine ("default", "future") instead of shipping a parameter
// table. A machine has one name: the empty string is not one.
func Preset(name string, procs int) (Config, error) {
	switch name {
	case "default":
		return Default(procs), nil
	case "future":
		return Future(procs), nil
	}
	return Config{}, fmt.Errorf("config: unknown preset %q (known: %v)", name, Presets())
}

// WordSize is the machine word (and per-word dirty-bit granularity) in
// bytes. Shared data is allocated at this alignment.
const WordSize = 8

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Procs < 1:
		return errors.New("config: Procs must be >= 1")
	case c.LineSize < WordSize || c.LineSize%WordSize != 0:
		return fmt.Errorf("config: LineSize %d must be a positive multiple of %d", c.LineSize, WordSize)
	case c.CacheSize < c.LineSize || c.CacheSize%c.LineSize != 0:
		return fmt.Errorf("config: CacheSize %d must be a positive multiple of LineSize %d", c.CacheSize, c.LineSize)
	case c.PageSize < c.LineSize || c.PageSize%c.LineSize != 0:
		return fmt.Errorf("config: PageSize %d must be a positive multiple of LineSize %d", c.PageSize, c.LineSize)
	case c.MemBW < 1 || c.BusBW < 1 || c.NetBW < 1:
		return errors.New("config: bandwidths must be >= 1 byte/cycle")
	case c.WBEntries < 1:
		return errors.New("config: WBEntries must be >= 1")
	case c.CBEntries < 1:
		return errors.New("config: CBEntries must be >= 1")
	case c.Quantum < 1:
		return errors.New("config: Quantum must be >= 1")
	case c.LeaseLen < 1:
		return errors.New("config: LeaseLen must be >= 1")
	case c.TSDeltaBits < 8 || c.TSDeltaBits > 63:
		return fmt.Errorf("config: TSDeltaBits %d must be in [8, 63]", c.TSDeltaBits)
	}
	if w, h := MeshDims(c.Procs); w*h != c.Procs {
		return fmt.Errorf("config: Procs %d cannot be arranged on a 2-D mesh (use 1,2,4,8,16,32,64,...)", c.Procs)
	}
	if c.Mutation != "" {
		ok := false
		for _, m := range Mutations() {
			if c.Mutation == m {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("config: unknown Mutation %q (known: %v)", c.Mutation, Mutations())
		}
	}
	return nil
}

// WordsPerLine returns the number of machine words per coherence block.
func (c Config) WordsPerLine() int { return c.LineSize / WordSize }

// Lines returns the number of lines in each processor cache.
func (c Config) Lines() int { return c.CacheSize / c.LineSize }

// MeshDims returns the width and height of the most-square 2-D mesh with
// n nodes, favoring width >= height. For n that is not expressible as
// w*h with |w-h| minimal over powers of two, it falls back to 1×n.
func MeshDims(n int) (w, h int) {
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return n / best, best
}
