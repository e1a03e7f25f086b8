// Package stats collects per-processor cycle breakdowns and classifies
// cache misses into the taxonomy of Table 2 of the paper: cold,
// true-sharing, false-sharing, eviction, and write misses, following the
// touch-based variant of the classification algorithm of Bianchini and
// Kontothanassis ("Algorithms for Categorizing Multiprocessor
// Communication under Invalidate and Update-Based Coherence Protocols").
package stats

import "fmt"

// MissKind classifies one miss.
type MissKind uint8

const (
	// Cold: the processor has never cached the block before.
	Cold MissKind = iota
	// TrueShare: the copy was lost to coherence and the word accessed on
	// the re-miss was written by another processor in the interim.
	TrueShare
	// FalseShare: the copy was lost to coherence but the accessed word
	// was not modified by others — only other words of the block were.
	FalseShare
	// Eviction: the copy was lost to a capacity/conflict replacement.
	Eviction
	// WriteMiss: a write found the block present but not writable. No
	// data transfer results; the paper tallies these separately.
	WriteMiss
	// NumMissKinds is the number of categories.
	NumMissKinds
)

// String returns the category name as printed in Table 2.
func (k MissKind) String() string {
	switch k {
	case Cold:
		return "Cold"
	case TrueShare:
		return "True"
	case FalseShare:
		return "False"
	case Eviction:
		return "Eviction"
	case WriteMiss:
		return "Write"
	}
	return fmt.Sprintf("MissKind(%d)", uint8(k))
}

// LossReason records why a processor's copy of a block went away.
type LossReason uint8

const (
	// LossNone: the processor holds (or never held) the block.
	LossNone LossReason = iota
	// LossEviction: replaced by a conflicting block.
	LossEviction
	// LossCoherence: invalidated by the coherence protocol.
	LossCoherence
)

// Proc accumulates one processor's execution statistics.
type Proc struct {
	// Cycle breakdown (the four categories of Figures 5/7/9).
	CPU        uint64 // compute cycles + cache-hit access cycles
	ReadStall  uint64 // cycles stalled on read misses
	WriteStall uint64 // cycles stalled on the write path (full write buffer, SC write completion)
	SyncStall  uint64 // cycles in acquire/release/barrier waits

	// Reference counts.
	Reads, Writes uint64
	// Misses by category; Misses[WriteMiss] entries transfer no data.
	Misses [NumMissKinds]uint64
	// WriteBacks counts dirty-data transfers to memory (write-back
	// protocols); WriteThroughs counts coalescing-buffer drains (lazy
	// protocols).
	WriteBacks, WriteThroughs uint64
	// NoticesIn counts write notices processed by this node's protocol
	// processor; InvalsAtAcquire counts acquire-time invalidations.
	NoticesIn, InvalsAtAcquire uint64

	// FinishTime is the cycle at which this processor completed its
	// workload.
	FinishTime uint64
}

// Refs returns total references issued.
func (p *Proc) Refs() uint64 { return p.Reads + p.Writes }

// TotalMisses returns all misses including write-permission misses.
func (p *Proc) TotalMisses() uint64 {
	var n uint64
	for _, m := range p.Misses {
		n += m
	}
	return n
}

// BusyAndStall returns the sum of the four breakdown categories.
func (p *Proc) BusyAndStall() uint64 {
	return p.CPU + p.ReadStall + p.WriteStall + p.SyncStall
}

// Utilization returns the CPU-busy share of this processor's accounted
// cycles — 1.0 means it never stalled, 0 means it did no work (or ran no
// workload at all).
func (p *Proc) Utilization() float64 {
	total := p.BusyAndStall()
	if total == 0 {
		return 0
	}
	return float64(p.CPU) / float64(total)
}

// Machine aggregates per-processor statistics for one run.
type Machine struct {
	Procs []Proc
}

// NewMachine returns statistics storage for n processors.
func NewMachine(n int) *Machine {
	m := &Machine{Procs: make([]Proc, n)}
	m.Reset()
	return m
}

// Reset zeroes every processor's statistics.
func (m *Machine) Reset() { clear(m.Procs) }

// Aggregate sums the cycle breakdown over all processors.
func (m *Machine) Aggregate() (cpu, read, write, sync uint64) {
	for i := range m.Procs {
		p := &m.Procs[i]
		cpu += p.CPU
		read += p.ReadStall
		write += p.WriteStall
		sync += p.SyncStall
	}
	return
}

// MissRate returns total misses (including write-permission misses, as in
// Table 3's treatment) divided by total references.
func (m *Machine) MissRate() float64 {
	var misses, refs uint64
	for i := range m.Procs {
		misses += m.Procs[i].TotalMisses()
		refs += m.Procs[i].Refs()
	}
	if refs == 0 {
		return 0
	}
	return float64(misses) / float64(refs)
}

// MissShares returns each category's share of total misses (Table 2).
func (m *Machine) MissShares() [NumMissKinds]float64 {
	var counts [NumMissKinds]uint64
	var total uint64
	for i := range m.Procs {
		for k, v := range m.Procs[i].Misses {
			counts[k] += v
			total += v
		}
	}
	var out [NumMissKinds]float64
	if total == 0 {
		return out
	}
	for k, v := range counts {
		out[k] = float64(v) / float64(total)
	}
	return out
}

// ExecutionTime returns the slowest processor's finish time — the
// program's simulated running time.
func (m *Machine) ExecutionTime() uint64 {
	var max uint64
	for i := range m.Procs {
		if m.Procs[i].FinishTime > max {
			max = m.Procs[i].FinishTime
		}
	}
	return max
}

// Imbalance returns the ratio of the slowest processor's finish time to
// the mean finish time — 1.0 is a perfectly balanced run; 2.0 means the
// critical path ran twice as long as the average processor. Returns 0
// before any processor has finished.
func (m *Machine) Imbalance() float64 {
	var sum, max uint64
	for i := range m.Procs {
		f := m.Procs[i].FinishTime
		sum += f
		if f > max {
			max = f
		}
	}
	if sum == 0 || len(m.Procs) == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(m.Procs))
	return float64(max) / mean
}
