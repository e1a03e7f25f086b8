// Package machine assembles the simulated multiprocessor: processor
// nodes (CPU context, cache, write buffers, protocol processor, local
// memory and bus), the mesh interconnect, a page-interleaved shared
// address space with a real backing store, and the run loop that drives
// per-processor workloads to completion.
//
// Timing and data are decoupled in the usual execution-driven-simulator
// way: every shared access is played through the coherence protocol for
// timing, while the datum itself lives in a single backing store, so
// workloads perform real computation (and their results can be verified
// against serial references).
package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"lazyrc/internal/causal"
	"lazyrc/internal/config"
	"lazyrc/internal/directory"
	"lazyrc/internal/faults"
	"lazyrc/internal/mesh"
	"lazyrc/internal/perf"
	"lazyrc/internal/protocol"
	"lazyrc/internal/sim"
	"lazyrc/internal/stats"
	"lazyrc/internal/telemetry"
)

// Addr is a simulated shared-memory address (byte granularity).
type Addr = uint64

// Machine is one simulated multiprocessor.
type Machine struct {
	Eng   *sim.Engine
	Cfg   config.Config
	Net   *mesh.Network
	Env   *protocol.Env
	Nodes []*protocol.Node
	Stats *stats.Machine
	Class *stats.Classifier
	// Tel is the telemetry registry when metrics are enabled (see
	// EnableMetrics in metrics.go), nil otherwise.
	Tel *telemetry.Registry
	// Causal is the span tracer when causal tracing is enabled (see
	// EnableSpans in spans.go), nil otherwise.
	Causal *causal.Tracer
	// Perf is the wall-clock phase profiler when perf accounting is
	// enabled (see EnablePerf in perf.go), nil otherwise.
	Perf *perf.Profiler

	backing []byte
	brk     Addr

	nextSyncID   uint64
	nextSyncHome int
	protoName    string
	plan         *faults.Plan // Cfg.FaultPlan parsed, nil without one
	procs        []Proc       // one per node, each body bound once
	worker       func(*Proc)  // what Run runs on every processor
}

// New builds a machine running the named protocol (any of
// protocol.Names: "sc", "erc", "lrc", "lrc-ext", "tardis")
// with the given configuration.
func New(cfg config.Config, protoName string) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := protocol.New(protoName)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	net := mesh.New(eng, cfg)
	st := stats.NewMachine(cfg.Procs)
	cl := stats.NewClassifier(cfg.Procs, cfg.WordsPerLine())
	env := &protocol.Env{Eng: eng, Net: net, Cfg: cfg, Stats: st, Class: cl}
	if cfg.TrackValues {
		env.Vals = protocol.NewValues(cfg)
	}
	m := &Machine{
		Eng: eng, Cfg: cfg, Net: net, Env: env,
		Stats: st, Class: cl, protoName: protoName,
	}
	m.Nodes = make([]*protocol.Node, cfg.Procs)
	m.procs = make([]Proc, cfg.Procs)
	for i := range m.Nodes {
		m.Nodes[i] = protocol.NewNode(env, i, p)
		pr := &m.procs[i]
		*pr = Proc{m: m, node: m.Nodes[i], name: fmt.Sprintf("cpu%d", i)}
		pr.body = pr.run
	}
	env.Nodes = m.Nodes
	if err := net.Finalize(); err != nil {
		return nil, err
	}
	if cfg.FaultPlan != "" {
		plan, err := faults.ParsePlan(cfg.FaultPlan)
		if err != nil {
			return nil, err
		}
		if err := plan.Validate(); err != nil {
			return nil, err
		}
		m.plan = &plan
	}
	m.reset()
	return m, nil
}

// Reset rewinds the machine to what New returns, keeping its storage and
// wiring: the model checker runs one machine per worker, schedule after
// schedule (DESIGN.md §9). What a caller attached — a chooser, an
// explorer — stays attached, and a value store (Config.TrackValues) is
// rewound; observers (EnableMetrics, EnableSpans, EnablePerf) keep their
// records, so reset only a machine that has none. Not during Run.
func (m *Machine) Reset() {
	m.Eng.Reset()
	m.Net.Reset()
	m.Env.Reset()
	m.Stats.Reset()
	m.Class.Reset()
	m.reset()
}

// Close ends the processor coroutines a rewound machine keeps between
// runs (sim.Engine.Close); a machine that is never Reset keeps none.
func (m *Machine) Close() { m.Eng.Close() }

// reset sets the machine's own state as New leaves it: no shared memory
// allocated (what was is zeroed), sync objects numbered from the start,
// and the fault plan armed with a fresh injector.
func (m *Machine) reset() {
	clear(m.backing[:m.brk])
	m.brk = 0
	m.nextSyncID, m.nextSyncHome = 0, 0
	if m.plan != nil {
		// New validated the plan and Net.Reset detached the last injector.
		if err := m.Net.SetInjector(faults.NewInjector(m.Cfg.Seed, *m.plan)); err != nil {
			panic(err)
		}
	}
}

// ---- Shared address space -------------------------------------------------

// Alloc carves out n bytes of shared memory aligned to the machine word,
// optionally padding to the next cache-line boundary first (pad avoids
// artificial false sharing between independent allocations).
func (m *Machine) Alloc(n int, padToLine bool) Addr {
	if padToLine {
		ls := Addr(m.Cfg.LineSize)
		m.brk = (m.brk + ls - 1) / ls * ls
	} else {
		const w = Addr(config.WordSize)
		m.brk = (m.brk + w - 1) / w * w
	}
	base := m.brk
	m.brk += Addr(n)
	if int(m.brk) > len(m.backing) {
		grown := make([]byte, int(m.brk)*2)
		copy(grown, m.backing)
		m.backing = grown
	}
	return base
}

// Footprint returns the bytes of shared memory allocated so far.
func (m *Machine) Footprint() uint64 { return m.brk }

// SnapshotData copies the current shared-memory contents — used by
// workloads that run an untimed serial reference over the same arrays
// before the simulated run.
func (m *Machine) SnapshotData() []byte {
	return append([]byte(nil), m.backing[:m.brk]...)
}

// RestoreData restores shared memory from a SnapshotData copy.
func (m *Machine) RestoreData(snap []byte) {
	copy(m.backing, snap)
	for i := len(snap); i < len(m.backing); i++ {
		m.backing[i] = 0
	}
}

// PeekF64 reads a float64 directly from shared memory (no simulation).
func (m *Machine) PeekF64(a Addr) float64 { return math.Float64frombits(m.loadU64(a)) }

// PokeF64 writes a float64 directly to shared memory (no simulation).
func (m *Machine) PokeF64(a Addr, v float64) { m.storeU64(a, math.Float64bits(v)) }

// PeekI64 reads an int64 directly from shared memory (no simulation).
func (m *Machine) PeekI64(a Addr) int64 { return int64(m.loadU64(a)) }

// PokeI64 writes an int64 directly to shared memory (no simulation).
func (m *Machine) PokeI64(a Addr, v int64) { m.storeU64(a, uint64(v)) }

// Direct returns an untimed accessor over this machine's shared memory,
// satisfying the same access interface as Proc — workloads use it to run
// serial reference computations with the exact same code.
func (m *Machine) Direct() *Direct { return &Direct{m: m} }

// Direct is the untimed shared-memory accessor returned by
// Machine.Direct.
type Direct struct{ m *Machine }

// ReadF64 reads a float64 without simulation.
func (d *Direct) ReadF64(a Addr) float64 { return d.m.PeekF64(a) }

// WriteF64 writes a float64 without simulation.
func (d *Direct) WriteF64(a Addr, v float64) { d.m.PokeF64(a, v) }

// ReadI64 reads an int64 without simulation.
func (d *Direct) ReadI64(a Addr) int64 { return d.m.PeekI64(a) }

// WriteI64 writes an int64 without simulation.
func (d *Direct) WriteI64(a Addr, v int64) { d.m.PokeI64(a, v) }

// Compute is a no-op for the untimed accessor.
func (d *Direct) Compute(uint64) {}

func (m *Machine) loadU64(a Addr) uint64 {
	return binary.LittleEndian.Uint64(m.backing[a : a+8])
}

func (m *Machine) storeU64(a Addr, v uint64) {
	binary.LittleEndian.PutUint64(m.backing[a:a+8], v)
}

// F64 is a handle to a shared array of float64.
type F64 struct {
	m    *Machine
	base Addr
	n    int
}

// AllocF64 allocates a line-aligned shared float64 array.
func (m *Machine) AllocF64(n int) F64 {
	return F64{m: m, base: m.Alloc(n*8, true), n: n}
}

// At returns the address of element i.
func (a F64) At(i int) Addr {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("machine: F64 index %d out of range [0,%d)", i, a.n))
	}
	return a.base + Addr(i)*8
}

// Len returns the element count.
func (a F64) Len() int { return a.n }

// Peek reads element i directly (no simulation) — for initialization and
// verification only.
func (a F64) Peek(i int) float64 { return math.Float64frombits(a.m.loadU64(a.At(i))) }

// Poke writes element i directly (no simulation) — for initialization
// before Run only.
func (a F64) Poke(i int, v float64) { a.m.storeU64(a.At(i), math.Float64bits(v)) }

// I64 is a handle to a shared array of int64.
type I64 struct {
	m    *Machine
	base Addr
	n    int
}

// AllocI64 allocates a line-aligned shared int64 array.
func (m *Machine) AllocI64(n int) I64 {
	return I64{m: m, base: m.Alloc(n*8, true), n: n}
}

// At returns the address of element i.
func (a I64) At(i int) Addr {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("machine: I64 index %d out of range [0,%d)", i, a.n))
	}
	return a.base + Addr(i)*8
}

// Len returns the element count.
func (a I64) Len() int { return a.n }

// Peek reads element i directly (no simulation).
func (a I64) Peek(i int) int64 { return int64(a.m.loadU64(a.At(i))) }

// Poke writes element i directly (no simulation).
func (a I64) Poke(i int, v int64) { a.m.storeU64(a.At(i), uint64(v)) }

// ---- Synchronization objects ----------------------------------------------

// Lock is a queue lock managed at a home node's protocol processor.
type Lock struct {
	home int
	id   uint64
}

// Barrier is a centralized barrier for a fixed party count.
type Barrier struct {
	home    int
	id      uint64
	parties int
}

// Flag is a one-shot event (set once, wait many) — the producer/consumer
// synchronization used by pivot-style algorithms.
type Flag struct {
	home int
	id   uint64
}

func (m *Machine) nextSync() (home int, id uint64) {
	home = m.nextSyncHome
	m.nextSyncHome = (m.nextSyncHome + 1) % m.Cfg.Procs
	id = m.nextSyncID
	m.nextSyncID++
	return
}

// NewLock allocates a lock homed round-robin across the machine.
func (m *Machine) NewLock() *Lock {
	h, id := m.nextSync()
	return &Lock{home: h, id: id}
}

// NewBarrier allocates a barrier for the given party count.
func (m *Machine) NewBarrier(parties int) *Barrier {
	h, id := m.nextSync()
	return &Barrier{home: h, id: id, parties: parties}
}

// NewFlag allocates a one-shot flag.
func (m *Machine) NewFlag() Flag {
	h, id := m.nextSync()
	return Flag{home: h, id: id}
}

// NewFlags allocates n one-shot flags.
func (m *Machine) NewFlags(n int) []Flag {
	fs := make([]Flag, n)
	for i := range fs {
		fs[i] = m.NewFlag()
	}
	return fs
}

// ---- Run loop ---------------------------------------------------------------

// Run executes worker on every processor until completion. Each worker
// ends with an implicit release (flushing its write path) before its
// finish time is recorded; Run returns after the machine fully quiesces.
func (m *Machine) Run(worker func(p *Proc)) {
	m.worker = worker
	for i := range m.procs {
		p := &m.procs[i]
		p.node.CPU = m.Eng.Spawn(p.name, p.body)
	}
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("%v\n%s", r, m.DumpState()))
		}
	}()
	if m.Env.Vals != nil {
		m.Env.Vals.Seed(m.backing[:m.brk])
	}
	m.Perf.Begin()
	m.Eng.Run()
	// Closing telemetry sample at the final simulated cycle (a no-op when
	// the run ended exactly on a tick, or when metrics are disabled).
	m.Tel.Sample(m.Eng.Now())
	m.Perf.End(m.Eng.Now(), m.Eng.Events())
}

// ContentionReport summarizes hardware-resource contention after a run:
// for each resource class, total occupied cycles, total queueing delay
// imposed on requesters, and the single most-contended node. Useful for
// diagnosing hot homes (e.g. a task-queue counter's memory module).
func (m *Machine) ContentionReport() string {
	type row struct {
		name         string
		busy, waited uint64
		worstNode    int
		worstWaited  uint64
	}
	rows := []row{{name: "protocol processor"}, {name: "memory module"}, {name: "local bus"}, {name: "network ports"}}
	add := func(r *row, node int, busy, waited uint64) {
		r.busy += busy
		r.waited += waited
		if waited > r.worstWaited {
			r.worstWaited, r.worstNode = waited, node
		}
	}
	for _, n := range m.Nodes {
		for i, r := range []*sim.Resource{n.PP, n.Mem, n.Bus} {
			add(&rows[i], n.ID, r.Busy(), r.Waited())
		}
		add(&rows[3], n.ID, m.Net.PortBusy(n.ID), m.Net.PortWaited(n.ID))
	}
	s := fmt.Sprintf("%-20s %14s %14s   %s\n", "resource", "busy cycles", "queue delay", "hottest node")
	for _, r := range rows {
		s += fmt.Sprintf("%-20s %14d %14d   node %d (%d cycles)\n",
			r.name, r.busy, r.waited, r.worstNode, r.worstWaited)
	}
	return s
}

// EnableWatchdog installs a liveness watchdog on the machine's engine:
// every interval cycles it checks per-context forward progress, and on a
// stall calls onStall with a report enriched with machine-level notes —
// per-node in-flight transactions, NIC queue depths, the oldest in-flight
// transport retransmissions, and the causal state of the stalled contexts
// (which open stall is blocked on which lost message). The handler may
// call m.Eng.Stop() to abort the run.
func (m *Machine) EnableWatchdog(interval uint64, onStall func(sim.StallReport)) {
	m.Eng.Watchdog(interval, func(r sim.StallReport) {
		r.Retransmits = m.Net.TransportTop(8)
		r.StallCauses = m.stallCauses()
		r.Notes = append(r.Notes, m.stallNotes()...)
		onStall(r)
	})
}

// stallCauses renders the open causal stall spans, cross-referencing each
// against the transport's pending retransmissions: an open stall whose
// transaction has a message stuck in retransmission is, with high
// likelihood, blocked on that loss.
func (m *Machine) stallCauses() []string {
	stalls := m.Causal.OpenStalls()
	if len(stalls) == 0 {
		return nil
	}
	retxByCT := make(map[uint64]mesh.RetxEntry)
	for _, e := range m.Net.PendingRetransmits() {
		if _, seen := retxByCT[e.CT]; !seen {
			retxByCT[e.CT] = e
		}
	}
	now := m.Eng.Now()
	out := make([]string, 0, len(stalls))
	for _, st := range stalls {
		line := fmt.Sprintf("stall cause: node %d parked %d cycles in %s stall (%s, txn %d)",
			st.Node, now-st.Begin, st.Class, st.Why, st.TID)
		if e, ok := retxByCT[st.TID]; ok && st.TID != 0 {
			line += fmt.Sprintf(" — blocked on lost %s %d->%d seq %d (attempt %d)",
				faults.KindName(e.Kind), e.Src, e.Dst, e.Seq, e.Attempt)
		}
		out = append(out, line)
	}
	return out
}

// stallNotes collects machine-level liveness diagnostics for a stall
// report.
func (m *Machine) stallNotes() []string {
	var notes []string
	now := m.Eng.Now()
	for _, n := range m.Nodes {
		if d := n.Debug(); d != "" {
			notes = append(notes, fmt.Sprintf("node %d:%s", n.ID, d))
		}
		if in, out := m.Net.PortBacklog(n.ID, now); in > 0 || out > 0 {
			notes = append(notes, fmt.Sprintf("node %d: NIC backlog in=%d out=%d cycles", n.ID, in, out))
		}
	}
	if s := m.Net.FaultSummary(); s != "" {
		notes = append(notes, s)
	}
	if s := m.Net.TransportSummary(); s != "" {
		notes = append(notes, s)
	}
	for _, n := range m.Nodes {
		if w := n.SeqWaiting(); w > 0 {
			notes = append(notes, fmt.Sprintf("node %d: %d arrival(s) parked in sequencer awaiting a gap fill", n.ID, w))
		}
	}
	return notes
}

// StateHash returns a fingerprint of the machine's canonical protocol
// state, simulated time excluded (protocol.Env.StateHash): the model
// checker's key for a visited state.
func (m *Machine) StateHash() uint64 { return m.Env.StateHash() }

// DumpState renders per-node protocol state for deadlock diagnostics.
func (m *Machine) DumpState() string {
	s := ""
	for _, n := range m.Nodes {
		if d := n.Debug(); d != "" {
			s += fmt.Sprintf("node %d: %s\n", n.ID, d)
		}
	}
	return s
}

// CheckQuiescent verifies end-of-run invariants: every directory entry
// and lease validates, no coherence transaction, buffered or
// unacknowledged write or undelivered message lingers, and no home has a
// request still in service or an episode (grant, transfer, held drop,
// recall) still open. It returns the first violation.
func (m *Machine) CheckQuiescent() error {
	for _, n := range m.Nodes {
		for _, r := range n.Dir.Entries() {
			if err := r.Validate(); err != nil {
				return fmt.Errorf("node %d block %d: %w", n.ID, r.Block, err)
			}
		}
		if c := n.OutstandingCount(); c != 0 {
			return fmt.Errorf("node %d: %d coherence transaction(s) still outstanding at end of run", n.ID, c)
		}
		if c := n.WTPendingCount(); c != 0 {
			return fmt.Errorf("node %d: %d write-through/write-back ack(s) still pending at end of run", n.ID, c)
		}
		if !n.WB.Empty() {
			return fmt.Errorf("node %d: write buffer not empty at end of run", n.ID)
		}
		if !n.CB.Empty() {
			return fmt.Errorf("node %d: coalescing buffer not empty at end of run", n.ID)
		}
		if w := n.SeqWaiting(); w > 0 {
			return fmt.Errorf("node %d: %d arrival(s) still parked in the delivery sequencer (a lost message was never recovered)", n.ID, w)
		}
		var err error
		n.Dir.VisitLeases(func(block uint64, l *directory.Lease) {
			if err == nil {
				if verr := n.Dir.ValidateLease(l); verr != nil {
					err = fmt.Errorf("node %d block %d: %w", n.ID, block, verr)
				}
			}
		})
		if err != nil {
			return err
		}
		if herr := n.HomeResidual(); herr != nil {
			return fmt.Errorf("node %d: %w", n.ID, herr)
		}
	}
	if _, _, _, _, _, pending := m.Net.TransportStats(); pending > 0 {
		return fmt.Errorf("transport: %d message(s) still awaiting delivery at end of run", pending)
	}
	return nil
}

// MemDigest returns the SHA-256 of the final shared-memory image — the
// fingerprint the end-state equivalence oracle compares: a faulted run is
// correct iff its digest (and per-proc completion) matches the fault-free
// run of the same seed. Timing may differ; this may not.
func (m *Machine) MemDigest() string {
	sum := sha256.Sum256(m.backing[:m.brk])
	return hex.EncodeToString(sum[:])
}

// Completed reports whether every processor recorded a finish time — the
// per-proc completion half of the end-state oracle.
func (m *Machine) Completed() bool {
	for i := range m.Stats.Procs {
		if m.Stats.Procs[i].FinishTime == 0 {
			return false
		}
	}
	return true
}

// DuplicatesIgnored sums the deliveries suppressed by every node's
// sequencer (duplicates and late retransmitted originals).
func (m *Machine) DuplicatesIgnored() uint64 {
	var n uint64
	for _, node := range m.Nodes {
		n += node.DuplicatesIgnored()
	}
	return n
}

// FaultReport renders the full fault-injection picture of a run —
// injector decisions, transport recovery, and receiver-side suppression —
// or "" when no injector is attached.
func (m *Machine) FaultReport() string {
	if !m.Net.TransportActive() {
		return ""
	}
	var parked uint64 // out-of-order arrivals held for gap fill
	for _, n := range m.Nodes {
		parked += n.SeqParked()
	}
	return fmt.Sprintf("%s\n%s\ndelivery: %d duplicate(s) suppressed, %d arrival(s) resequenced",
		m.Net.FaultSummary(), m.Net.TransportSummary(), m.DuplicatesIgnored(), parked)
}

// TrafficReport renders the per-message-kind traffic of the run — the
// lazy protocols' message-combining and notice batching show up directly
// here, which is the software-DSM motivation the paper starts from. With
// metrics enabled, each kind carries the p50/p90/p99 of its send→deliver
// latency (its net.lat histogram), and rows for the write and coalescing
// buffers give their entries' residency the same way.
func (m *Machine) TrafficReport() string {
	hists := map[string]*telemetry.Histogram{}
	m.Tel.VisitHistograms(func(h *telemetry.Histogram) { hists[h.Name()] = h })
	s := fmt.Sprintf("%-14s %12s", "message kind", "count")
	if m.Tel != nil {
		s += fmt.Sprintf(" %9s %9s %9s", "p50", "p90", "p99")
	}
	row := func(name string, count uint64, h *telemetry.Histogram) {
		s += fmt.Sprintf("\n%-14s %12d", name, count)
		if m.Tel != nil {
			s += fmt.Sprintf(" %9.1f %9.1f %9.1f", h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99))
		}
	}
	for k := 0; k < protocol.NumMsgKinds(); k++ {
		if c := m.Net.KindCount(k); c > 0 {
			name := protocol.MsgKind(k).String()
			row(name, c, hists["net.lat."+name])
		}
	}
	if m.Tel != nil {
		for _, buf := range [...]string{"wb", "cb"} {
			h := hists[buf+".residency"]
			row(buf+" residency", h.Count(), h)
		}
	}
	return s + "\n"
}
