// Package mesh models the interconnect of the simulated multiprocessor: a
// 2-D mesh with dimension-ordered (XY) routing, distance-dependent
// latency, and network contention modeled at the sending and receiving
// nodes of each message — but not at intermediate switches — exactly as in
// §3 of the paper.
//
// A message from a node at distance h carrying p payload bytes is
// delivered h*(switch+wire) + p/bandwidth cycles after it leaves the
// sender's network interface. Control messages (p = 0) cost only the hop
// latency, matching the paper's worked example: a 10-hop request costs
// (2+1)*10 = 30 cycles and the 128-byte data reply (2+1)*10 + 128/2 = 94.
package mesh

import (
	"fmt"

	"lazyrc/internal/causal"
	"lazyrc/internal/config"
	"lazyrc/internal/faults"
	"lazyrc/internal/fold"
	"lazyrc/internal/perf"
	"lazyrc/internal/sim"
)

// Network is the mesh interconnect. Deliver handlers are registered per
// node; Send routes a message and schedules the destination handler.
type Network struct {
	eng    *sim.Engine
	w, h   int
	nprocs int
	hopLat uint64 // switch + wire, per hop
	bw     int    // bytes per cycle

	in  []*sim.Resource // per-node receive ports
	out []*sim.Resource // per-node send ports

	handlers []func(Msg)

	// Messages in flight; a delivery event carries the handle of its own.
	flights  sim.Slab[Msg]
	delivery sim.Kind

	sent      uint64
	bytesSent uint64
	byKind    []uint64 // indexed by Msg.Kind, grown on demand

	// Fault injection (nil = reliable fabric, the default). When an
	// injector is attached every message is stamped with a per-channel
	// sequence number, the reliable-delivery transport
	// (tr, see transport.go) retransmits losses end-to-end, and lastEntry
	// serializes per-(src,dst) network entry so injected reordering never
	// violates the pairwise FIFO guarantee the protocols assume.
	inj       *faults.Injector
	tr        *transport
	lastEntry []sim.Time // nprocs*nprocs, indexed src*nprocs+dst

	injReordered, injDelayed, injDuped, injDropped uint64

	// Schedule exploration (nil = no explorer). A model checker attaches a
	// chooser and a menu of candidate pre-entry delays; every cross-node
	// message becomes a choice point picking one delay from the menu, with
	// entry times floored by lastEntry so exploration can never violate the
	// per-(src,dst) FIFO guarantee. Mutually exclusive with fault injection.
	exp     sim.Chooser
	expMenu []uint64

	// In-flight message ledger, maintained only under an explorer: an
	// order-independent digest over messages sent but not yet delivered,
	// folded into machine state hashes for visited-state dedup.
	flight fold.Bag

	// tel, when non-nil, feeds per-kind latency histograms (see
	// telemetry.go). Collection is passive: it never changes timing.
	tel *telemetrySink

	// causal, when non-nil, stamps each message with the causal
	// transaction id current at send time and records one net span per
	// wire flight. Passive: it reads timestamps the timing model already
	// computed.
	causal *causal.Tracer
}

// Msg is one network message. Protocol packages define the meaning of
// Kind and the payload fields; the mesh only uses Src, Dst, and Size.
type Msg struct {
	Src, Dst int
	Kind     int
	Size     int // payload bytes (0 for control messages)

	// Addr is the coherence block or synchronization object the message
	// concerns.
	Addr uint64
	// Arg and Aux carry message-kind-specific scalars (directory state,
	// word mask, object id, ...).
	Arg uint64
	Aux uint64

	// Vals carries the data words of a payload-bearing message (a line's
	// worth for fills and write-backs, masked by Arg for write-throughs).
	// The timing model only charges for Size bytes; Vals exists so a value
	// store can follow which write's data each copy actually holds.
	Vals []uint64

	// Seq is the reliable-transport sequence number on the message's
	// (src,dst) channel, stamped (1-based) only when fault injection is
	// active; retransmissions and injected duplicates carry the
	// original's Seq, and receivers run stamped messages through a
	// Sequencer for exactly-once in-order delivery; (Src, Seq) identifies
	// a message on its channel. It depends on dynamic send order, so it is
	// excluded from msgHash.
	Seq uint64

	// CT is the causal transaction id threaded through the message,
	// stamped at Send from the tracer's current context when causal
	// tracing is enabled (0 otherwise). Like Seq it depends on dynamic
	// send order, so it is excluded from msgHash.
	CT uint64
}

// New builds the mesh for the given configuration.
func New(eng *sim.Engine, cfg config.Config) *Network {
	w, h := config.MeshDims(cfg.Procs)
	n := &Network{
		eng:      eng,
		w:        w,
		h:        h,
		nprocs:   cfg.Procs,
		hopLat:   cfg.SwitchLat + cfg.WireLat,
		bw:       cfg.NetBW,
		in:       make([]*sim.Resource, cfg.Procs),
		out:      make([]*sim.Resource, cfg.Procs),
		handlers: make([]func(Msg), cfg.Procs),
	}
	n.delivery = eng.Register(perf.PhaseMesh, n.deliver)
	ports := make([]sim.Resource, 2*cfg.Procs)
	for i := range n.in {
		n.in[i], n.out[i] = &ports[i], &ports[cfg.Procs+i]
	}
	n.Reset()
	return n
}

// Reset rewinds the network to what New returns: ports free at time
// zero, no message in flight or held, every counter and per-channel
// entry floor zero, no fault injector (its random stream belongs to the
// run). The wiring — delivery kind, node handlers — stays, and so do an
// attached explorer and observers.
func (n *Network) Reset() {
	for i := range n.in {
		*n.in[i], *n.out[i] = sim.Resource{}, sim.Resource{}
	}
	n.flights.Reset()
	n.sent, n.bytesSent = 0, 0
	clear(n.byKind)
	clear(n.lastEntry)
	n.inj, n.tr = nil, nil
	n.injReordered, n.injDelayed, n.injDuped, n.injDropped = 0, 0, 0, 0
	n.flight = fold.Bag{}
}

// Handle registers the delivery handler for node id. Exactly one handler
// per node; registering twice panics.
func (n *Network) Handle(id int, fn func(Msg)) {
	if n.handlers[id] != nil {
		panic(fmt.Sprintf("mesh: node %d handler registered twice", id))
	}
	n.handlers[id] = fn
}

// Finalize validates the registration: every node must have a delivery
// handler. Machine setup calls it once wiring is complete, so a
// misconfigured network fails fast with the full list of unhandled nodes
// instead of panicking at the first Send that happens to hit one.
func (n *Network) Finalize() error {
	var missing []int
	for id, h := range n.handlers {
		if h == nil {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("mesh: %d node(s) have no delivery handler: %v", len(missing), missing)
	}
	return nil
}

// SetInjector attaches a fault injector and engages the reliable-delivery
// transport (transport.go), which makes every message kind retryable.
// Pass nil to detach both. With an injector attached, every cross-node
// message is stamped with a transaction id and a channel sequence number,
// tracked until delivery, and retransmitted on timeout; with none, the
// send path is exactly the reliable fabric.
func (n *Network) SetInjector(inj *faults.Injector) error {
	if inj != nil {
		if n.exp != nil {
			return fmt.Errorf("mesh: fault injector and schedule explorer are mutually exclusive")
		}
		if err := inj.Validate(); err != nil {
			return err
		}
		if n.lastEntry == nil {
			n.lastEntry = make([]sim.Time, n.nprocs*n.nprocs)
		}
		n.tr = newTransport(n, inj)
	} else {
		n.tr = nil
	}
	n.inj = inj
	return nil
}

// MaxExploreDelay bounds an explorer's menu delays. It is far longer than
// any explored run, and far enough below 2⁶⁴ that adding it to the
// current cycle cannot wrap.
const MaxExploreDelay uint64 = 1 << 32

// SetExplorer attaches a schedule explorer: every cross-node message asks
// the chooser to pick a pre-entry delay from menu (sorted candidate
// delays; a menu of one is no choice point at all). Entry times are
// floored per (src, dst) by the same mechanism that serializes injected
// reordering, so no explored schedule can violate pairwise FIFO delivery.
// Pass a nil chooser to detach. Exploration and fault injection are
// mutually exclusive: the injector consumes seeded randomness, which
// would make the chooser's answer stream non-replayable. A delay above
// MaxExploreDelay is refused: Send adds it to the current cycle.
func (n *Network) SetExplorer(ch sim.Chooser, menu []uint64) error {
	if ch == nil {
		n.exp, n.expMenu = nil, nil
		return nil
	}
	if n.inj != nil {
		return fmt.Errorf("mesh: fault injector and schedule explorer are mutually exclusive")
	}
	for _, d := range menu {
		if d > MaxExploreDelay {
			return fmt.Errorf("mesh: explorer delay %d exceeds the %d-cycle bound", d, MaxExploreDelay)
		}
	}
	if len(menu) == 0 {
		menu = []uint64{0}
	}
	if n.lastEntry == nil {
		n.lastEntry = make([]sim.Time, n.nprocs*n.nprocs)
	}
	n.exp = ch
	n.expMenu = append([]uint64(nil), menu...)
	return nil
}

// SetCausal attaches (or, with nil, detaches) a causal span tracer.
// With one attached every Send stamps the message's CT from the
// tracer's current context and every wire flight records a net span.
func (n *Network) SetCausal(t *causal.Tracer) { n.causal = t }

// Hops returns the XY-routing distance between two nodes.
func (n *Network) Hops(a, b int) uint64 {
	ax, ay := a%n.w, a/n.w
	bx, by := b%n.w, b/n.w
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return uint64(dx + dy)
}

// Dims returns the mesh width and height.
func (n *Network) Dims() (w, h int) { return n.w, n.h }

// TransferCycles returns size/bandwidth rounded up — the serialization
// time of a payload on a link, bus, or memory port at this network's
// bandwidth.
func (n *Network) TransferCycles(size int) uint64 {
	if size <= 0 {
		return 0
	}
	return uint64((size + n.bw - 1) / n.bw)
}

// Send routes m from m.Src to m.Dst: it acquires the sender's output
// port, applies hop latency and payload streaming time, acquires the
// receiver's input port, and schedules the destination's handler at the
// delivery time. Node-local messages reach the handler in an event of
// their own at the current instant, with no port or wire in between
// (hardware keeps local protocol transitions off the network).
func (n *Network) Send(m Msg) {
	if n.handlers[m.Dst] == nil {
		panic(fmt.Sprintf("mesh: no handler on node %d (Network.Finalize not called or node never registered)", m.Dst))
	}
	if n.causal != nil {
		m.CT = n.causal.Current()
	}
	if m.Src == m.Dst {
		// Node-local protocol transitions never touch the network and are
		// subject to neither injection nor exploration.
		n.transmit(m, 0)
		return
	}
	if n.exp != nil {
		delay := n.expMenu[0]
		if len(n.expMenu) > 1 {
			pick := n.exp.Choose(len(n.expMenu))
			if pick < 0 || pick >= len(n.expMenu) {
				panic(fmt.Sprintf("mesh: explorer picked delay %d of %d", pick, len(n.expMenu)))
			}
			delay = n.expMenu[pick]
		}
		entry := n.eng.Now() + delay
		pair := m.Src*n.nprocs + m.Dst
		if t := n.lastEntry[pair]; t > entry {
			entry = t
		}
		// The floor is strict (lastEntry stores entry+1): if two held
		// messages on one channel shared an entry timestamp, their network
		// entries would be same-time engine events, and the engine's own
		// tie chooser could flip them — violating the pairwise FIFO the
		// protocols assume. Strict ordering keeps every interleaving the
		// explorer can express a legal one.
		n.lastEntry[pair] = entry + 1
		if entry == n.eng.Now() {
			n.transmit(m, 0)
			return
		}
		// The closure takes a copy: capturing m itself, which Send assigns
		// to, would move the parameter to the heap on every call.
		held := m
		n.flightAdd(&held)
		n.eng.At(entry, func() { n.flightRemove(&held); n.transmit(held, 0) })
		return
	}
	if n.inj == nil {
		n.transmit(m, 0)
		return
	}
	// Stamp identity once — the channel sequence number — then enter the
	// ledger and dispatch through the injector. Retransmissions re-enter
	// via dispatch with the same stamp.
	pair := m.Src*n.nprocs + m.Dst
	n.tr.seq[pair]++
	m.Seq = n.tr.seq[pair]
	n.tr.track(m)
	n.dispatch(m)
}

// dispatch runs one send attempt (first transmission or retransmission)
// through the fault injector: it may be dropped outright — the timeout
// timer recovers it — held back, jittered, or duplicated.
func (n *Network) dispatch(m Msg) {
	f := n.inj.Decide()
	if f.Drop {
		n.injDropped++
		return
	}
	// Injected reordering holds the message back before it enters the
	// network; lastEntry keeps entry times monotonic per (src, dst) pair
	// so two messages between the same nodes are never reordered — the
	// FIFO guarantee of dimension-ordered routing survives injection.
	// The floor is strict (lastEntry stores entry+1): a message held to
	// entry time T sits in a pending callback, and a successor sent at
	// exactly cycle T with no hold of its own would otherwise take the
	// synchronous fast path below and overtake it. (Loss still reorders
	// the wire — a retransmission lands late — which is why receivers
	// resequence stamped messages; see Sequencer.)
	entry := n.eng.Now() + f.PreDelay
	pair := m.Src*n.nprocs + m.Dst
	if t := n.lastEntry[pair]; t > entry {
		entry = t
	}
	n.lastEntry[pair] = entry + 1
	if f.PreDelay > 0 {
		n.injReordered++
	}
	if f.ExtraLat > 0 {
		n.injDelayed++
	}
	send := func() {
		n.transmit(m, f.ExtraLat)
		if f.Duplicate {
			n.injDuped++
			n.eng.After(f.DupDelay, func() { n.transmit(m, f.ExtraLat) })
		}
	}
	if entry == n.eng.Now() {
		send()
	} else {
		n.eng.At(entry, send)
	}
}

// transmit puts one message (or injected duplicate) on the wire: port
// occupancy, hop latency, payload streaming, plus extra injected in-flight
// latency. With the transport engaged, a message whose route crosses a
// downed link is lost before it occupies any port.
func (n *Network) transmit(m Msg, extra uint64) {
	if m.Src != m.Dst && n.routeDown(m.Src, m.Dst, n.eng.Now()) {
		n.tr.outageDrops++
		return
	}
	n.sent++
	n.bytesSent += uint64(m.Size)
	if m.Kind >= len(n.byKind) {
		n.byKind = append(n.byKind, make([]uint64, m.Kind+1-len(n.byKind))...)
	}
	n.byKind[m.Kind]++
	if m.Src == m.Dst {
		n.post(n.eng.Now(), &m)
		return
	}
	ser := n.TransferCycles(m.Size)
	occ := ser
	if occ == 0 {
		occ = 1 // control messages still occupy the port for one cycle
	}
	sendStart, _ := n.out[m.Src].Acquire(n.eng.Now(), occ)
	rawArrival := sendStart + n.hopLat*n.Hops(m.Src, m.Dst) + ser + extra
	deliver := n.in[m.Dst].AcquireWindow(rawArrival, occ)
	n.tel.observe(m.Kind, deliver-n.eng.Now())
	n.causal.Net(m.CT, m.Src, m.Dst, m.Kind, m.Addr,
		n.eng.Now(), deliver, sendStart-n.eng.Now(), deliver-rawArrival)
	n.post(deliver, &m)
}

// post parks m until its delivery event at time t.
func (n *Network) post(t sim.Time, m *Msg) {
	n.flightAdd(m)
	slot := n.flights.Alloc()
	*n.flights.At(slot) = *m
	n.eng.Post(t, n.delivery, slot)
}

// deliver is the delivery event of the message parked under slot, copied
// out and freed before the handler runs: the handler may Send, and that
// may grow the slab or reuse the slot. With the transport engaged, a
// cross-node message arriving inside the destination's brownout window is
// lost at the door, and a delivered one settles its ledger entry (the
// implicit, zero-cost ack).
func (n *Network) deliver(slot uint32) {
	m := *n.flights.At(slot)
	n.flights.Free(slot)
	n.flightRemove(&m)
	if n.tr != nil && m.Src != m.Dst {
		if n.tr.plan.NodeBrowned(m.Dst, n.eng.Now()) {
			n.tr.brownDrops++
			return
		}
		n.tr.ack(m)
	}
	n.handlers[m.Dst](m)
}

// msgHash is the record of a message's protocol-visible content (not its
// Seq or CT, which depend on send order alone).
func msgHash(m *Msg) fold.Rec {
	r := fold.Record(fold.Flight, m.Addr)
	r.Word(uint64(uint32(m.Src)) | uint64(uint32(m.Dst))<<32)
	r.Word(uint64(uint32(m.Kind)) | uint64(uint32(m.Size))<<32)
	r.Word(m.Arg)
	r.Word(m.Aux)
	for _, v := range m.Vals {
		r.Word(v)
	}
	return r
}

// flightAdd/flightRemove maintain the in-flight multiset digest. Only an
// explorer needs it; the ledger stays zero-cost otherwise.
func (n *Network) flightAdd(m *Msg) {
	if n.exp != nil {
		n.flight.Add(msgHash(m))
	}
}

func (n *Network) flightRemove(m *Msg) {
	if n.exp != nil {
		n.flight.Remove(msgHash(m))
	}
}

// InFlightDigest returns an order-independent digest of the messages
// currently sent but undelivered (plus their count), for folding into a
// whole-machine state hash. Empty without an explorer attached.
func (n *Network) InFlightDigest() fold.Bag { return n.flight }

// Stats returns the total messages and payload bytes sent.
func (n *Network) Stats() (msgs, bytes uint64) { return n.sent, n.bytesSent }

// KindCount returns how many messages of the given protocol kind were
// sent — the per-transaction-type traffic breakdown behind the paper's
// message-reduction argument.
func (n *Network) KindCount(kind int) uint64 {
	if kind < 0 || kind >= len(n.byKind) {
		return 0
	}
	return n.byKind[kind]
}

// PortWaited returns the cumulative queueing delay observed at node id's
// NIC ports — a contention indicator used by reports.
func (n *Network) PortWaited(id int) uint64 {
	return n.in[id].Waited() + n.out[id].Waited()
}

// PortBusy returns the cumulative occupancy of node id's NIC ports.
func (n *Network) PortBusy(id int) uint64 {
	return n.in[id].Busy() + n.out[id].Busy()
}

// PortBacklog returns how many cycles past now node id's NIC ports are
// already committed — the queue depth a stall report wants to see.
func (n *Network) PortBacklog(id int, now sim.Time) (in, out uint64) {
	if t := n.in[id].FreeAt(); t > now {
		in = t - now
	}
	if t := n.out[id].FreeAt(); t > now {
		out = t - now
	}
	return in, out
}

// FaultStats returns the number of injected reorder holds, latency
// jitters, duplicates, and drops.
func (n *Network) FaultStats() (reordered, delayed, duped, dropped uint64) {
	return n.injReordered, n.injDelayed, n.injDuped, n.injDropped
}

// FaultSummary renders the injector's activity, or "" when no injector is
// attached.
func (n *Network) FaultSummary() string {
	if n.inj == nil {
		return ""
	}
	decided, faulted := n.inj.Stats()
	return fmt.Sprintf("faults: seed %d, %d/%d messages faulted (%d reordered, %d delayed, %d duplicated, %d dropped)",
		n.inj.Seed(), faulted, decided, n.injReordered, n.injDelayed, n.injDuped, n.injDropped)
}
