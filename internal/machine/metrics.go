package machine

import (
	"fmt"

	"lazyrc/internal/telemetry"
)

// EnableMetrics attaches a telemetry registry to the machine, sampling
// every interval simulated cycles. It must be called before Run, in any
// order relative to EnableSpans and EnablePerf. The sampling tick is a
// background engine event — it never keeps the simulation alive and
// never alters the timing of regular events, so enabling metrics leaves
// every simulated cycle untouched and the resulting series is a pure
// function of the run (byte-identical across reruns, worker counts, and
// machines at a fixed seed).
//
// Sources wired here:
//
//   - stall.{cpu,read,write,sync}: interval deltas of the four
//     machine-wide cycle categories (the paper's cost breakdown).
//   - net.{msgs,bytes}: interval deltas of network traffic.
//   - net.{in_busy,out_busy}.NNN: per-node NIC-port occupancy deltas
//     (link utilization).
//   - net.backlog.NNN: cycles of work already committed to each node's
//     NIC ports at the sample point (queue depth).
//   - wb.depth.NNN / cb.depth.NNN: write-buffer and coalescing-buffer
//     occupancy at the sample point.
//   - proto.pending_notices: queued acquire-time invalidations plus
//     unposted (delayed) write notices, machine-wide.
//   - proto.acquire_waiters: processors blocked in a synchronization
//     acquire at the sample point.
//   - dir.{uncached,shared,dirty,weak}: directory state mix over all
//     blocks with records.
//   - net.lat.KIND histograms: send→deliver latency per message kind.
//   - wb.residency / cb.residency histograms: cycles an entry waits in
//     the write or coalescing buffer before draining.
//   - net.{retx,dropped,dup_suppressed} (fault injection only): interval
//     deltas of transport retransmissions, total losses (injector drops
//     plus outage and brownout losses), and receiver-side suppression;
//     net.retx.{depth,lat} histograms record each recovered message's
//     backoff depth and first-send→delivery latency. Registered only
//     when the transport is active so the zero-fault export shape — and
//     its pinned baseline digest — is untouched.
func (m *Machine) EnableMetrics(interval uint64) *telemetry.Registry {
	reg := telemetry.NewRegistry(interval)
	m.Tel = reg
	reg.SetMeta("protocol", m.protoName)
	reg.SetMeta("procs", fmt.Sprintf("%d", m.Cfg.Procs))
	reg.SetMeta("line_size", fmt.Sprintf("%d", m.Cfg.LineSize))
	reg.SetMeta("seed", fmt.Sprintf("%d", m.Cfg.Seed))

	m.Net.EnableTelemetry(reg, msgKindName)

	clock := func() uint64 { return m.Eng.Now() }
	wbResid := reg.Histogram("wb.residency")
	cbResid := reg.Histogram("cb.residency")
	for _, n := range m.Nodes {
		n.WB.EnableTelemetry(clock, wbResid)
		n.CB.EnableTelemetry(clock, cbResid)
	}

	stCPU := reg.Series("stall.cpu", telemetry.Delta)
	stRead := reg.Series("stall.read", telemetry.Delta)
	stWrite := reg.Series("stall.write", telemetry.Delta)
	stSync := reg.Series("stall.sync", telemetry.Delta)
	netMsgs := reg.Series("net.msgs", telemetry.Delta)
	netBytes := reg.Series("net.bytes", telemetry.Delta)
	pendNotices := reg.Series("proto.pending_notices", telemetry.Level)
	acqWaiters := reg.Series("proto.acquire_waiters", telemetry.Level)
	var dirStates [4]*telemetry.Series // indexed by directory.State
	for st, name := range [4]string{"dir.uncached", "dir.shared", "dir.dirty", "dir.weak"} {
		dirStates[st] = reg.Series(name, telemetry.Level)
	}

	// Transport series exist only when the reliable-delivery transport is
	// engaged (a fault injector is attached): the registry digest folds
	// every registered instrument, so the zero-fault export — and its
	// pinned baseline digest — must not change shape.
	var trRetx, trDropped, trSuppressed *telemetry.Series
	if m.Net.TransportActive() {
		trRetx = reg.Series("net.retx", telemetry.Delta)
		trDropped = reg.Series("net.dropped", telemetry.Delta)
		trSuppressed = reg.Series("net.dup_suppressed", telemetry.Delta)
	}

	nodes := len(m.Nodes)
	inBusy := make([]*telemetry.Series, nodes)
	outBusy := make([]*telemetry.Series, nodes)
	backlog := make([]*telemetry.Series, nodes)
	wbDepth := make([]*telemetry.Series, nodes)
	cbDepth := make([]*telemetry.Series, nodes)
	for i := 0; i < nodes; i++ {
		inBusy[i] = reg.Series(fmt.Sprintf("net.in_busy.%03d", i), telemetry.Delta)
		outBusy[i] = reg.Series(fmt.Sprintf("net.out_busy.%03d", i), telemetry.Delta)
		backlog[i] = reg.Series(fmt.Sprintf("net.backlog.%03d", i), telemetry.Level)
		wbDepth[i] = reg.Series(fmt.Sprintf("wb.depth.%03d", i), telemetry.Level)
		cbDepth[i] = reg.Series(fmt.Sprintf("cb.depth.%03d", i), telemetry.Level)
	}

	reg.OnSample(func() {
		cpu, read, write, sync := m.Stats.Aggregate()
		stCPU.Set(float64(cpu))
		stRead.Set(float64(read))
		stWrite.Set(float64(write))
		stSync.Set(float64(sync))
		msgs, bytes := m.Net.Stats()
		netMsgs.Set(float64(msgs))
		netBytes.Set(float64(bytes))
		if trRetx != nil {
			retx, _, outage, brown, _, _ := m.Net.TransportStats()
			_, _, _, injDropped := m.Net.FaultStats()
			trRetx.Set(float64(retx))
			trDropped.Set(float64(injDropped + outage + brown))
			trSuppressed.Set(float64(m.DuplicatesIgnored()))
		}

		now := m.Eng.Now()
		var notices, waiters int
		var dir [4]int
		for i, n := range m.Nodes {
			in, out := m.Net.PortBusyInOut(n.ID)
			inBusy[i].Set(float64(in))
			outBusy[i].Set(float64(out))
			bin, bout := m.Net.PortBacklog(n.ID, now)
			backlog[i].Set(float64(bin + bout))
			wbDepth[i].Set(float64(n.WB.Len()))
			cbDepth[i].Set(float64(n.CB.Len()))
			notices += n.PendingInvals() + n.DelayedNotices()
			if n.SyncWaiting() {
				waiters++
			}
			for st, c := range n.Dir.StateCounts() {
				dir[st] += c
			}
		}
		pendNotices.Set(float64(notices))
		acqWaiters.Set(float64(waiters))
		for st, c := range dir {
			dirStates[st].Set(float64(c))
		}
	})

	// The tick is a background event: it dies with the last regular event
	// and Run takes the closing sample.
	m.Eng.Every(interval, func() { reg.Sample(m.Eng.Now()) })
	return reg
}
