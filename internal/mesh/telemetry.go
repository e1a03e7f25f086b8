package mesh

import (
	"fmt"

	"lazyrc/internal/telemetry"
)

// telemetrySink holds the mesh's instruments: one send→deliver latency
// histogram per message kind, created lazily so only kinds actually used
// appear in the digest. A nil sink (telemetry disabled) costs the send
// path a single nil check.
type telemetrySink struct {
	reg      *telemetry.Registry
	kindName func(int) string
	lat      []*telemetry.Histogram // indexed by message kind

	// Reliable-transport instruments, created lazily on the first
	// recovered loss — a run that never loses a message registers neither.
	retxDepth *telemetry.Histogram // backoff depth at delivery
	retxLat   *telemetry.Histogram // first-send -> delivery latency
}

// EnableTelemetry attaches per-kind latency histograms to the network.
// kindName maps a protocol message kind to its mnemonic for the
// histogram name ("net.lat.<mnemonic>"); pass nil to fall back to
// numeric names. A nil registry leaves telemetry disabled.
func (n *Network) EnableTelemetry(reg *telemetry.Registry, kindName func(int) string) {
	if reg == nil {
		return
	}
	n.tel = &telemetrySink{reg: reg, kindName: kindName}
}

// observe records one delivered message's wire latency in cycles.
func (t *telemetrySink) observe(kind int, cycles uint64) {
	if t == nil {
		return
	}
	for kind >= len(t.lat) {
		t.lat = append(t.lat, nil)
	}
	if t.lat[kind] == nil {
		name := fmt.Sprintf("net.lat.kind%d", kind)
		if t.kindName != nil {
			name = "net.lat." + t.kindName(kind)
		}
		t.lat[kind] = t.reg.Histogram(name)
	}
	t.lat[kind].Observe(cycles)
}

// observeRetx records one recovered message's backoff depth and its
// first-send → final-delivery latency ("how long did the loss cost").
func (t *telemetrySink) observeRetx(depth, lat uint64) {
	if t == nil {
		return
	}
	if t.retxDepth == nil {
		t.retxDepth = t.reg.Histogram("net.retx.depth")
		t.retxLat = t.reg.Histogram("net.retx.lat")
	}
	t.retxDepth.Observe(depth)
	t.retxLat.Observe(lat)
}

// PortBusyInOut returns the cumulative occupancy of node id's receive and
// send NIC ports separately — the telemetry sampler splits directions so
// each node's net.in_busy and net.out_busy tracks show asymmetric traffic.
func (n *Network) PortBusyInOut(id int) (in, out uint64) {
	return n.in[id].Busy(), n.out[id].Busy()
}
