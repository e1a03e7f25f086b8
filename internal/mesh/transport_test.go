package mesh

import (
	"testing"

	"lazyrc/internal/config"
	"lazyrc/internal/faults"
	"lazyrc/internal/sim"
)

// lossyNetwork builds an 8-node network with the given plan attached and
// wires every node's handler through a per-node Sequencer, mirroring how
// protocol nodes consume arrivals. deliver sees exactly-once in-order
// messages.
func lossyNetwork(t *testing.T, eng *sim.Engine, seed uint64, planText string, deliver func(Msg)) *Network {
	t.Helper()
	n := New(eng, config.Default(8))
	plan, err := faults.ParsePlan(planText)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetInjector(faults.NewInjector(seed, plan)); err != nil {
		t.Fatal(err)
	}
	for i := range 8 {
		seq := NewSequencer(8)
		n.Handle(i, func(m Msg) { seq.Admit(m, deliver) })
	}
	return n
}

// TestRetransmitRecoversEveryDrop floods one channel at 60% loss and
// verifies exactly-once in-order delivery of everything, a settled
// ledger, and plausible recovery counters.
func TestRetransmitRecoversEveryDrop(t *testing.T) {
	eng := sim.NewEngine()
	var got []uint64
	n := lossyNetwork(t, eng, 7, "drop=0.6", func(m Msg) {
		if m.Dst == 1 {
			got = append(got, m.Addr)
		}
	})
	const msgs = 300
	for i := range msgs {
		at, tag := uint64(i)*8, uint64(i)
		eng.At(at, func() { n.Send(Msg{Src: 0, Dst: 1, Size: 16, Addr: tag}) })
	}
	eng.Run()
	if len(got) != msgs {
		t.Fatalf("%d deliveries, want %d", len(got), msgs)
	}
	for i, tag := range got {
		if tag != uint64(i) {
			t.Fatalf("delivery %d carries tag %d: order not restored", i, tag)
		}
	}
	_, _, _, dropped := n.FaultStats()
	if dropped == 0 {
		t.Fatal("drop plan never engaged — test exercised nothing")
	}
	retx, recovered, _, _, maxDepth, pending := n.TransportStats()
	if retx < dropped {
		t.Fatalf("%d retransmissions for %d drops: losses left unrepaired", retx, dropped)
	}
	if recovered == 0 || maxDepth == 0 {
		t.Fatalf("recovered=%d maxDepth=%d, want both positive under 60%% loss", recovered, maxDepth)
	}
	if pending != 0 {
		t.Fatalf("%d ledger entries still pending at quiescence", pending)
	}
}

// TestOutageWindowRecovered sends across a downed link during its outage
// window: every crossing is lost on the wire and must be recovered by
// retransmission after the window closes.
func TestOutageWindowRecovered(t *testing.T) {
	eng := sim.NewEngine()
	var arrivals []sim.Time
	// Nodes 0 and 1 are adjacent on the 4x2 mesh; the 0->1 route is the
	// single 0-1 link. No probabilistic rule: the outage is the only fault.
	n := lossyNetwork(t, eng, 3, "down=0-1:0:5000", func(m Msg) {
		if m.Dst == 1 {
			arrivals = append(arrivals, eng.Now())
		}
	})
	const msgs = 10
	for i := range msgs {
		at := uint64(i) * 100 // all inside the outage window
		eng.At(at, func() { n.Send(Msg{Src: 0, Dst: 1, Size: 16}) })
	}
	eng.Run()
	if len(arrivals) != msgs {
		t.Fatalf("%d deliveries, want %d", len(arrivals), msgs)
	}
	for _, at := range arrivals {
		if at < 5000 {
			t.Fatalf("delivery at %d, inside the outage window", at)
		}
	}
	_, _, outage, _, _, pending := n.TransportStats()
	if outage < msgs {
		t.Fatalf("outageDrops = %d, want >= %d (every first attempt crosses the downed link)", outage, msgs)
	}
	if pending != 0 {
		t.Fatalf("%d ledger entries still pending at quiescence", pending)
	}
}

// TestBrownoutRecovered sends into a browned-out receiver: arrivals
// during the window are lost at the NIC and recovered after it.
func TestBrownoutRecovered(t *testing.T) {
	eng := sim.NewEngine()
	var arrivals []sim.Time
	n := lossyNetwork(t, eng, 3, "brown=5:0:4000", func(m Msg) {
		if m.Dst == 5 {
			arrivals = append(arrivals, eng.Now())
		}
	})
	const msgs = 8
	for i := range msgs {
		at := uint64(i) * 50
		eng.At(at, func() { n.Send(Msg{Src: 0, Dst: 5, Size: 16}) })
	}
	eng.Run()
	if len(arrivals) != msgs {
		t.Fatalf("%d deliveries, want %d", len(arrivals), msgs)
	}
	for _, at := range arrivals {
		if at < 4000 {
			t.Fatalf("delivery at %d, inside the brownout window", at)
		}
	}
	_, _, _, brown, _, pending := n.TransportStats()
	if brown < msgs {
		t.Fatalf("brownoutDrops = %d, want >= %d", brown, msgs)
	}
	if pending != 0 {
		t.Fatalf("%d ledger entries still pending at quiescence", pending)
	}
}

// TestSequencerRestoresFIFO drives a Sequencer directly with the arrival
// patterns loss produces: gaps, late originals, and duplicates.
func TestSequencerRestoresFIFO(t *testing.T) {
	s := NewSequencer(4)
	var got []uint64
	deliver := func(m Msg) { got = append(got, m.Seq) }
	msg := func(src int, seq uint64) Msg { return Msg{Src: src, Seq: seq} }

	s.Admit(msg(0, 1), deliver)           // in order
	s.Admit(msg(0, 3), deliver)           // early: parked
	s.Admit(msg(0, 3), deliver)           // duplicate of a parked message
	s.Admit(msg(0, 2), deliver)           // fills the gap, drains 3
	s.Admit(msg(0, 2), deliver)           // late duplicate
	s.Admit(Msg{Src: 0, Seq: 0}, deliver) // unstamped: passes through
	want := []uint64{1, 2, 3, 0}
	if len(got) != len(want) {
		t.Fatalf("deliveries = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("deliveries = %v, want %v", got, want)
		}
	}
	if s.Suppressed() != 2 {
		t.Fatalf("Suppressed = %d, want 2", s.Suppressed())
	}
	if s.Parked() != 1 {
		t.Fatalf("Parked = %d, want 1", s.Parked())
	}
	if s.Waiting() != 0 {
		t.Fatalf("Waiting = %d, want 0", s.Waiting())
	}
	// Sources sequence independently.
	s.Admit(msg(2, 2), deliver)
	if s.Waiting() != 1 {
		t.Fatal("arrival from another source not parked independently")
	}
	s.Admit(msg(2, 1), deliver)
	if s.Waiting() != 0 || got[len(got)-1] != 2 {
		t.Fatalf("source-2 gap fill failed: waiting %d, tail %d", s.Waiting(), got[len(got)-1])
	}
}

// TestTransportCountersInFlight verifies PendingRetransmits/TransportTop
// expose an undelivered message while its loss is still being repaired.
func TestTransportCountersInFlight(t *testing.T) {
	eng := sim.NewEngine()
	n := lossyNetwork(t, eng, 1, "down=0-1:0:60000", func(Msg) {})
	eng.At(0, func() { n.Send(Msg{Src: 0, Dst: 1, Size: 16}) })
	// Stop mid-outage: the message has been retransmitted but not
	// delivered.
	eng.At(40000, func() { eng.Stop() })
	eng.Run()
	entries := n.PendingRetransmits()
	if len(entries) != 1 {
		t.Fatalf("%d pending retransmit entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Src != 0 || e.Dst != 1 || e.Attempt == 0 || e.LastSend <= e.FirstSend {
		t.Fatalf("entry = %+v", e)
	}
	if top := n.TransportTop(4); len(top) != 1 {
		t.Fatalf("TransportTop = %v", top)
	}
}
