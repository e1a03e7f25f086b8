package protocol

import (
	"fmt"
	"strings"
	"testing"

	"lazyrc/internal/directory"
	"lazyrc/internal/fold"
	"lazyrc/internal/mesh"
	"lazyrc/internal/sim"
)

func req(src int, kind MsgKind, block uint64) pendingReq {
	return pendingReq{m: mesh.Msg{Src: src, Kind: int(kind), Addr: block}}
}

// TestHomeSerial pins the serializer's contract step by step: the script
// is one block's life plus a second block that must not interfere.
func TestHomeSerial(t *testing.T) {
	var h homeSerial
	if h.inService(5) || h.Residual() != nil || h.Debug() != "" {
		t.Fatal("zero homeSerial is not idle")
	}
	steps := []struct {
		op        string // enter, wait, leave
		p         pendingReq
		entered   bool // enter: want served now
		next      int  // leave: want this source handed over, -1 for idle
		inService bool // block 5 afterwards
	}{
		{op: "enter", p: req(1, MsgReadReq, 5), entered: true, inService: true},
		{op: "enter", p: req(2, MsgWriteReq, 5), entered: false, inService: true},
		{op: "enter", p: req(9, MsgReadReq, 6), entered: true, inService: true}, // other block: independent
		{op: "enter", p: req(3, MsgReadReq, 5), entered: false, inService: true},
		{op: "wait", p: req(1, MsgReadReq, 5), inService: true}, // the holder's retry joins the back
		{op: "leave", next: 2, inService: true},
		{op: "enter", p: req(4, MsgReadReq, 5), entered: false, inService: true}, // held for 2: still queues
		{op: "leave", next: 3, inService: true},
		{op: "leave", next: 1, inService: true},
		{op: "leave", next: 4, inService: true},
		{op: "leave", next: -1, inService: false},
		{op: "enter", p: req(7, MsgReadReq, 5), entered: true, inService: true},
		{op: "leave", next: -1, inService: false},
	}
	for i, st := range steps {
		switch st.op {
		case "enter":
			if got := h.enter(st.p); got != st.entered {
				t.Fatalf("step %d: enter(src %d) = %v, want %v", i, st.p.m.Src, got, st.entered)
			}
		case "wait":
			h.wait(st.p)
		case "leave":
			got := -1
			if p, ok := h.leave(5); ok {
				got = p.m.Src
			}
			if got != st.next {
				t.Fatalf("step %d: leave handed over src %d, want %d", i, got, st.next)
			}
		}
		if h.inService(5) != st.inService {
			t.Fatalf("step %d (%s): block 5 in service = %v, want %v", i, st.op, h.inService(5), st.inService)
		}
	}
	// Block 6 was entered and never left.
	err := h.Residual()
	if err == nil || !strings.Contains(err.Error(), "block 6") {
		t.Fatalf("Residual = %v, want an error naming block 6", err)
	}
	if d := h.Debug(); !strings.Contains(d, "serving{block 6 waiting:0}") {
		t.Fatalf("Debug = %q, want block 6 in service", d)
	}
}

func TestHomeSerialMisusePanics(t *testing.T) {
	for name, fn := range map[string]func(h *homeSerial){
		"leave idle": func(h *homeSerial) { h.leave(3) },
		"wait idle":  func(h *homeSerial) { h.wait(req(1, MsgReadReq, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn(&homeSerial{})
		}()
	}
}

// foldSum is the fold of one piece of state's records.
func foldSum(into func(*fold.Bag)) (recs fold.Bag) {
	into(&recs)
	return recs
}

// TestHomeSerialSnapshotCanonical: the fold depends on which blocks are in
// service and on each block's queue order, never on the order the blocks
// were entered in.
func TestHomeSerialSnapshotCanonical(t *testing.T) {
	build := func(blocks ...uint64) fold.Bag {
		var h homeSerial
		for _, b := range blocks {
			h.enter(req(1, MsgReadReq, b))
		}
		for _, b := range blocks {
			h.enter(req(2, MsgWriteReq, b))
			h.enter(req(3, MsgReadReq, b))
		}
		return foldSum(h.fold)
	}
	if build(3, 40, 7) != build(40, 7, 3) {
		t.Fatal("fold depends on the order blocks entered service")
	}
	var h, ref homeSerial
	for _, src := range []int{1, 3, 2} { // same blocks, block 3's queue reordered
		h.enter(req(src, MsgReadReq, 3))
	}
	for _, src := range []int{1, 2, 3} {
		ref.enter(req(src, MsgReadReq, 3))
	}
	if foldSum(h.fold) == foldSum(ref.fold) {
		t.Fatal("fold ignores queue order")
	}
}

// eagerScript is a scripted eager home: node 0 is a real protocol node,
// every other node only records what the home sends it, in arrival
// order, and the test plays their parts through Node.deliver.
type eagerScript struct {
	t    *testing.T
	eng  *sim.Engine
	home *Node
	got  []mesh.Msg
}

const scriptBlock = 0 // homed at node 0

func newEagerScript(t *testing.T, nodes int) *eagerScript {
	env := bareEnv(nodes)
	s := &eagerScript{t: t, eng: env.Eng}
	s.home = NewNode(env, 0, &ERC{})
	for id := 1; id < nodes; id++ {
		env.Net.Handle(id, func(m mesh.Msg) { s.got = append(s.got, m) })
	}
	return s
}

// send delivers one message to the home at the current time.
func (s *eagerScript) send(src int, kind MsgKind, arg uint64) {
	s.home.deliver(mesh.Msg{Src: src, Dst: 0, Kind: int(kind), Addr: scriptBlock, Arg: arg})
}

// settle runs the engine dry and returns what the other nodes received
// since the last call.
func (s *eagerScript) settle() []mesh.Msg {
	s.eng.Run()
	got := s.got
	s.got = nil
	return got
}

// expect settles and checks the received messages against "Kind>dst".
func (s *eagerScript) expect(want ...string) []mesh.Msg {
	s.t.Helper()
	got := s.settle()
	var names []string
	for _, m := range got {
		names = append(names, fmt.Sprintf("%v>%d", MsgKind(m.Kind), m.Dst))
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		s.t.Fatalf("home sent %v, want %v", names, want)
	}
	return got
}

// makeDirty makes owner the block's exclusive owner at the directory.
func (s *eagerScript) makeDirty(owner int) {
	s.t.Helper()
	s.send(owner, MsgWriteReq, wantData)
	s.expect(fmt.Sprintf("WriteData>%d", owner))
	if e := s.home.Dir.Peek(scriptBlock); e.State != directory.Dirty || e.Writers.Only() != owner {
		s.t.Fatalf("setup: directory %v, want DIRTY owned by %d", e.State, owner)
	}
}

func (s *eagerScript) waiting() []pendingReq { return s.home.home.q[scriptBlock] }

// TestEagerHeldDropAppliesAfterXferDone: a copy-drop from the requester
// of an open transfer refers to the copy the transfer is about to
// record; it is held, and applied after the XferDone commit — the
// dropped copy must not come back as a sharer.
func TestEagerHeldDropAppliesAfterXferDone(t *testing.T) {
	s := newEagerScript(t, 4)
	s.makeDirty(1)
	s.send(2, MsgReadReq, 0)
	s.expect("FwdRead>1")
	before := foldSum(s.home.eagerHome.fold)

	s.send(2, MsgEvict, 0) // node 2 got the owner's data and already replaced it
	s.expect()
	es := s.home.eager()
	if len(es.held[scriptBlock]) != 1 {
		t.Fatalf("held = %v, want the requester's drop held", es.held)
	}
	if d := s.home.Debug(); !strings.Contains(d, "held{block 0 n:1}") || !strings.Contains(d, "serving{block 0") {
		t.Errorf("Debug = %q, want the held drop and the in-service mark", d)
	}
	if before == foldSum(s.home.eagerHome.fold) {
		t.Error("fold does not see the held drop")
	}
	s.send(3, MsgEvict, 0) // a third party's drop commutes with the commit: applied at once
	s.expect()
	if len(es.held[scriptBlock]) != 1 {
		t.Fatalf("held = %v, want only the requester's drop", es.held)
	}

	s.send(1, MsgXferDone, 0)
	s.expect()
	e := s.home.Dir.Peek(scriptBlock)
	if e.Sharers.Has(2) || !e.Sharers.Has(1) || e.Sharers.Len() != 1 || e.State != directory.Shared {
		t.Fatalf("after commit: state %v sharers has1=%v has2=%v, want only the old owner sharing",
			e.State, e.Sharers.Has(1), e.Sharers.Has(2))
	}
	if err := s.home.HomeResidual(); err != nil {
		t.Fatalf("home not quiescent: %v", err)
	}
}

// TestEagerFwdNackRetryJoinsBack: the request whose forward was nacked
// goes behind whatever queued during the transfer, so the stale owner's
// own re-request is served first.
func TestEagerFwdNackRetryJoinsBack(t *testing.T) {
	s := newEagerScript(t, 4)
	s.makeDirty(1)
	s.send(2, MsgWriteReq, wantData)
	s.expect("FwdWrite>1")
	s.send(3, MsgReadReq, 0) // queues behind the open transfer
	s.expect()
	if w := s.waiting(); len(w) != 1 || w[0].m.Src != 3 {
		t.Fatalf("waiting = %v, want node 3's read", w)
	}

	s.send(1, MsgFwdNack, 0)
	// Node 3's read is handed the block; node 2's retry waits behind it.
	if w := s.waiting(); len(w) != 1 || w[0].m.Src != 2 || MsgKind(w[0].m.Kind) != MsgWriteReq || w[0].m.Arg != wantData {
		t.Fatalf("after nack: waiting = %v, want node 2's write retry", w)
	}
	if got := s.expect("FwdRead>1"); got[0].Arg != 3 {
		t.Fatalf("forwarded for node %d, want node 3 (the queued read) first", got[0].Arg)
	}
	// The read's commit leaves the block shared by 1 and 3; the retry
	// then resolves against that state: invalidate both, grant node 2.
	s.send(1, MsgXferDone, 0)
	s.expect("Inval>1", "Inval>3")
	s.send(1, MsgInvalAck, 0)
	s.send(3, MsgInvalAck, 0)
	s.expect("WriteData>2")
	if err := s.home.HomeResidual(); err != nil {
		t.Fatalf("home not quiescent: %v", err)
	}
}

// TestEagerRequeuedHeadNotOvertaken: while a queue head is being
// re-serviced (its directory re-read occupies the protocol processor),
// the block stays in service on its behalf — a request that arrived
// just before the hand-over and reaches the directory first still
// queues behind it.
func TestEagerRequeuedHeadNotOvertaken(t *testing.T) {
	s := newEagerScript(t, 6)
	s.makeDirty(1)
	s.send(2, MsgReadReq, 0)
	s.expect("FwdRead>1")
	s.send(3, MsgReadReq, 0) // the future queue head
	s.expect()

	// A fresh read reaches the protocol processor first; the transfer
	// closes in the same cycle and hands the block to node 3, whose
	// directory re-read queues behind the fresh request's.
	s.send(4, MsgReadReq, 0)
	s.send(1, MsgXferDone, 0)
	s.eng.RunUntil(s.eng.Now() + s.home.dirCost())
	if w := s.waiting(); len(w) != 1 || w[0].m.Src != 4 {
		t.Fatalf("waiting = %v, want the fresh read queued behind the re-serviced head", w)
	}
	if !s.home.HomeBusy(scriptBlock) {
		t.Fatal("block not busy during head re-service")
	}
	s.expect("ReadReply>3", "ReadReply>4")
	if err := s.home.HomeResidual(); err != nil {
		t.Fatalf("home not quiescent: %v", err)
	}
}
