package protocol

import (
	"slices"
	"strings"
	"testing"

	"lazyrc/internal/cache"
	"lazyrc/internal/causal"
	"lazyrc/internal/config"
	"lazyrc/internal/directory"
	"lazyrc/internal/mesh"
	"lazyrc/internal/sim"
	"lazyrc/internal/stats"
)

func TestRegistry(t *testing.T) {
	if all := []string{"sc", "erc", "lrc", "lrc-ext", "tardis"}; !slices.Equal(Names(), all) {
		t.Fatalf("Names() = %v, want %v", Names(), all)
	}
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
	}
	// One name per protocol: no alias resolves, the old "lrcext" included.
	for _, name := range []string{"mesi", "lrcext", "LRC", ""} {
		if p, err := New(name); err == nil {
			t.Errorf("New(%q) = %s, want an error", name, p.Name())
		}
	}
}

func TestProtocolProperties(t *testing.T) {
	for _, tc := range []struct {
		name            string
		lazy, writeback bool
	}{
		{"sc", false, true},
		{"erc", false, true},
		{"lrc", true, false},
		{"lrc-ext", true, false},
	} {
		p, err := New(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Lazy() != tc.lazy {
			t.Errorf("%s: Lazy() = %v", tc.name, p.Lazy())
		}
		if p.WriteBack() != tc.writeback {
			t.Errorf("%s: WriteBack() = %v", tc.name, p.WriteBack())
		}
	}
}

func TestNoticePolicy(t *testing.T) {
	if !(&LRC{}).EagerNotices() {
		t.Error("LRC must send notices eagerly")
	}
	if (&LRCExt{}).EagerNotices() {
		t.Error("LRCExt must defer notices")
	}
}

// IsSync reports whether the kind is synchronization traffic.
func (k MsgKind) IsSync() bool { return k >= MsgLockReq && k <= MsgFlagGo }

func TestMsgKindStrings(t *testing.T) {
	for k := MsgKind(0); k < numMsgKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "MsgKind(") {
			t.Errorf("kind %d has no mnemonic", k)
		}
	}
	if !MsgLockReq.IsSync() || !MsgFlagGo.IsSync() {
		t.Error("sync kinds not classified as sync")
	}
	if MsgReadReq.IsSync() || MsgWriteThrough.IsSync() {
		t.Error("coherence kinds classified as sync")
	}
}

// bareEnv builds an n-node environment with no nodes in it yet.
func bareEnv(n int) *Env {
	cfg := config.Default(n)
	cfg.CheckInvariants = true
	eng := sim.NewEngine()
	return &Env{
		Eng:   eng,
		Net:   mesh.New(eng, cfg),
		Cfg:   cfg,
		Stats: stats.NewMachine(n),
		Class: stats.NewClassifier(n, cfg.WordsPerLine()),
	}
}

// testEnv builds a bare n-node environment for white-box protocol tests.
func testEnv(t *testing.T, n int, proto string) *Env {
	t.Helper()
	env := bareEnv(n)
	for i := 0; i < n; i++ {
		p, err := New(proto)
		if err != nil {
			t.Fatal(err)
		}
		env.Nodes = append(env.Nodes, NewNode(env, i, p))
	}
	return env
}

// TestLockQueueGrantOrder scripts three lock requesters directly against
// a sync manager and checks FIFO granting.
func TestLockQueueGrantOrder(t *testing.T) {
	env := testEnv(t, 4, "sc")
	var order []int
	for i := 1; i <= 3; i++ {
		node := env.Nodes[i]
		id := i
		node.CPU = env.Eng.Spawn("cpu", func(c *sim.Context) {
			// Stagger the requests so arrival order is deterministic.
			c.Sleep(uint64(id * 10))
			node.LockAcquire(0, 7)
			order = append(order, id)
			c.Sleep(100) // hold the lock
			node.LockRelease(0, 7)
		})
	}
	env.Nodes[0].CPU = env.Eng.Spawn("cpu0", func(c *sim.Context) {})
	env.Eng.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("grant order = %v, want [1 2 3]", order)
	}
}

func TestFlagSetBeforeWait(t *testing.T) {
	env := testEnv(t, 2, "sc")
	done := false
	env.Nodes[0].CPU = env.Eng.Spawn("setter", func(c *sim.Context) {
		env.Nodes[0].FlagSet(0, 3)
	})
	env.Nodes[1].CPU = env.Eng.Spawn("waiter", func(c *sim.Context) {
		c.Sleep(500) // flag long since set
		env.Nodes[1].FlagWait(0, 3)
		done = true
	})
	env.Eng.Run()
	if !done {
		t.Fatal("waiter never released")
	}
}

func TestBarrierReuse(t *testing.T) {
	env := testEnv(t, 4, "sc")
	counts := make([]int, 4)
	for i := 0; i < 4; i++ {
		node, id := env.Nodes[i], i
		node.CPU = env.Eng.Spawn("cpu", func(c *sim.Context) {
			for round := 0; round < 3; round++ {
				c.Sleep(uint64(id*7 + 1))
				node.BarrierWait(2, 9, 4)
				counts[id]++
			}
		})
	}
	env.Eng.Run()
	for id, n := range counts {
		if n != 3 {
			t.Fatalf("cpu%d passed barrier %d times, want 3", id, n)
		}
	}
}

// TestLRCWeakTransitionScript drives the lazy home directly: two writers
// make a block weak; the home collects the notice ack and completes both.
func TestLRCWeakTransitionScript(t *testing.T) {
	env := testEnv(t, 2, "lrc")
	home := env.Nodes[0]
	block := uint64(0) // homed at node 0
	var w0, w1 *sim.Context
	w0 = env.Eng.Spawn("w0", func(c *sim.Context) {
		home.Proto.CPUWrite(home, block, 0)
		g := home.txn(block)
		if g != nil {
			home.PS.WriteStall += g.Done.Wait(c, "done")
		}
	})
	w1 = env.Eng.Spawn("w1", func(c *sim.Context) {
		c.Sleep(50)
		n1 := env.Nodes[1]
		n1.Proto.CPUWrite(n1, block, 1)
		g := n1.txn(block)
		if g != nil {
			n1.PS.WriteStall += g.Done.Wait(c, "done")
		}
	})
	home.CPU = w0
	env.Nodes[1].CPU = w1
	env.Eng.Run()

	e := home.Dir.Peek(block)
	if e == nil || e.State != directory.Weak {
		t.Fatalf("directory state = %v, want WEAK", e)
	}
	if e.Writers.Len() != 2 || e.Sharers.Len() != 2 {
		t.Fatalf("writers/sharers = %d/%d, want 2/2", e.Writers.Len(), e.Sharers.Len())
	}
	if e.PendingAcks != 0 {
		t.Fatalf("pending acks = %d after completion", e.PendingAcks)
	}
	// The first writer received a notice for the second's write.
	if env.Stats.Procs[0].NoticesIn != 1 {
		t.Fatalf("writer 0 processed %d notices, want 1", env.Stats.Procs[0].NoticesIn)
	}
}

// TestTxnDuplicatePanics ensures the one-transaction-per-block invariant
// is enforced.
func TestTxnDuplicatePanics(t *testing.T) {
	env := testEnv(t, 1, "lrc")
	n := env.Nodes[0]
	n.newTxn(5)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate txn did not panic")
		}
	}()
	n.newTxn(5)
}

func TestDirCostByFamily(t *testing.T) {
	lazy := testEnv(t, 1, "lrc").Nodes[0]
	eager := testEnv(t, 1, "erc").Nodes[0]
	if lazy.dirCost() != 25 || eager.dirCost() != 15 {
		t.Fatalf("dir costs = %d/%d, want 25/15", lazy.dirCost(), eager.dirCost())
	}
}

func TestPendInvDedup(t *testing.T) {
	env := testEnv(t, 1, "lrc")
	n := env.Nodes[0]
	n.pendInv.add(3)
	n.pendInv.add(3)
	n.pendInv.add(4)
	if got := n.pendInv.order; len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("pendInv = %v, want [3 4]", got)
	}
	if got := n.pendInv.take(); len(got) != 2 || n.PendingInvals() != 0 {
		t.Fatalf("take = %v leaving %d", got, n.PendingInvals())
	}
	n.pendInv.add(3) // taken blocks may queue again
	if n.PendingInvals() != 1 {
		t.Fatalf("pendInv = %v after take, want [3]", n.pendInv.order)
	}
}

func TestDelayedNoticeBookkeeping(t *testing.T) {
	env := testEnv(t, 1, "lrc-ext")
	n := env.Nodes[0]
	n.delayed.add(8)
	n.delayed.add(8)
	n.delayed.add(9)
	if n.DelayedNotices() != 2 {
		t.Fatalf("delayed = %v, want 2 unique entries", n.delayed.order)
	}
	if !n.delayed.remove(8) {
		t.Fatal("removing a queued block reported it absent")
	}
	if got := n.delayed.order; len(got) != 1 || got[0] != 9 {
		t.Fatalf("delayed after remove = %v, want [9]", got)
	}
	if n.delayed.remove(8) { // absent: no-op
		t.Fatal("removing an absent block reported it queued")
	}
}

// choiceProbe is a mesh explorer that calls itself at every choice point,
// where the model checker hashes the machine mid-event.
type choiceProbe func()

func (p choiceProbe) Choose(int) int { p(); return 0 }

// TestWriteThroughLeavesAfterTheStore: a store that finds the coalescing
// buffer full displaces its oldest entry, and the write-through carrying
// that entry reaches the network's choice point only once the store is
// buffered, so a state hash taken there includes the store.
func TestWriteThroughLeavesAfterTheStore(t *testing.T) {
	env := testEnv(t, 2, "lrc")
	n := env.Nodes[1]
	n.CB = cache.NewBuffer(1)
	if env.HomeOf(0) == n.ID || env.HomeOf(1) == n.ID {
		t.Fatal("blocks 0 and 1 must be homed away from the storing node")
	}
	var seen [][]cache.Entry
	probe := choiceProbe(func() { seen = append(seen, slices.Clone(n.CB.Entries())) })
	if err := env.Net.SetExplorer(probe, []uint64{0, 1}); err != nil {
		t.Fatal(err)
	}
	for block := uint64(0); block < 2; block++ {
		n.Cache.Fill(block, cache.ReadWrite)
		n.commitWT(block, int(block)+2)
	}
	want := []cache.Entry{{Block: 1, Words: 1 << 3}}
	if len(seen) != 1 || !slices.Equal(seen[0], want) {
		t.Fatalf("buffer at the write-through's choice points = %v, want [%v]", seen, want)
	}
}

// TestInvalidationsStayQueuedWhileSent: an acquire's invalidation batch
// leaves its queue only once every notification is sent, so the state
// hash at each send's choice point holds the whole batch.
func TestInvalidationsStayQueuedWhileSent(t *testing.T) {
	env := testEnv(t, 2, "lrc")
	n := env.Nodes[1]
	var seen [][]uint64
	probe := choiceProbe(func() { seen = append(seen, slices.Clone(n.pendInv.order)) })
	if err := env.Net.SetExplorer(probe, []uint64{0, 1}); err != nil {
		t.Fatal(err)
	}
	for block := uint64(0); block < 2; block++ {
		n.Cache.Fill(block, cache.ReadOnly)
		n.pendInv.add(block)
	}
	n.processPendInv()
	if len(seen) != 2 || !slices.Equal(seen[0], []uint64{0, 1}) || !slices.Equal(seen[1], []uint64{0, 1}) {
		t.Fatalf("queue at the notifications' choice points = %v, want [[0 1] [0 1]]", seen)
	}
	if n.PendingInvals() != 0 || len(n.pendInv.in) != 0 {
		t.Fatalf("queue after the batch = %v, want empty", n.pendInv.order)
	}
	n.pendInv.add(0) // processed blocks may queue again
	if n.PendingInvals() != 1 {
		t.Fatalf("queue = %v after re-adding, want [0]", n.pendInv.order)
	}
}

func TestLockFreeWithoutHoldPanics(t *testing.T) {
	env := testEnv(t, 2, "sc")
	defer func() {
		if recover() == nil {
			t.Fatal("freeing an un-held lock did not panic")
		}
	}()
	handleSync(env.Nodes[0], mesh.Msg{Kind: int(MsgLockFree), Aux: 3, Src: 1}, 0)
}

func TestSyncGrantWithoutWaiterPanics(t *testing.T) {
	env := testEnv(t, 2, "sc")
	defer func() {
		if recover() == nil {
			t.Fatal("grant with no waiter did not panic")
		}
	}()
	handleSync(env.Nodes[0], mesh.Msg{Kind: int(MsgLockGrant), Aux: 3, Src: 1}, 0)
}

func TestNumMsgKindsMatchesNames(t *testing.T) {
	if NumMsgKinds() != len(msgNames) {
		t.Fatalf("NumMsgKinds = %d but %d names registered", NumMsgKinds(), len(msgNames))
	}
}

// TestHomeResidualSeesEagerMachinery: a stranded deferred request and a
// held copy-drop at an eager home are end-of-run errors (they used to be
// invisible: only the timestamp homes were checked).
func TestHomeResidualSeesEagerMachinery(t *testing.T) {
	home := testEnv(t, 2, "erc").Nodes[0]
	if err := home.HomeResidual(); err != nil {
		t.Fatalf("idle home: %v", err)
	}
	home.home.enter(req(1, MsgWriteReq, 4))
	home.home.enter(req(1, MsgReadReq, 4)) // deferred, never served
	err := home.HomeResidual()
	if err == nil || !strings.Contains(err.Error(), "block 4") || !strings.Contains(err.Error(), "waiting:1") {
		t.Fatalf("stranded request: HomeResidual = %v", err)
	}
	if !home.HomeBusy(4) {
		t.Error("block 4 in service but not HomeBusy")
	}

	home = testEnv(t, 2, "erc").Nodes[0]
	home.eager().held[6] = append(home.eager().held[6], heldDrop{src: 1})
	err = home.HomeResidual()
	if err == nil || !strings.Contains(err.Error(), "block 6") || !strings.Contains(err.Error(), "held") {
		t.Fatalf("held drop: HomeResidual = %v", err)
	}
}

// missRounds runs body on node 1's CPU once per round, after four warm-up
// rounds (directory entries, classifier tracks, maps, slabs, spare
// transaction records), and returns the objects a round allocates.
func missRounds(t *testing.T, env *Env, body func(n *Node)) float64 {
	t.Helper()
	n := env.Nodes[1]
	n.CPU = env.Eng.Spawn("cpu1", func(ctx *sim.Context) {
		for {
			body(n)
			ctx.Park("the next round")
		}
	})
	round := func() {
		if !n.CPU.Parked() {
			t.Fatalf("%s: round still running at cycle %d", n.Proto.Name(), env.Eng.Now())
		}
		n.CPU.Wake()
		env.Eng.RunUntil(env.Eng.Now() + 10_000)
	}
	env.Eng.RunUntil(10_000)
	for i := 0; i < 4; i++ {
		round()
	}
	return testing.AllocsPerRun(50, round)
}

// TestMissAllocatesNothing pins what a miss costs the allocator on a warmed
// 4-processor machine: nothing. The messages wait in the mesh's slab, the
// second halves in the environment's, the events carry slots, and the
// transaction record is a spare one. Node 1 alternates between two blocks
// that share a cache frame (both homed at node 0), so every access
// misses, evicts the other block and tells the home: a read miss is a
// request, a data reply, a fill and an eviction hint (or a silent drop);
// a write miss adds a dirty write-back or a coalescing-buffer drain with
// its acknowledgement, and under lrc-ext a deferred notice posted on
// eviction and at the release.
func TestMissAllocatesNothing(t *testing.T) {
	read := func(n *Node, block uint64) { n.Proto.CPURead(n, block, 0) }
	write := func(n *Node, block uint64) { n.Proto.CPUWrite(n, block, 0) }
	writeRelease := func(n *Node, block uint64) {
		n.Proto.CPUWrite(n, block, 0)
		n.Proto.Release(n) // returns once the write has performed
	}
	for _, c := range []struct {
		proto string
		miss  func(n *Node, block uint64)
	}{
		{"sc", write},
		{"erc", writeRelease},
		{"lrc", read},
		{"lrc-ext", writeRelease},
		{"tardis", read},
	} {
		env := testEnv(t, 4, c.proto)
		blocks := [2]uint64{0, uint64(env.Cfg.Lines())}
		if env.HomeOf(blocks[0]) != 0 || env.HomeOf(blocks[1]) != 0 {
			t.Fatalf("blocks %v are not both homed at node 0", blocks)
		}
		n := env.Nodes[1]
		var misses [stats.NumMissKinds]uint64
		got := missRounds(t, env, func(n *Node) {
			c.miss(n, blocks[0])
			c.miss(n, blocks[1])
		})
		if got != 0 {
			t.Errorf("%s: a round of two misses allocates %v objects, want 0", c.proto, got)
		}
		var delta uint64
		for k, v := range n.PS.Misses {
			delta += v - misses[k]
		}
		// The first round, four warm-ups and AllocsPerRun's 51.
		if delta != 2*56 {
			t.Errorf("%s: %d misses counted over 56 rounds, want 112", c.proto, delta)
		}
	}
}

// TestSyncAllocatesNothing: a synchronization operation re-arms its
// node's one wait gate, binds no grant callback, reads its stall label
// from the machine's cache and keeps its object's queues, so once warm it
// costs the allocator nothing. A round on node 1 is a lock acquire and
// release, a one-party barrier, a wait on a flag already set and a fence,
// each object homed at node 0.
func TestSyncAllocatesNothing(t *testing.T) {
	for _, proto := range Names() {
		env := testEnv(t, 4, proto)
		set := false
		got := missRounds(t, env, func(n *Node) {
			if !set {
				n.FlagSet(0, 3)
				set = true
			}
			n.LockAcquire(0, 1)
			n.LockRelease(0, 1)
			n.BarrierWait(0, 2, 1)
			n.FlagWait(0, 3)
			n.Fence()
		})
		if got != 0 {
			t.Errorf("%s: a round of synchronization allocates %v objects, want 0", proto, got)
		}
	}
}

// TestSyncStallLabels: a CPU parked in a synchronization wait names the
// object in the engine's deadlock report and in its causal stall span.
func TestSyncStallLabels(t *testing.T) {
	for _, c := range []struct {
		why  string
		wait func(n *Node)
	}{
		{"flag 7", func(n *Node) { n.FlagWait(0, 7) }},
		{"barrier 5", func(n *Node) { n.BarrierWait(0, 5, 2) }},
		{"lock 3 grant", func(n *Node) { n.LockAcquire(0, 3); n.LockAcquire(0, 3) }},
	} {
		for _, traced := range []bool{false, true} {
			env := testEnv(t, 2, "lrc")
			if traced {
				env.Causal = causal.New(0)
			}
			n := env.Nodes[1]
			n.CPU = env.Eng.Spawn("cpu1", func(*sim.Context) { c.wait(n) })
			if !traced {
				msg := func() (msg string) {
					defer func() { msg, _ = recover().(string) }()
					env.Eng.Run()
					return ""
				}()
				if !strings.HasSuffix(msg, "\n  cpu1: waiting for "+c.why) {
					t.Errorf("deadlock report %q does not name %q", msg, c.why)
				}
				continue
			}
			env.Eng.RunUntil(10_000)
			if st := env.Causal.OpenStalls(); len(st) != 1 || st[0].Why != c.why {
				t.Errorf("open stalls %+v, want one %q", st, c.why)
			}
		}
	}
}

// TestQueuedEagerHomeAllocatesNothing: an eager home that queues a
// requester behind a block in service reuses the queue's storage. Each
// round node 1 takes the block dirty (invalidating the other two
// readers), then nodes 2 and 3 read it in the same cycle: the first read
// is forwarded to the owner, which holds the block in service, and the
// second waits in the home's queue until the transfer commits.
func TestQueuedEagerHomeAllocatesNothing(t *testing.T) {
	env := testEnv(t, 4, "erc")
	home, block := env.Nodes[0], uint64(0)
	readers := []*Node{env.Nodes[2], env.Nodes[3]}
	for _, r := range readers {
		r.CPU = env.Eng.Spawn("reader", func(ctx *sim.Context) {
			for {
				ctx.Park("the next round")
				r.Proto.CPURead(r, block, 0)
			}
		})
	}
	queued := 0
	got := missRounds(t, env, func(n *Node) {
		n.Proto.CPUWrite(n, block, 0)
		n.Proto.Release(n)
		for _, r := range readers {
			r.CPU.Wake()
		}
	})
	if got != 0 {
		t.Errorf("a round allocates %v objects, want 0", got)
	}
	// One more round, stepped a cycle at a time, to see the queue.
	n := env.Nodes[1]
	n.CPU.Wake()
	for end := env.Eng.Now() + 10_000; env.Eng.Now() < end; {
		env.Eng.RunUntil(env.Eng.Now() + 1)
		queued = max(queued, len(home.home.q[block]))
	}
	if queued != 1 {
		t.Fatalf("%d requests queued behind the block in service, want 1", queued)
	}
}

// TestTxnOutlivesItsFinish: a record finished by a fill is not handed out
// again before the CPU it woke has read it. Node 1's load waits on its
// fill; a racing notice drops the copy the moment it lands, so only
// t.Filled tells the load it was satisfied. A store merged onto the fill
// retires in the same event, after the fill's finishTxn, and its write
// notice opens a new transaction for the block before the load resumes:
// had that reused the load's record, the load would find it unfilled and
// miss again.
func TestTxnOutlivesItsFinish(t *testing.T) {
	env := testEnv(t, 2, "lrc")
	n, block := env.Nodes[1], uint64(0)
	done := false
	n.CPU = env.Eng.Spawn("cpu1", func(ctx *sim.Context) {
		n.Proto.CPURead(n, block, 0)
		done = true
	})
	env.Eng.RunUntil(1)
	load := n.txn(block)
	if load == nil || !n.CPU.Parked() {
		t.Fatal("the load is not waiting on a transaction")
	}
	load.InvalidateOnFill = true
	n.WB.Put(block, 3)
	env.Eng.RunUntil(10_000)
	var misses uint64
	for _, v := range n.PS.Misses {
		misses += v
	}
	if !done || misses != 1 {
		t.Fatalf("load finished %v after %d misses, want true after 1", done, misses)
	}
	if n.OutstandingCount() != 0 || !n.WB.Empty() {
		t.Fatalf("node not quiescent:%s", n.Debug())
	}
}
