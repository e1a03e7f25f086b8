package protocol

import (
	"slices"
	"strings"
	"testing"

	"lazyrc/internal/config"
	"lazyrc/internal/directory"
	"lazyrc/internal/mesh"
	"lazyrc/internal/sim"
	"lazyrc/internal/stats"
)

func TestRegistry(t *testing.T) {
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

func TestParse(t *testing.T) {
	all := []string{"sc", "erc", "lrc", "lrc-ext", "tardis", "tardis2"}
	if !slices.Equal(Names(), all) {
		t.Fatalf("Names() = %v, want %v", Names(), all)
	}
	for _, tc := range []struct {
		spec string
		want []string
	}{
		{"", all},
		{"all", all},
		{"lrc,all", all},
		{"lrc,lrc, lrc", []string{"lrc"}},
		{"tardis2,lrc,sc", []string{"sc", "lrc", "tardis2"}},
		{"lrc-ext, erc,,", []string{"erc", "lrc-ext"}},
	} {
		got, err := Parse(tc.spec)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("Parse(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}
	for _, spec := range []string{"mesi", "lrc,lrcext", "all,Lrc"} {
		_, err := Parse(spec)
		if err == nil {
			t.Errorf("Parse(%q) accepted an unknown protocol", spec)
			continue
		}
		for _, name := range all {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("Parse(%q): %q does not name %s", spec, err, name)
			}
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
	n.addPendInv(3)
	n.addPendInv(3)
	n.addPendInv(4)
	if len(n.pendInv) != 2 {
		t.Fatalf("pendInv = %v, want 2 unique entries", n.pendInv)
	}
}

func TestDelayedNoticeBookkeeping(t *testing.T) {
	env := testEnv(t, 1, "lrc-ext")
	n := env.Nodes[0]
	n.addDelayed(8)
	n.addDelayed(8)
	n.addDelayed(9)
	if len(n.delayed) != 2 {
		t.Fatalf("delayed = %v, want 2 unique entries", n.delayed)
	}
	n.removeDelayed(8)
	if len(n.delayed) != 1 || n.delayed[0] != 9 {
		t.Fatalf("delayed after remove = %v, want [9]", n.delayed)
	}
	n.removeDelayed(8) // absent: no-op
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
		{"tardis2", writeRelease},
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
