package mesh

import (
	"fmt"
	"testing"

	"lazyrc/internal/config"
	"lazyrc/internal/faults"
	"lazyrc/internal/fold"
	"lazyrc/internal/sim"
)

// The protocols are entitled to assume that the mesh never reorders two
// messages between the same (src, dst) pair — the FIFO guarantee of
// dimension-ordered routing. These property tests hammer that guarantee
// under everything that perturbs message timing: fault-injected jitter,
// duplication, and reorder holds, and model-checker exploration of
// delivery-delay choices combined with engine event-tie choices.

// delivery is one observed handler invocation.
// stamp is the transport's channel sequence number (Msg.Seq, 0 without
// an injector): with src it identifies a message and its duplicates.
type delivery struct {
	src, seq int
	stamp    uint64
}

// fifoWorkload drives a burst-heavy traffic pattern over every ordered
// node pair — mixed control/data sizes, same-cycle bursts, and staggered
// sends — and returns the per-destination delivery logs after the run.
func fifoWorkload(eng *sim.Engine, n *Network, procs int) [][]delivery {
	got := make([][]delivery, procs)
	for id := 0; id < procs; id++ {
		id := id
		n.Handle(id, func(m Msg) {
			got[id] = append(got[id], delivery{src: m.Src, seq: int(m.Arg), stamp: m.Seq})
		})
	}
	sizes := []int{0, 0, 32, 128}
	for src := 0; src < procs; src++ {
		for dst := 0; dst < procs; dst++ {
			if src == dst {
				continue
			}
			src, dst := src, dst
			seq := 0
			for burst := 0; burst < 4; burst++ {
				at := sim.Time(burst * 17)
				eng.At(at, func() {
					for i := 0; i < 3; i++ {
						n.Send(Msg{
							Src: src, Dst: dst,
							Size: sizes[(seq+i)%len(sizes)],
							Arg:  uint64(seq + i),
						})
					}
					seq += 3
				})
			}
		}
	}
	return got
}

// checkPairFIFO asserts that, per (src, dst) pair, first deliveries (the
// injector may duplicate; receivers deduplicate on (Src, Seq)) arrive in send
// order with none missing.
func checkPairFIFO(t *testing.T, got [][]delivery, procs int, label string) {
	t.Helper()
	for dst := range got {
		next := make([]int, procs) // expected seq per source
		seen := map[[2]uint64]bool{}
		for _, d := range got[dst] {
			id := [2]uint64{uint64(d.src), d.stamp}
			if d.stamp != 0 && seen[id] {
				continue // injected duplicate
			}
			seen[id] = true
			if d.seq != next[d.src] {
				t.Fatalf("%s: dst %d got seq %d from src %d, want %d — per-(src,dst) FIFO violated",
					label, dst, d.seq, d.src, next[d.src])
			}
			next[d.src]++
		}
		for src, n := range next {
			if src != dst && n != 12 {
				t.Errorf("%s: dst %d delivered %d/12 messages from src %d", label, dst, n, src)
			}
		}
	}
}

// TestInjectedFaultsPreserveFIFO: delay jitter, duplication, and reorder
// holds, across many seeds, never deliver two same-pair messages out of
// send order.
func TestInjectedFaultsPreserveFIFO(t *testing.T) {
	const procs = 4
	plan, err := faults.ParsePlan("delay=0.5:1:40,dup=0.3:24,reorder=0.5:32")
	if err != nil {
		t.Fatal(err)
	}
	var reordered, delayed, duped uint64
	for seed := uint64(1); seed <= 25; seed++ {
		eng := sim.NewEngine()
		n := New(eng, config.Default(procs))
		got := fifoWorkload(eng, n, procs)
		if err := n.SetInjector(faults.NewInjector(seed, plan)); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		checkPairFIFO(t, got, procs, fmt.Sprintf("seed %d", seed))
		r, d, u, _ := n.FaultStats()
		reordered += r
		delayed += d
		duped += u
	}
	// The property must not pass vacuously: the plan has to have fired.
	if reordered == 0 || delayed == 0 || duped == 0 {
		t.Fatalf("injector never exercised all fault classes: %d reordered, %d delayed, %d duplicated",
			reordered, delayed, duped)
	}
}

// lcgChooser answers choice points from a seeded linear congruential
// stream — a stand-in for the model checker's schedule enumeration that
// visits a different mix of delay picks and event-tie orders per seed.
type lcgChooser struct{ state uint64 }

func (c *lcgChooser) Choose(n int) int {
	c.state = c.state*6364136223846793005 + 1442695040888963407
	return int((c.state >> 33) % uint64(n))
}

// TestExplorerPreservesFIFO: arbitrary delivery-delay picks combined with
// arbitrary engine tie-break orders never violate per-(src,dst) FIFO.
// This pins the strict lastEntry floor in the explorer send path: two held
// messages on one channel must never share a network-entry timestamp, or
// the engine tie chooser could flip them.
func TestExplorerPreservesFIFO(t *testing.T) {
	const procs = 4
	for seed := uint64(1); seed <= 25; seed++ {
		eng := sim.NewEngine()
		n := New(eng, config.Default(procs))
		got := fifoWorkload(eng, n, procs)
		ch := &lcgChooser{state: seed}
		if err := n.SetExplorer(ch, []uint64{0, 1, 3, 9}); err != nil {
			t.Fatal(err)
		}
		eng.SetChooser(ch)
		eng.Run()
		checkPairFIFO(t, got, procs, fmt.Sprintf("chooser seed %d", seed))
	}
}

// TestExplorerInFlightDigestBalances: after every message has drained the
// in-flight multiset digest must return to the empty-set value, or state
// hashes of quiescent machines would depend on traffic history.
func TestExplorerInFlightDigestBalances(t *testing.T) {
	const procs = 4
	empty := func() fold.Bag {
		eng := sim.NewEngine()
		n := New(eng, config.Default(procs))
		ch := &lcgChooser{state: 7}
		if err := n.SetExplorer(ch, []uint64{0, 2}); err != nil {
			t.Fatal(err)
		}
		_ = eng
		return n.InFlightDigest()
	}()
	eng := sim.NewEngine()
	n := New(eng, config.Default(procs))
	fifoWorkload(eng, n, procs)
	ch := &lcgChooser{state: 7}
	if err := n.SetExplorer(ch, []uint64{0, 2}); err != nil {
		t.Fatal(err)
	}
	eng.SetChooser(ch)
	eng.Run()
	if got := n.InFlightDigest(); got != empty {
		t.Fatalf("drained network digest %v, want empty-set digest %v", got, empty)
	}
}
