package stats

import (
	"testing"
	"testing/quick"
)

func TestMissKindStrings(t *testing.T) {
	want := map[MissKind]string{
		Cold: "Cold", TrueShare: "True", FalseShare: "False",
		Eviction: "Eviction", WriteMiss: "Write",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestProcDerivedCounters(t *testing.T) {
	var p Proc
	p.Reads, p.Writes = 90, 10
	p.Misses[Cold] = 3
	p.Misses[TrueShare] = 2
	p.Misses[WriteMiss] = 5
	if p.Refs() != 100 {
		t.Fatalf("refs = %d", p.Refs())
	}
	if p.TotalMisses() != 10 {
		t.Fatalf("total misses = %d, want 10", p.TotalMisses())
	}
	p.CPU, p.ReadStall, p.WriteStall, p.SyncStall = 1, 2, 3, 4
	if p.BusyAndStall() != 10 {
		t.Fatalf("busy+stall = %d, want 10", p.BusyAndStall())
	}
}

func TestMachineAggregateAndRates(t *testing.T) {
	m := NewMachine(2)
	m.Procs[0] = Proc{CPU: 10, ReadStall: 5, WriteStall: 1, SyncStall: 2,
		Reads: 80, Writes: 20, FinishTime: 100}
	m.Procs[1] = Proc{CPU: 20, ReadStall: 1, WriteStall: 1, SyncStall: 1,
		Reads: 50, Writes: 50, FinishTime: 150}
	m.Procs[0].Misses[Cold] = 10
	m.Procs[1].Misses[FalseShare] = 10
	cpu, rd, wr, sy := m.Aggregate()
	if cpu != 30 || rd != 6 || wr != 2 || sy != 3 {
		t.Fatalf("aggregate = %d %d %d %d", cpu, rd, wr, sy)
	}
	if got := m.MissRate(); got != 20.0/200.0 {
		t.Fatalf("miss rate = %v", got)
	}
	shares := m.MissShares()
	if shares[Cold] != 0.5 || shares[FalseShare] != 0.5 {
		t.Fatalf("shares = %v", shares)
	}
	if m.ExecutionTime() != 150 {
		t.Fatalf("exec time = %d", m.ExecutionTime())
	}
}

func TestProcUtilization(t *testing.T) {
	var p Proc
	if p.Utilization() != 0 {
		t.Fatal("empty proc utilization nonzero")
	}
	p.CPU, p.ReadStall, p.WriteStall, p.SyncStall = 30, 40, 10, 20
	if got := p.Utilization(); got != 0.3 {
		t.Fatalf("utilization = %v, want 0.3", got)
	}
	p = Proc{CPU: 7}
	if got := p.Utilization(); got != 1.0 {
		t.Fatalf("stall-free utilization = %v, want 1", got)
	}
}

func TestMachineImbalance(t *testing.T) {
	m := NewMachine(4)
	if m.Imbalance() != 0 {
		t.Fatal("empty machine imbalance nonzero")
	}
	for i := range m.Procs {
		m.Procs[i].FinishTime = 100
	}
	if got := m.Imbalance(); got != 1.0 {
		t.Fatalf("balanced imbalance = %v, want 1", got)
	}
	// Finish times 100,100,100,200: max 200 over mean 125 = 1.6.
	m.Procs[3].FinishTime = 200
	if got := m.Imbalance(); got != 1.6 {
		t.Fatalf("imbalance = %v, want 1.6", got)
	}
}

func TestMissSharesEmpty(t *testing.T) {
	m := NewMachine(4)
	if m.MissRate() != 0 {
		t.Fatal("empty miss rate nonzero")
	}
	for _, s := range m.MissShares() {
		if s != 0 {
			t.Fatal("empty shares nonzero")
		}
	}
}

const wpl = 16 // words per 128-byte line

func TestClassifierColdAndEviction(t *testing.T) {
	c := NewClassifier(4, wpl)
	// First touch: cold.
	if k := c.Classify(0, 100, 0, false); k != Cold {
		t.Fatalf("first touch = %v, want Cold", k)
	}
	c.Fill(0, 100)
	// Lost to replacement: eviction.
	c.Lose(0, 100, LossEviction)
	if k := c.Classify(0, 100, 0, false); k != Eviction {
		t.Fatalf("after eviction = %v, want Eviction", k)
	}
}

func TestClassifierTrueVsFalseSharing(t *testing.T) {
	c := NewClassifier(4, wpl)
	c.Fill(0, 100)
	c.Fill(1, 100)
	// Proc 1 writes word 5; proc 0 is invalidated.
	c.CommitWrite(1, 100, 5)
	c.Lose(0, 100, LossCoherence)
	// Proc 0 re-misses touching word 5 → true sharing.
	if k := c.Classify(0, 100, 5, false); k != TrueShare {
		t.Fatalf("touch modified word = %v, want TrueShare", k)
	}
	// Touching an untouched word → false sharing.
	if k := c.Classify(0, 100, 2, false); k != FalseShare {
		t.Fatalf("touch unmodified word = %v, want FalseShare", k)
	}
}

func TestClassifierOwnWritesDoNotLookLikeTrueSharing(t *testing.T) {
	c := NewClassifier(4, wpl)
	c.Fill(0, 100)
	c.CommitWrite(0, 100, 3) // own write
	c.Fill(1, 100)
	c.CommitWrite(1, 100, 9) // other's write to word 9
	c.Lose(0, 100, LossCoherence)
	// Re-miss touching our own word 3: the version is newer than fillVer
	// but the writer was us → false sharing.
	if k := c.Classify(0, 100, 3, false); k != FalseShare {
		t.Fatalf("touch own word = %v, want FalseShare", k)
	}
}

func TestClassifierUpgradeIsWriteMiss(t *testing.T) {
	c := NewClassifier(4, wpl)
	c.Fill(0, 100)
	if k := c.Classify(0, 100, 0, true); k != WriteMiss {
		t.Fatalf("upgrade = %v, want WriteMiss", k)
	}
}

func TestClassifierRefillResetsWindow(t *testing.T) {
	c := NewClassifier(4, wpl)
	c.Fill(0, 100)
	c.CommitWrite(1, 100, 5)
	c.Lose(0, 100, LossCoherence)
	c.Fill(0, 100) // refetched: sees word 5's new value
	c.Lose(0, 100, LossCoherence)
	// No writes since refill → false sharing even on word 5.
	if k := c.Classify(0, 100, 5, false); k != FalseShare {
		t.Fatalf("after refill = %v, want FalseShare", k)
	}
}

func TestClassifierLoseInvalidIsNoop(t *testing.T) {
	c := NewClassifier(4, wpl)
	c.Fill(0, 100)
	c.Lose(0, 100, LossEviction)
	c.Lose(0, 100, LossCoherence) // stale notice after eviction
	if k := c.Classify(0, 100, 0, false); k != Eviction {
		t.Fatalf("loss reason overwritten: %v, want Eviction", k)
	}
}

func TestClassifierCategoriesAreTotalProperty(t *testing.T) {
	// Property: any interleaving of fills, losses, and writes yields a
	// defined category for every subsequent miss.
	type op struct {
		Proc  uint8
		Block uint8
		Word  uint8
		Kind  uint8
	}
	f := func(ops []op) bool {
		c := NewClassifier(8, wpl)
		for _, o := range ops {
			p, b, w := int(o.Proc)%8, uint64(o.Block%16), int(o.Word)%wpl
			switch o.Kind % 4 {
			case 0:
				c.Fill(p, b)
			case 1:
				c.Lose(p, b, LossEviction)
			case 2:
				c.Lose(p, b, LossCoherence)
			case 3:
				c.CommitWrite(p, b, w)
			}
			k := c.Classify(p, b, w, false)
			if k >= NumMissKinds || k == WriteMiss {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClassifierBlocks(t *testing.T) {
	c := NewClassifier(2, wpl)
	c.Fill(0, 1)
	c.Fill(0, 2)
	c.Fill(1, 1)
	if c.Blocks() != 2 {
		t.Fatalf("Blocks = %d, want 2", c.Blocks())
	}
}
