package perf

import (
	"path/filepath"
	"strings"
	"testing"
)

// The nil profiler is the disabled path: every hook must be a free no-op.
func TestNilProfilerIsNoOp(t *testing.T) {
	var p *Profiler
	p.Begin()
	prev := p.Enter(PhaseMesh)
	if prev != PhaseDispatch {
		t.Fatalf("nil Enter returned %v, want dispatch", prev)
	}
	p.Exit(prev)
	p.End(100, 200)
	if s := p.Snapshot(); s.WallNS != 0 || s.Cycles != 0 || s.Events != 0 {
		t.Fatalf("nil profiler produced a non-zero snapshot: %+v", s)
	}
}

func TestNilProfilerZeroAlloc(t *testing.T) {
	var p *Profiler
	allocs := testing.AllocsPerRun(1000, func() {
		prev := p.Enter(PhaseProtocol)
		p.Exit(prev)
	})
	if allocs != 0 {
		t.Fatalf("nil Enter/Exit allocates %.1f objects per run, want 0", allocs)
	}
}

func TestEnabledProfilerZeroAllocHotPath(t *testing.T) {
	p := New()
	p.Begin()
	allocs := testing.AllocsPerRun(1000, func() {
		prev := p.Enter(PhaseProtocol)
		p.Exit(prev)
	})
	if allocs != 0 {
		t.Fatalf("enabled Enter/Exit allocates %.1f objects per run, want 0", allocs)
	}
}

// Every nanosecond measured must land in exactly one phase: the phase
// breakdown sums to the wall time regardless of nesting pattern.
func TestPhaseAccountingSumsToWall(t *testing.T) {
	p := New()
	p.Begin()
	for i := 0; i < 100; i++ {
		a := p.Enter(PhaseMesh)
		b := p.Enter(PhaseProtocol) // nested switch
		c := p.Enter(PhaseDirectory)
		p.Exit(c)
		p.Exit(b)
		p.Exit(a)
	}
	bg := p.Enter(PhaseBackground)
	p.Exit(bg)
	p.End(1000, 500)

	s := p.Snapshot()
	var sum int64
	for _, ns := range s.Phases {
		sum += ns
	}
	if sum != s.WallNS {
		t.Fatalf("phase sum %d != wall %d", sum, s.WallNS)
	}
	if s.Cycles != 1000 || s.Events != 500 {
		t.Fatalf("throughput denominators not recorded: %+v", s)
	}
	if s.WallNS > 0 && s.CyclesPerSec <= 0 {
		t.Fatalf("cycles/sec not computed: %+v", s)
	}
}

func TestEndIsIdempotent(t *testing.T) {
	p := New()
	p.Begin()
	p.End(10, 20)
	first := p.Snapshot()
	p.End(999, 999) // must not re-measure
	if second := p.Snapshot(); second.Cycles != first.Cycles || second.WallNS != first.WallNS {
		t.Fatalf("second End re-measured: %+v vs %+v", second, first)
	}
}

func TestSnapshotAdd(t *testing.T) {
	a := Snapshot{WallNS: 1e9, Cycles: 100, Events: 10,
		Phases: map[string]int64{"mesh": 5e8}, Allocs: 7, AllocBytes: 70, GCCycles: 1}
	b := Snapshot{WallNS: 1e9, Cycles: 300, Events: 30,
		Phases: map[string]int64{"mesh": 1e8, "protocol": 2e8}, Allocs: 3, AllocBytes: 30}
	a.Add(b)
	if a.WallNS != 2e9 || a.Cycles != 400 || a.Events != 40 {
		t.Fatalf("totals wrong: %+v", a)
	}
	if a.CyclesPerSec != 200 {
		t.Fatalf("cycles/sec not recomputed from totals: %v", a.CyclesPerSec)
	}
	if a.Phases["mesh"] != 6e8 || a.Phases["protocol"] != 2e8 {
		t.Fatalf("phase merge wrong: %v", a.Phases)
	}
	if a.Allocs != 10 || a.AllocBytes != 100 || a.GCCycles != 1 {
		t.Fatalf("allocator merge wrong: %+v", a)
	}
}

func TestTableRendersAllPhases(t *testing.T) {
	s := Snapshot{WallNS: 2e9, Cycles: 1e6, Events: 5e5, CyclesPerSec: 5e5,
		Phases: map[string]int64{"dispatch": 1e9, "mesh": 5e8, "membus": 5e8}}
	out := s.Table()
	for _, want := range []string{"dispatch", "mesh", "membus", "simulated cycles", "gc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestTrendRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trend.json")

	// Missing file bootstraps an empty trend for the pinning.
	tr, err := LoadTrend(path, "tiny", 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Entries) != 0 || tr.Scale != "tiny" || tr.Procs != 64 {
		t.Fatalf("bootstrap trend wrong: %+v", tr)
	}

	cells := []TrendCell{
		{App: "gauss", Proto: "lrc", Cycles: 1000, WallNS: 1e6, CyclesPerSec: 1e9},
		{App: "fft", Proto: "sc", Cycles: 2000, WallNS: 2e6, CyclesPerSec: 1e9},
	}
	tr.Entries = append(tr.Entries, NewEntry("2026-08-08T00:00:00Z", cells))
	if err := SaveTrend(path, tr); err != nil {
		t.Fatal(err)
	}

	back, err := LoadTrend(path, "tiny", 64)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := back.Latest()
	if !ok || len(e.Cells) != 2 {
		t.Fatalf("round trip lost cells: %+v", back)
	}
	// NewEntry sorts cells (app, proto) for stable committed diffs.
	if e.Cells[0].App != "fft" || e.Cells[1].App != "gauss" {
		t.Fatalf("cells not sorted: %+v", e.Cells)
	}
}

func TestGateTrend(t *testing.T) {
	base := NewEntry("2026-08-08T00:00:00Z", []TrendCell{
		{App: "gauss", Proto: "lrc", CyclesPerSec: 1000},
		{App: "fft", Proto: "sc", CyclesPerSec: 2000},
	})

	// Within tolerance and faster both pass.
	ok := []TrendCell{
		{App: "gauss", Proto: "lrc", CyclesPerSec: 910}, // -9% < 10%
		{App: "fft", Proto: "sc", CyclesPerSec: 9000},   // faster is always fine
	}
	if v := GateTrend(base, ok, 10); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}

	// Beyond tolerance fails, missing cell fails, extra cell passes free.
	bad := []TrendCell{
		{App: "gauss", Proto: "lrc", CyclesPerSec: 500}, // -50%
		{App: "blu", Proto: "erc", CyclesPerSec: 1},     // not in baseline
	}
	v := GateTrend(base, bad, 10)
	if len(v) != 2 {
		t.Fatalf("want 2 violations (regression + missing), got %v", v)
	}
	joined := strings.Join(v, "\n")
	if !strings.Contains(joined, "gauss/lrc") || !strings.Contains(joined, "fft/sc") {
		t.Fatalf("violations missing expected cells: %v", v)
	}

	// Zero tolerance: any slowdown fails.
	if v := GateTrend(base, []TrendCell{
		{App: "gauss", Proto: "lrc", CyclesPerSec: 999.9},
		{App: "fft", Proto: "sc", CyclesPerSec: 2000},
	}, 0); len(v) != 1 {
		t.Fatalf("zero tolerance should flag any slowdown, got %v", v)
	}
}

func TestLoadTrendRejectsWrongVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trend.json")
	if err := SaveTrend(path, &Trend{Version: "bogus-v9", Scale: "tiny", Procs: 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrend(path, "tiny", 64); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestWriteHTML(t *testing.T) {
	cells := []CellPerf{
		{App: "gauss", Proto: "lrc", Snap: Snapshot{WallNS: 1e9, Cycles: 1e6, CyclesPerSec: 1e6,
			Phases: map[string]int64{"dispatch": 6e8, "mesh": 4e8}}},
		{App: "fft", Proto: "sc", Snap: Snapshot{WallNS: 2e9, Cycles: 2e6, CyclesPerSec: 1e6,
			Phases: map[string]int64{"dispatch": 1e9, "protocol": 1e9}}},
	}
	trend := &Trend{Version: trendVersion, Scale: "tiny", Procs: 64,
		Entries: []TrendEntry{NewEntry("2026-08-08T00:00:00Z", []TrendCell{
			{App: "gauss", Proto: "lrc", CyclesPerSec: 1e6},
		})}}
	var b strings.Builder
	if err := WriteHTML(&b, "test", cells, trend); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"<html", "gauss", "Throughput by cell", "phase breakdown", "trend"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}
