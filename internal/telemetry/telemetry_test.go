package telemetry

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram("lat")
	for _, v := range []uint64{0, 1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.sum != 1106 {
		t.Fatalf("sum = %d, want 1106", h.sum)
	}
	if h.min != 0 || h.Max() != 1000 {
		t.Fatalf("min/max = %d/%d, want 0/1000", h.min, h.Max())
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram("empty")
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("Quantile(%v) on empty = %v, want 0", q, got)
		}
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Fatalf("nil Quantile = %v, want 0", got)
	}
}

func TestHistogramQuantileSingleBucket(t *testing.T) {
	// All samples identical: every quantile must report exactly that value
	// (the clamp to [min,max] guarantees it despite bucket width).
	h := NewHistogram("one")
	for i := 0; i < 100; i++ {
		h.Observe(37)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got := h.Quantile(q); got != 37 {
			t.Fatalf("Quantile(%v) = %v, want 37", q, got)
		}
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	h := NewHistogram("spread")
	for v := uint64(1); v <= 1024; v++ {
		h.Observe(v)
	}
	p50, p90, p99 := h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99)
	if !(p50 <= p90 && p90 <= p99) {
		t.Fatalf("quantiles not monotone: p50=%v p90=%v p99=%v", p50, p90, p99)
	}
	// p50 of 1..1024 lives in bucket [512, 1023]; a log₂ histogram can't be
	// precise, but it must land in a plausible band.
	if p50 < 256 || p50 > 768 {
		t.Fatalf("p50 = %v, expected within [256, 768]", p50)
	}
	if p99 < 900 || p99 > 1024 {
		t.Fatalf("p99 = %v, expected within [900, 1024]", p99)
	}
}

func TestDisabledPathZeroAllocs(t *testing.T) {
	var (
		h *Histogram
		s *Series
		r *Registry
	)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(42)
		s.Set(1)
		s.Add(2)
		r.Retain(true)
		r.Sample(100)
		r.Histogram("x").Observe(1)
		r.Series("y", Delta).Add(1)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates: %v allocs/op", allocs)
	}
}

func TestSeriesLevelVsDelta(t *testing.T) {
	r := NewRegistry(10)
	r.Retain(true)
	lvl := r.Series("depth", Level)
	del := r.Series("msgs", Delta)

	lvl.Set(3)
	del.Add(5)
	r.Sample(10)
	lvl.Set(7)
	del.Add(2)
	r.Sample(20)
	r.Sample(20) // duplicate timestamp: ignored
	lvl.Set(1)
	r.Sample(30)

	if got := r.Samples(); got != 3 {
		t.Fatalf("samples = %d, want 3", got)
	}
	wantLvl := []float64{3, 7, 1}
	wantDel := []float64{5, 2, 0}
	for i := range wantLvl {
		if lvl.Points()[i] != wantLvl[i] {
			t.Fatalf("level pts = %v, want %v", lvl.Points(), wantLvl)
		}
		if del.Points()[i] != wantDel[i] {
			t.Fatalf("delta pts = %v, want %v", del.Points(), wantDel)
		}
	}
}

func TestRegistryOnSample(t *testing.T) {
	r := NewRegistry(5)
	r.Retain(true)
	g := r.Series("gauge", Level)
	v := 0.0
	r.OnSample(func() { g.Set(v) })
	v = 11
	r.Sample(5)
	v = 22
	r.Sample(10)
	pts := g.Points()
	if len(pts) != 2 || pts[0] != 11 || pts[1] != 22 {
		t.Fatalf("gauge pts = %v, want [11 22]", pts)
	}
}

func TestSeriesModeFirstRegistrationWins(t *testing.T) {
	r := NewRegistry(1)
	a := r.Series("x", Delta)
	b := r.Series("x", Level)
	if a != b {
		t.Fatal("same name returned distinct series")
	}
	if b.Mode() != Delta {
		t.Fatalf("mode = %v, want Delta", b.Mode())
	}
}

// buildRegistry samples five ticks of a delta series, two level series
// and a histogram; change, when not nil, runs before each tick is taken
// and may alter what it records.
func buildRegistry(retain bool, change func(r *Registry, tick int, stamp *uint64)) *Registry {
	r := NewRegistry(100)
	r.Retain(retain)
	r.SetMeta("app", "gauss")
	r.SetMeta("seed", "1")
	s := r.Series("stall.cpu", Delta)
	q0 := r.Series("wb.depth.000", Level)
	q1 := r.Series("wb.depth.001", Level)
	h := r.Histogram("net.lat.RdReq")
	for i := 1; i <= 5; i++ {
		s.Add(float64(i * 10))
		q0.Set(float64(i % 3))
		q1.Set(float64(i % 4))
		h.Observe(uint64(i * 7))
		stamp := uint64(i * 100)
		if change != nil {
			change(r, i, &stamp)
		}
		r.Sample(stamp)
	}
	return r
}

// TestRetainedAndDigestOnlyAgree: a registry that stores its points and
// one that only folds them digest the same ticks identically, and Digest
// leaves the registry as it was.
func TestRetainedAndDigestOnlyAgree(t *testing.T) {
	kept, folded := buildRegistry(true, nil), buildRegistry(false, nil)
	d := folded.Digest()
	if kept.Digest() != d || folded.Digest() != d {
		t.Fatalf("digests %q (retained), %q then %q (digest-only)", kept.Digest(), d, folded.Digest())
	}
	if hash, ok := strings.CutPrefix(d, "5-"); !ok || len(hash) != 16 {
		t.Fatalf("digest %q is not <samples>-<16 hex>", d)
	}
	if folded.Samples() != 5 || folded.Times() != nil || folded.SeriesByName("stall.cpu").Points() != nil {
		t.Fatalf("digest-only registry: %d samples, stored %v and %v",
			folded.Samples(), folded.Times(), folded.SeriesByName("stall.cpu").Points())
	}
	if len(kept.Times()) != 5 || len(kept.SeriesByName("wb.depth.001").Points()) != 5 {
		t.Fatalf("retaining registry stored %v and %v", kept.Times(), kept.SeriesByName("wb.depth.001").Points())
	}
}

// TestDigestSeesEveryChange: any one change to what a run samples or
// observes changes its digest.
func TestDigestSeesEveryChange(t *testing.T) {
	base := buildRegistry(false, nil).Digest()
	changes := map[string]func(r *Registry, tick int, stamp *uint64){
		"one point": func(r *Registry, tick int, _ *uint64) {
			if tick == 3 {
				r.SeriesByName("wb.depth.000").Add(1)
			}
		},
		"one tick stamp": func(_ *Registry, tick int, stamp *uint64) {
			if tick == 4 {
				*stamp++
			}
		},
		"two series' values swapped": func(r *Registry, tick int, _ *uint64) {
			if tick == 3 { // 0 and 3
				r.SeriesByName("wb.depth.000").Set(3)
				r.SeriesByName("wb.depth.001").Set(0)
			}
		},
		"one meta value": func(r *Registry, tick int, _ *uint64) {
			if tick == 5 {
				r.SetMeta("seed", "2")
			}
		},
		"one histogram observation": func(r *Registry, tick int, _ *uint64) {
			if tick == 1 {
				r.Histogram("net.lat.RdReq").Observe(7)
			}
		},
	}
	for name, change := range changes {
		if d := buildRegistry(false, change).Digest(); d == base {
			t.Errorf("%s: digest unchanged (%s)", name, d)
		}
	}
}

// TestSampleAllocatesNothing is the observer's memory budget as a test:
// after its first tick, a digest-only registry of the 64-processor
// machine's shape (332 series: five per node, twelve machine-wide) takes
// a sample without allocating.
func TestSampleAllocatesNothing(t *testing.T) {
	r := NewRegistry(4096)
	series := make([]*Series, 5*64+12)
	for i := range series {
		series[i] = r.Series(fmt.Sprintf("s.%03d", i), Mode(i%2))
	}
	now := uint64(0)
	tick := func() {
		now += 4096
		for i, s := range series {
			s.Set(float64(now) + float64(i))
		}
		r.Sample(now)
	}
	tick()
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Fatalf("Sample allocates %v times per tick", allocs)
	}
}

// TestSeriesStorage: a retaining registry's points, sampled across
// several chunks, come back in order, and -0 stays -0.
func TestSeriesStorage(t *testing.T) {
	r := NewRegistry(1)
	r.Retain(true)
	s := r.Series("x", Level)
	var want []float64
	for i := 0; i < 3000; i++ {
		v := float64(i % 7)
		switch {
		case i%500 < 100:
			v = 0 // long zero runs
		case i%11 == 0:
			v = math.Copysign(0, -1)
		case i%13 == 0:
			v = 1e-7 * float64(i)
		}
		s.Set(v)
		r.Sample(uint64(i + 1))
		want = append(want, v)
	}
	got := s.Points()
	if len(got) != len(want) {
		t.Fatalf("%d points, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("point %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// FuzzAppendFloat: every float64 a tick appends to a series — zeros of
// both signs, subnormals, extremes, NaN payloads — is stored bit for bit
// by a retaining registry, folded to the same digest by a digest-only
// one, and told apart from the value one bit away.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308,
		math.SmallestNonzeroFloat64, 1e-6, math.Nextafter(1e-6, 0), 1e-7, 9.99e-7, 1e21,
		math.Nextafter(1e21, 0), 1e20, 1 << 53, 1<<53 + 1, 1<<53 - 1, -(1<<53 + 1), 0.1, 123456789,
		math.MaxFloat64, -math.MaxFloat64, 1e-100, 1.5e300} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		sample := func(retain bool, bits uint64) *Registry {
			r := NewRegistry(1)
			r.Retain(retain)
			r.Series("x", Level).Set(math.Float64frombits(bits))
			r.Sample(1)
			return r
		}
		kept, folded := sample(true, bits), sample(false, bits)
		if pts := kept.SeriesByName("x").Points(); len(pts) != 1 || math.Float64bits(pts[0]) != bits {
			t.Fatalf("appended %#x, stored %v", bits, pts)
		}
		if kept.Digest() != folded.Digest() {
			t.Fatalf("%#x: digests %q (retained), %q (digest-only)", bits, kept.Digest(), folded.Digest())
		}
		if sample(false, bits^1).Digest() == folded.Digest() {
			t.Fatalf("%#x and %#x digest alike", bits, bits^1)
		}
	})
}

func BenchmarkObserveEnabled(b *testing.B) {
	h := NewHistogram("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

func BenchmarkObserveDisabled(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

// FuzzFixed: the report's number appender prints what fmt prints, byte
// for byte, at every precision it serves fast (0–6) — ties, negative
// zero, NaN, infinities and magnitudes past its integer path included.
func FuzzFixed(f *testing.F) {
	for _, v := range []float64{0.05, 0.15, 2.675, 1e-7, math.Copysign(0, -1), math.NaN(),
		math.Inf(1), math.Inf(-1), 1e300, -0.05, -2.5, -1234.5678, 0.5, 1.5, 999999999.5, 42} {
		for prec := uint8(0); prec <= 3; prec++ {
			f.Add(v, prec)
		}
	}
	f.Fuzz(func(t *testing.T, v float64, prec uint8) {
		p := int(prec % 7)
		if got, want := string(AppendFixed(nil, v, p)), fmt.Sprintf("%.*f", p, v); got != want {
			t.Fatalf("AppendFixed(%v, %d) = %q, fmt says %q", v, p, got, want)
		}
	})
}

// TestFixedMatchesFmt sweeps the values a chart actually formats — a
// coordinate grid in tenths and hundredths, each nudged onto and off its
// .5 ties — through Fixedf against fmt.Sprintf.
func TestFixedMatchesFmt(t *testing.T) {
	var b []byte
	for i := -20000; i <= 20000; i++ {
		for _, v := range []float64{float64(i) / 100, float64(i)/100 + 0.005, float64(i)/1000 + 0.0005, float64(i) * 48.37} {
			for _, w := range []float64{v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1))} {
				b = Fixedf(b[:0], "x%.0f %.1f,%.2f|%.3f", w, w, w, w)
				if want := fmt.Sprintf("x%.0f %.1f,%.2f|%.3f", w, w, w, w); string(b) != want {
					t.Fatalf("Fixedf(%v) = %q, fmt says %q", w, b, want)
				}
			}
		}
	}
}
