package telemetry

import (
	"bytes"
	"encoding/json"
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
	if h.Sum() != 1106 {
		t.Fatalf("sum = %d, want 1106", h.Sum())
	}
	if h.Min() != 0 || h.Max() != 1000 {
		t.Fatalf("min/max = %d/%d, want 0/1000", h.Min(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-1106.0/6) > 1e-9 {
		t.Fatalf("mean = %v", got)
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

func buildRegistry() *Registry {
	r := NewRegistry(100)
	r.SetMeta("app", "gauss")
	r.SetMeta("seed", "1")
	s := r.Series("stall.cpu", Delta)
	q := r.Series("wb.depth.000", Level)
	h := r.Histogram("net.lat.RdReq")
	for i := 1; i <= 5; i++ {
		s.Add(float64(i * 10))
		q.Set(float64(i % 3))
		h.Observe(uint64(i * 7))
		r.Sample(uint64(i * 100))
	}
	return r
}

func TestExportDigestDeterministic(t *testing.T) {
	d1 := buildRegistry().Digest()
	d2 := buildRegistry().Digest()
	if d1 == "" || d1 != d2 {
		t.Fatalf("digest not deterministic: %q vs %q", d1, d2)
	}
	// Registration order must not matter: build with names registered in a
	// different order.
	r := NewRegistry(100)
	r.SetMeta("seed", "1")
	r.SetMeta("app", "gauss")
	h := r.Histogram("net.lat.RdReq")
	q := r.Series("wb.depth.000", Level)
	s := r.Series("stall.cpu", Delta)
	for i := 1; i <= 5; i++ {
		s.Add(float64(i * 10))
		q.Set(float64(i % 3))
		h.Observe(uint64(i * 7))
		r.Sample(uint64(i * 100))
	}
	if d3 := r.Digest(); d3 != d1 {
		t.Fatalf("digest depends on registration order: %q vs %q", d3, d1)
	}
	// And data changes must change it.
	r2 := buildRegistry()
	r2.Histogram("net.lat.RdReq").Observe(9999)
	if r2.Digest() == d1 {
		t.Fatal("digest unchanged after extra observation")
	}
}

func TestExportValidateRoundtrip(t *testing.T) {
	r := buildRegistry()
	var buf bytes.Buffer
	if err := r.Export(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	hdr, err := Validate(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if hdr.Schema != SchemaVersion || hdr.Samples != 5 || hdr.Series != 2 || hdr.Hists != 1 {
		t.Fatalf("header = %+v", hdr)
	}
	if hdr.Meta["app"] != "gauss" {
		t.Fatalf("meta = %v", hdr.Meta)
	}

	loaded, _, err := load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	var buf2 bytes.Buffer
	if err := loaded.Export(&buf2); err != nil {
		t.Fatalf("re-export: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("export → load → export is not byte-identical")
	}
}

func TestValidateRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"wrong schema": `{"schema":"other-v9","interval":1,"samples":0,"series":0,"hists":0}` + "\n" + `{"kind":"times","cycles":[]}` + "\n",
		"no times":     `{"schema":"` + SchemaVersion + `","interval":1,"samples":0,"series":0,"hists":0}` + "\n",
		"series count mismatch": `{"schema":"` + SchemaVersion + `","interval":1,"samples":0,"series":2,"hists":0}` + "\n" +
			`{"kind":"times","cycles":[]}` + "\n",
		"point count mismatch": `{"schema":"` + SchemaVersion + `","interval":1,"samples":2,"series":1,"hists":0}` + "\n" +
			`{"kind":"times","cycles":[1,2]}` + "\n" +
			`{"kind":"series","name":"x","mode":"level","points":[1]}` + "\n",
		"non-increasing times": `{"schema":"` + SchemaVersion + `","interval":1,"samples":2,"series":0,"hists":0}` + "\n" +
			`{"kind":"times","cycles":[5,5]}` + "\n",
		"bucket sum mismatch": `{"schema":"` + SchemaVersion + `","interval":1,"samples":0,"series":0,"hists":1}` + "\n" +
			`{"kind":"times","cycles":[]}` + "\n" +
			`{"kind":"hist","name":"h","count":3,"sum":1,"min":1,"max":1,"buckets":[[1,1]],"p50":1,"p90":1,"p99":1}` + "\n",
	}
	for name, in := range cases {
		if _, err := Validate(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validate accepted bad input", name)
		}
	}
}

// dupInput is a valid two-sample export with extra appended.
func dupInput(extra string) string {
	return `{"schema":"` + SchemaVersion + `","interval":1,"samples":1,"series":1,"hists":1}` + "\n" +
		`{"kind":"times","cycles":[1]}` + "\n" +
		`{"kind":"series","name":"a","mode":"level","points":[1]}` + "\n" +
		`{"kind":"hist","name":"h","count":1,"sum":1,"min":1,"max":1,"buckets":[[1,1]],"p50":1,"p90":1,"p99":1}` + "\n" +
		extra
}

func TestValidateRejectsDuplicateSeries(t *testing.T) {
	if _, err := Validate(strings.NewReader(dupInput(""))); err != nil {
		t.Fatalf("the input without the duplicate: %v", err)
	}
	in := dupInput(`{"kind":"series","name":"a","mode":"delta","points":[2]}` + "\n")
	_, err := Validate(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 5") || !strings.Contains(err.Error(), `duplicate series "a"`) {
		t.Fatalf("Validate = %v, want the duplicate series at line 5", err)
	}
}

func TestValidateRejectsDuplicateHistogram(t *testing.T) {
	in := dupInput(`{"kind":"hist","name":"h","count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0}` + "\n")
	_, err := Validate(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 5") || !strings.Contains(err.Error(), `duplicate histogram "h"`) {
		t.Fatalf("Validate = %v, want the duplicate histogram at line 5", err)
	}
}

// TestSeriesStorage: points sampled across several chunks come back in
// order, -0 stays -0, and the series line is encoding/json's.
func TestSeriesStorage(t *testing.T) {
	r := NewRegistry(1)
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
	var a, b bytes.Buffer
	if err := r.Export(&a); err != nil {
		t.Fatal(err)
	}
	if err := refExport(r, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Export differs from encoding/json's bytes")
	}
}

// TestExportRefusesNonFinite: a point JSON cannot carry fails the export,
// as it fails encoding/json.
func TestExportRefusesNonFinite(t *testing.T) {
	r := NewRegistry(1)
	r.Series("x", Level).Set(math.Inf(1))
	r.Sample(1)
	if err := r.Export(&bytes.Buffer{}); err == nil {
		t.Fatal("exported +Inf")
	}
}

// FuzzAppendFloat: the series appender writes every finite float64 as
// json.Marshal does.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308,
		math.SmallestNonzeroFloat64, 1e-6, math.Nextafter(1e-6, 0), 1e-7, 9.99e-7, 1e21,
		math.Nextafter(1e21, 0), 1e20, 1 << 53, 1<<53 + 1, 1<<53 - 1, -(1<<53 + 1), 0.1, 123456789,
		math.MaxFloat64, -math.MaxFloat64, 1e-100, 1.5e300} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); string(got) != string(want) {
			t.Fatalf("appendFloat(%v) = %s, json.Marshal says %s", v, got, want)
		}
	})
}

// FuzzValidate: bytes Validate accepts reload and re-export as a fixed
// point, and every accepted line is one record of the export (a repeated
// series or histogram line used to be folded into the first silently).
func FuzzValidate(f *testing.F) {
	var buf bytes.Buffer
	if err := buildRegistry().Export(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(dupInput("")))
	f.Add([]byte(dupInput(`{"kind":"series","name":"a","mode":"delta","points":[2]}` + "\n")))
	f.Add([]byte(dupInput(`{"kind":"hist","name":"h","count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0}` + "\n")))
	f.Fuzz(func(t *testing.T, in []byte) {
		hdr, err := Validate(bytes.NewReader(in))
		if err != nil {
			return
		}
		lines := bytes.Count(in, []byte("\n"))
		if len(in) > 0 && in[len(in)-1] != '\n' {
			lines++
		}
		if want := 2 + hdr.Series + hdr.Hists; lines != want {
			t.Fatalf("accepted %d lines for %d series and %d histograms", lines, hdr.Series, hdr.Hists)
		}
		reg, _, err := load(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("Validate accepts what Load refuses: %v", err)
		}
		var once, twice bytes.Buffer
		if err := reg.Export(&once); err != nil {
			t.Fatalf("re-export: %v", err)
		}
		if _, err := Validate(bytes.NewReader(once.Bytes())); err != nil {
			t.Fatalf("the re-export does not validate: %v", err)
		}
		again, _, err := load(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := again.Export(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("export → load → export moved:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
	})
}

func TestWriteHTML(t *testing.T) {
	r := buildRegistry()
	// Add the series the report sections look for.
	for i, name := range []string{"stall.read", "stall.write", "stall.sync", "net.out_busy.000", "net.out_busy.001"} {
		s := r.Series(name, Delta)
		// Backfill points so lengths align with the 5 samples.
		for j := 0; j < 5; j++ {
			s.push(float64(i + j))
		}
	}
	var buf bytes.Buffer
	if err := r.WriteHTML(&buf, "test run"); err != nil {
		t.Fatalf("WriteHTML: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "test run", "Cycle breakdown", "Link utilization",
		"Latency quantiles", "net.lat.RdReq", "prefers-color-scheme: dark",
		"Data table", "<svg",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Self-contained: no external references.
	for _, banned := range []string{"http://", "https://", "<script", "src="} {
		if strings.Contains(out, banned) {
			t.Errorf("report contains external reference %q", banned)
		}
	}
	// Deterministic render.
	var buf2 bytes.Buffer
	if err := r.WriteHTML(&buf2, "test run"); err != nil {
		t.Fatalf("WriteHTML: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("HTML render not deterministic")
	}
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
	var b strings.Builder
	for i := -20000; i <= 20000; i++ {
		for _, v := range []float64{float64(i) / 100, float64(i)/100 + 0.005, float64(i)/1000 + 0.0005, float64(i) * 48.37} {
			for _, w := range []float64{v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1))} {
				b.Reset()
				Fixedf(&b, "x%.0f %.1f,%.2f|%.3f", w, w, w, w)
				if want := fmt.Sprintf("x%.0f %.1f,%.2f|%.3f", w, w, w, w); b.String() != want {
					t.Fatalf("Fixedf(%v) = %q, fmt says %q", w, b.String(), want)
				}
			}
		}
	}
}
