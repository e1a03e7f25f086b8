package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"lazyrc/internal/runner"
)

// TestReportBytesGolden pins both renderings of every committed report to
// the SHA-256 of the bytes the encoding/json encoder and the per-chart
// string builders wrote before reports were assembled from per-run
// fragments in one buffer. The JSON form of each is the file itself. The
// fragment cache serves the same bytes when it encodes each run and when
// it serves every run kept.
func TestReportBytesGolden(t *testing.T) {
	for _, c := range []struct{ file, json, html string }{
		{"BENCH_baseline.json", "d55d65ec5886721dda2ef91dc4d5d024d4d438270f0fa99a7b30fa69c704cc5e", "3b5ca27982cebc50d8eef02448743579e2910505fa922d2335a97b26c8ebb917"},
		{"BENCH_chaos.json", "b463fc6c7aa0f946f84b2aba6f2885b87e50b463b5bea6f673b342ecfb81c067", "a35102ce65c5a0685858a313eb47f2edd68714e2431f45cd69bb7424a2fc838b"},
		{"BENCH_studies.json", "ba46124cfcd80e0d258b84e386f647f7c93b5e0e216568c4079e94760384d07a", "138008ca1b495b856ec7f663098aa3b9b9d261930d5208518d43c2267fb3976f"},
	} {
		rep, err := LoadReport("../../" + c.file)
		if err != nil {
			t.Fatal(err)
		}
		sum := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
		var j, h bytes.Buffer
		if err := WriteReportJSON(&j, rep); err != nil {
			t.Fatal(err)
		}
		if err := WriteHTML(&h, rep); err != nil {
			t.Fatal(err)
		}
		if got := sum(j.Bytes()); got != c.json {
			t.Errorf("%s: report.json hashes to %s, want %s", c.file, got, c.json)
		}
		if got := sum(h.Bytes()); got != c.html {
			t.Errorf("%s: report.html hashes to %s, want %s", c.file, got, c.html)
		}
		// Each run as if Evaluator.Report had assembled it from a result.
		for i := range rep.Runs {
			rep.Runs[i].res = &runner.Result{}
		}
		var frags RunJSON
		for pass := range 2 {
			b, err := frags.AppendReport(nil, rep)
			if err != nil || sum(b) != c.json {
				t.Errorf("%s: cached pass %d hashes to %s (%v), want %s", c.file, pass, sum(b), err, c.json)
			}
		}
		if kept(&frags.memo) != len(rep.Runs) {
			t.Errorf("%s: %d fragments kept for %d runs", c.file, kept(&frags.memo), len(rep.Runs))
		}
	}
}

// kept counts a memo's entries.
func kept[K comparable, V any](c *memo[K, V]) (n int) {
	c.m.Range(func(any, any) bool { n++; return true })
	return n
}

// TestFailedFragmentIsNotKept: a run the encoder refuses answers with the
// encoder's error every time it is rendered, and keeps nothing; a
// canceled result, which the runner never memoizes, keeps nothing either.
func TestFailedFragmentIsNotKept(t *testing.T) {
	var frags RunJSON
	rep := Report{Scale: "tiny", Procs: 4, Runs: []ReportRun{
		{Config: "default", App: "fft", Protocol: "lrc", Verified: true, res: &runner.Result{}},
		{Config: "default", App: "gauss", Protocol: "lrc", Answer: []float64{math.NaN()}, res: &runner.Result{}},
	}}
	for range 2 {
		if _, err := frags.AppendReport(nil, rep); err == nil || !strings.Contains(err.Error(), "encoding report: json: unsupported value: NaN") {
			t.Fatalf("an unencodable run rendered (%v)", err)
		}
	}
	if kept(&frags.memo) != 1 {
		t.Fatalf("%d fragments kept, want only the encodable run's", kept(&frags.memo))
	}
	rep.Runs = []ReportRun{{Config: "default", App: "fft", Protocol: "lrc", res: &runner.Result{Canceled: true}}}
	if _, err := frags.AppendReport(nil, rep); err != nil || kept(&frags.memo) != 1 {
		t.Fatalf("a canceled result's run: %v, %d fragments kept", err, kept(&frags.memo))
	}
}

// FuzzReportJSON holds the fragment assembly, cached and not, to what
// encoding/json's indenting encoder writes for the same report, error
// included: escapes in strings (<>& and U+2028), −0, tiny and huge floats,
// nil against empty runs, miss shares and answers, and NaN, which has no
// JSON form.
func FuzzReportJSON(f *testing.F) {
	f.Add("tiny", 64, "<b>&amp; \u2028\u2029", "lrc", 1.25, 0.0, uint8(0x14), true)
	f.Add("small", -1, "", "sc", math.Copysign(0, -1), 5e-324, uint8(0xff), false)
	f.Add("\xff", 0, "x", "erc", 1e308, 1e-7, uint8(0x15), true)
	f.Add("paper", 7, "e", "lrc-ext", math.NaN(), 2.0, uint8(0x2a), false)
	f.Fuzz(func(t *testing.T, scale string, procs int, text, proto string, x, y float64, shape uint8, meta bool) {
		rep := Report{Scale: scale, Procs: procs}
		if meta {
			rep.Runner = &runner.Meta{Workers: procs, WallMS: int64(x)}
		}
		if shape&1 != 0 {
			rep.Runs = []ReportRun{}
		}
		for i := range int(shape>>1) % 4 {
			r := ReportRun{Config: text, App: scale, Protocol: proto, ExecCycles: uint64(i),
				Normalized: x, MissRatePct: y, Error: text, Verified: i%2 == 0, res: &runner.Result{}}
			switch (shape >> 3) % 3 {
			case 1:
				r.MissShares = map[string]float64{}
				r.Answer = []float64{}
			case 2:
				r.MissShares = map[string]float64{proto: x, text: y}
				r.Answer = []float64{y, x}
			}
			rep.Runs = append(rep.Runs, r)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		wantErr := enc.Encode(rep)
		var frags RunJSON
		for _, c := range []*RunJSON{nil, &frags, &frags} {
			got, err := c.AppendReport(nil, rep)
			if (err == nil) != (wantErr == nil) || err != nil && !strings.HasSuffix(err.Error(), wantErr.Error()) {
				t.Fatalf("error %v, encoder's %v", err, wantErr)
			}
			if err == nil && !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("assembled\n%s\nencoder wrote\n%s", got, want.Bytes())
			}
		}
	})
}
