package obs

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestExpositionRoundTrip is the format contract: everything the writer
// emits — counters, labeled gauges with escapes, histograms — parses
// back through the strict parser with the same values.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "Events seen.")
	c.Add(41)
	c.Inc()
	g := r.GaugeVec("test_depth", "Depth by lane.", "lane")
	g.With("a").Set(3)
	g.With(`we"ird\lane` + "\n").Set(-2.5)
	r.GaugeFunc("test_fn", "Func-backed.", func() float64 { return 7 })
	h := r.HistogramVec("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1}).With()
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	if f := fams["test_events_total"]; f == nil || f.Kind != KindCounter || f.Samples[0].Value != 42 {
		t.Fatalf("counter round-trip: %+v", f)
	}
	depth := fams["test_depth"]
	if depth == nil || len(depth.Samples) != 2 {
		t.Fatalf("gauge vec round-trip: %+v", depth)
	}
	found := false
	for _, s := range depth.Samples {
		if s.Label("lane") == `we"ird\lane`+"\n" && s.Value == -2.5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("escaped label value lost:\n%s", text)
	}
	if f := fams["test_fn"]; f == nil || f.Samples[0].Value != 7 {
		t.Fatalf("func gauge round-trip: %+v", f)
	}

	hist := fams["test_latency_seconds"]
	if hist == nil || hist.Kind != KindHistogram {
		t.Fatalf("histogram family missing:\n%s", text)
	}
	// The parser already enforced cumulative buckets and +Inf==count;
	// verify the actual counts landed in the right buckets.
	wantBuckets := map[string]float64{"0.01": 1, "0.1": 3, "1": 4, "+Inf": 5}
	for _, s := range hist.Samples {
		if strings.HasSuffix(s.Name, "_bucket") {
			if want, ok := wantBuckets[s.Label("le")]; ok && s.Value != want {
				t.Fatalf("bucket le=%s = %g, want %g", s.Label("le"), s.Value, want)
			}
		}
		if strings.HasSuffix(s.Name, "_sum") && math.Abs(s.Value-5.605) > 1e-9 {
			t.Fatalf("sum %g, want 5.605", s.Value)
		}
	}
}

// TestExpositionDeterministic: two scrapes of an unchanged registry are
// byte-identical (families and samples sorted, no map-order leakage).
func TestExpositionDeterministic(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("a_total", "A.", "k")
	for _, k := range []string{"z", "m", "a", "q"} {
		v.With(k).Inc()
	}
	r.GaugeVec("b", "B.").With().Set(1)
	var one, two bytes.Buffer
	r.WriteExposition(&one)
	r.WriteExposition(&two)
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatalf("scrapes differ:\n%s\n---\n%s", one.String(), two.String())
	}
	// Label-sorted: "a" before "m" before "q" before "z".
	text := one.String()
	if strings.Index(text, `k="a"`) > strings.Index(text, `k="z"`) {
		t.Fatalf("samples not sorted:\n%s", text)
	}
}

// TestParserRejectsViolations: the parser is strict enough to be a
// format oracle.
func TestParserRejectsViolations(t *testing.T) {
	bad := []string{
		"no_type_line 1",                         // sample before TYPE
		"# TYPE x counter\nx{l=unquoted} 1",      // unquoted label
		"# TYPE x counter\nx 1e",                 // bad value
		"# TYPE x wat\n",                         // unknown kind
		"# TYPE 0bad counter\n0bad 1",            // bad name
		"# TYPE x counter\nx{l=\"a\",l=\"b\"} 1", // duplicate label
		// Histogram without +Inf.
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\nh_sum 1",
		// Non-cumulative buckets.
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\nh_sum 1",
		// +Inf disagrees with count.
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 4\nh_sum 1",
	}
	for _, text := range bad {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("parser accepted:\n%s", text)
		}
	}
}

// FuzzParseExposition: ParseExposition survives any bytes (it reads the
// live /metrics endpoint in tests, and a format oracle that panics is no
// oracle), and the writer's output for a registry built from fuzzed
// label values and sample values parses back with every value intact.
//
//	go test ./internal/obs -run '^$' -fuzz FuzzParseExposition -fuzztime 10s
func FuzzParseExposition(f *testing.F) {
	f.Add("# TYPE x counter\nx 1\n", "a", `we"ird\lane`+"\n", -2.5, 0.05)
	f.Add("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 3\nh_sum 1", "", "", math.Inf(1), math.NaN())
	f.Add("# TYPE x counter\nx{l=\"a\\", "}", "\\\"", 1e300, -0.0)
	f.Fuzz(func(t *testing.T, text, a, b string, gauge, observed float64) {
		ParseExposition(strings.NewReader(text))

		r := NewRegistry()
		r.GaugeVec("fuzz_level", "Fuzzed gauge.", "a", "b").With(a, b).Set(gauge)
		r.HistogramVec("fuzz_seconds", "Fuzzed histogram.", []float64{0.1, 1}, "a").With(b).Observe(observed)
		var buf bytes.Buffer
		if err := r.WriteExposition(&buf); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseExposition(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
		}
		same := func(x, y float64) bool { return x == y || math.IsNaN(x) && math.IsNaN(y) }
		level := fams["fuzz_level"]
		if level == nil || len(level.Samples) != 1 {
			t.Fatalf("gauge family: %+v\n%s", level, buf.String())
		}
		if s := level.Samples[0]; s.Label("a") != a || s.Label("b") != b || !same(s.Value, gauge) {
			t.Fatalf("gauge reads back as %+v, wrote a=%q b=%q %v", s, a, b, gauge)
		}
		hist := fams["fuzz_seconds"]
		if hist == nil || len(hist.Samples) != 5 {
			t.Fatalf("histogram family: %+v\n%s", hist, buf.String())
		}
		for _, s := range hist.Samples {
			want := 1.0
			switch {
			case s.Name == "fuzz_seconds_sum":
				want = observed
			case s.Name == "fuzz_seconds_bucket" && s.Label("le") == "0.1" && !(observed <= 0.1),
				s.Name == "fuzz_seconds_bucket" && s.Label("le") == "1" && !(observed <= 1):
				want = 0
			}
			if s.Label("a") != b || !same(s.Value, want) {
				t.Fatalf("histogram sample %+v, want a=%q value %v", s, b, want)
			}
		}
	})
}

func TestCounterRefusesDecrease(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter went down: %g", c.Value())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x_total", "")
	r.Counter("x_total", "")
}

// TestMiddleware: request IDs are accepted/generated/echoed, metrics
// land under the route label, and the request log line carries the ID.
func TestMiddleware(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, "t")
	var logBuf syncBuffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))

	mux := http.NewServeMux()
	var seenCtxID string
	mux.HandleFunc("GET /hello/{name}", func(w http.ResponseWriter, r *http.Request) {
		seenCtxID = RequestID(r.Context())
		fmt.Fprint(w, "hi")
	})
	mux.HandleFunc("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusInternalServerError)
	})
	route := func(r *http.Request) string {
		_, pat := mux.Handler(r)
		if pat == "" {
			return "unrouted"
		}
		return pat
	}
	srv := httptest.NewServer(m.Middleware(mux, route, logger))
	defer srv.Close()

	// Client-supplied ID is sanitized, attached to the context, echoed.
	req, _ := http.NewRequest("GET", srv.URL+"/hello/world", nil)
	req.Header.Set(RequestIDHeader, "my-id-123 evil?x")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "my-id-123evilx" {
		t.Fatalf("echoed id %q", got)
	}
	if seenCtxID != "my-id-123evilx" {
		t.Fatalf("context id %q", seenCtxID)
	}

	// Absent ID: one is generated.
	resp, err = http.Get(srv.URL + "/hello/again")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); len(got) != 16 {
		t.Fatalf("generated id %q", got)
	}

	// An error response lands in the 5xx class.
	resp, err = http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if got := m.Requests.With("GET /hello/{name}", "2xx").Value(); got != 2 {
		t.Fatalf("2xx count for route = %g, want 2", got)
	}
	if got := m.Requests.With("GET /boom", "5xx").Value(); got != 1 {
		t.Fatalf("5xx count = %g, want 1", got)
	}
	if got := m.Duration.With("GET /hello/{name}").Count(); got != 2 {
		t.Fatalf("latency observations = %d, want 2", got)
	}
	if got := m.InFlight.With("GET /boom").Value(); got != 0 {
		t.Fatalf("in-flight after completion = %g", got)
	}
	if !strings.Contains(logBuf.String(), "request_id=my-id-123evilx") {
		t.Fatalf("log line lacks request id:\n%s", logBuf.String())
	}
	if !strings.Contains(logBuf.String(), "route=\"GET /hello/{name}\"") {
		t.Fatalf("log line lacks route:\n%s", logBuf.String())
	}

	// The whole surface exposes validly.
	var buf bytes.Buffer
	if err := reg.WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("middleware metrics do not parse: %v\n%s", err, buf.String())
	}
}

func TestBuildInfoRegisters(t *testing.T) {
	r := NewRegistry()
	b := RegisterBuildInfo(r, "t")
	if b.GoVersion == "" {
		t.Fatal("empty go version")
	}
	var buf bytes.Buffer
	r.WriteExposition(&buf)
	fams, err := ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := fams["t_build_info"]
	if f == nil || len(f.Samples) != 1 || f.Samples[0].Value != 1 {
		t.Fatalf("build info sample: %+v", f)
	}
	if f.Samples[0].Label("go_version") != b.GoVersion {
		t.Fatalf("go_version label %q", f.Samples[0].Label("go_version"))
	}
	if s := b.String(); !strings.Contains(s, "revision") {
		t.Fatalf("version string %q", s)
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if RequestID(ctx) != "" {
		t.Fatal("empty context has an id")
	}
	ctx = WithRequestID(ctx, "abc")
	if RequestID(ctx) != "abc" {
		t.Fatal("id lost")
	}
	if a, b := NewRequestID(), NewRequestID(); a == b {
		t.Fatal("request ids collide")
	}
	if got := SanitizeRequestID(strings.Repeat("a", 100)); len(got) != 64 {
		t.Fatalf("sanitize cap: %d", len(got))
	}
}

// syncBuffer is a bytes.Buffer safe for the concurrent writes slog
// handlers may make.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
