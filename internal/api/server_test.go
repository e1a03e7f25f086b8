package api

import (
	"context"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"lazyrc/internal/runner"
)

// stallingWriter is an SSE client whose first write — the status event —
// blocks until released, so whatever is published meanwhile queues in
// the handler's subscription.
type stallingWriter struct {
	*httptest.ResponseRecorder
	once             sync.Once
	stalled, release chan struct{}
}

func (w *stallingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.stalled); <-w.release })
	return w.ResponseRecorder.Write(p)
}

// TestSweepEventsDrainSkipsOtherSweeps: a sweep's job events queued
// behind other sweeps' events when it finishes still reach its stream
// before the terminal event. The handler sees its done channel and its
// subscription ready together, so it picks one at random; a drain that
// stopped at the first foreign event lost the second A on all but about
// one run in 2²¹.
func TestSweepEventsDrainSkipsOtherSweeps(t *testing.T) {
	svc := NewService(1, nil, nil)
	defer svc.Close(context.Background())
	sw := &sweepState{
		status: SweepStatus{ID: "sw"},
		jobs:   map[string]runner.Job{"A": {}},
		done:   make(chan struct{}),
	}
	svc.mu.Lock()
	svc.sweeps["sw"] = sw
	svc.mu.Unlock()

	w := &stallingWriter{ResponseRecorder: httptest.NewRecorder(),
		stalled: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		NewServer(svc).ServeHTTP(w, httptest.NewRequest("GET", "/api/v1/sweeps/sw/events", nil))
	}()
	<-w.stalled // subscribed, writing the status event
	svc.b.Publish(runner.Event{Seq: 1, FP: "A"})
	for i := 0; i < 20; i++ {
		svc.b.Publish(runner.Event{Seq: uint64(2 + i), FP: "B"})
	}
	svc.b.Publish(runner.Event{Seq: 22, FP: "A"})
	close(sw.done)
	close(w.release)
	<-served

	var got []string
	for _, frame := range strings.Split(strings.TrimSpace(w.Body.String()), "\n\n") {
		name, data, _ := strings.Cut(strings.TrimPrefix(frame, "event: "), "\ndata: ")
		if name == "job" {
			var ev runner.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatal(err)
			}
			name += " " + ev.FP + strconv.FormatUint(ev.Seq, 10)
		}
		got = append(got, name)
	}
	if want := []string{"status", "job A1", "job A22", "sweep"}; !slices.Equal(got, want) {
		t.Fatalf("stream = %q, want %q", got, want)
	}
}

// TestRoutesMatchDoc pins the daemon's HTTP surface, as lrcsim's flag
// count pins its options: the routes NewServer's doc comment lists are
// exactly the patterns it registers on the mux, each answers under its
// own pattern, and the retired /ops dashboard and global event stream
// are gone.
func TestRoutesMatchDoc(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "server.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var fn *ast.FuncDecl
	for _, d := range f.Decls {
		if d, ok := d.(*ast.FuncDecl); ok && d.Name.Name == "NewServer" {
			fn = d
		}
	}
	if fn == nil {
		t.Fatal("server.go declares no NewServer")
	}
	var doc []string
	for _, m := range regexp.MustCompile(`(?m)^\t(GET|POST|DELETE) +(\S+)`).FindAllStringSubmatch(fn.Doc.Text(), -1) {
		doc = append(doc, m[1]+" "+m[2])
	}
	var registered []string
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Handle" && sel.Sel.Name != "HandleFunc") {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "mux" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok {
			t.Fatalf("%s: a route pattern that is not a literal", fset.Position(call.Pos()))
		}
		p, _ := strconv.Unquote(lit.Value)
		registered = append(registered, pprofAsOne(p))
		return true
	})
	slices.Sort(doc)
	slices.Sort(registered)
	registered = slices.Compact(registered)
	if !slices.Equal(doc, registered) {
		t.Fatalf("NewServer's doc lists\n\t%s\nbut the mux registers\n\t%s",
			strings.Join(doc, "\n\t"), strings.Join(registered, "\n\t"))
	}

	svc := NewService(1, nil, nil)
	defer svc.Close(context.Background())
	h := NewServer(svc)
	// Every request's client has gone: a stream answers 200 and returns.
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for _, route := range doc {
		method, path, _ := strings.Cut(route, " ")
		path = strings.NewReplacer("{id}", "x", "{fp}", "x", "...", "").Replace(path)
		// No body: a submission fails to decode rather than starting a sweep.
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, path, nil).WithContext(gone))
	}
	for _, path := range []string{"/ops", "/api/v1/events"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil).WithContext(gone))
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, rec.Code)
		}
	}
	var routed []string
	for _, fam := range svc.reg.Snapshot() {
		if fam.Name == "lrcsimd_http_requests_total" {
			for _, sm := range fam.Samples {
				routed = append(routed, pprofAsOne(sm.Labels[0].Value)) // labels: route, code
			}
		}
	}
	slices.Sort(routed)
	routed = slices.Compact(routed)
	want := append(slices.Clone(doc), "unrouted") // sorts after every method
	if !slices.Equal(routed, want) {
		t.Fatalf("requests were routed to\n\t%s\nwant\n\t%s", strings.Join(routed, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// pprofAsOne names every pprof route as the doc comment lists them: one.
func pprofAsOne(route string) string {
	if strings.HasPrefix(route, "GET /debug/pprof/") {
		return "GET /debug/pprof/..."
	}
	return route
}
