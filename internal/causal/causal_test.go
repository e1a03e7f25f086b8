package causal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"lazyrc/internal/telemetry"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tid, root := tr.BeginTxn(0, 1, 10); tid != 0 || root != 0 {
		t.Fatalf("nil BeginTxn returned %d", tid)
	}
	tr.EndTxn(0, 20)
	if sid := tr.BeginStall(0, 0, StallRead, "x", 10); sid != 0 {
		t.Fatalf("nil BeginStall returned %d", sid)
	}
	tr.EndStall(0, 20)
	tr.Net(0, 0, 1, 0, 0, 0, 1, 0, 0)
	tr.Service(KindDir, 0, 0, 0, 0, 1)
	if tr.Spans() != nil || tr.Count() != 0 || tr.OpenCount() != 0 || tr.Digest() != "" {
		t.Fatal("nil tracer leaks state")
	}
}

func TestTxnLifecycleAndContext(t *testing.T) {
	tr := New(0)
	tid, tidRoot := tr.BeginTxn(3, 0x40, 100)
	if tid == 0 {
		t.Fatal("no TID issued")
	}
	if tr.Current() != tid {
		t.Fatalf("BeginTxn did not set the causal context: %d", tr.Current())
	}
	// Simulate an engine event boundary: capture at schedule, restore
	// around execution.
	ctx := tr.Capture()
	prev := tr.Restore(0)
	if tr.Current() != 0 || prev != tid {
		t.Fatal("Restore mishandled context")
	}
	tr.Restore(ctx)
	if tr.Current() != tid {
		t.Fatal("context not restored")
	}

	tr.Service(KindDir, 1, 0x40, 110, 112, 120)
	tr.EndTxn(tidRoot, 200)
	if tr.OpenCount() != 0 {
		t.Fatalf("%d spans still open", tr.OpenCount())
	}
	var root, dir *Span
	for i := range tr.spans {
		s := &tr.spans[i]
		switch s.Kind {
		case KindTxn:
			root = s
		case KindDir:
			dir = s
		}
	}
	if root == nil || root.Begin != 100 || root.End != 200 || root.TID != tid {
		t.Fatalf("bad root span: %+v", root)
	}
	if dir == nil || dir.TID != tid || dir.Wait != 2 || dir.Begin != 110 || dir.End != 120 {
		t.Fatalf("bad dir span: %+v", dir)
	}
}

func TestZeroLengthStallDiscarded(t *testing.T) {
	tr := New(0)
	sid := tr.BeginStall(0, 1, StallRead, "read fill", 50)
	tr.EndStall(sid, 50) // zero length
	if len(tr.Spans()) != 0 || tr.Count() != 0 {
		t.Fatalf("zero-length stall retained: %+v", tr.Spans())
	}
	if tr.OpenCount() != 0 {
		t.Fatal("discarded stall left open")
	}
	// A real stall records its cause from the current context.
	tr.Restore(77)
	sid = tr.BeginStall(0, 1, StallWrite, "write conflict", 60)
	tr.EndStall(sid, 90)
	var st *Span
	for i := range tr.spans {
		if tr.spans[i].Kind == KindStall {
			st = &tr.spans[i]
		}
	}
	if st == nil || st.Cause != 77 || st.Dur() != 30 {
		t.Fatalf("bad stall span: %+v", st)
	}
}

// driveInterleaved plays a span stream in which spans of every kind are
// open across each other and close out of opening order, with stalls that
// are discarded, for rounds rounds. Handles of closed spans go out of use
// every round, so a digest-only tracer serves most of the run from reused
// slab slots.
func driveInterleaved(tr *Tracer, rounds int) {
	for r := 0; r < rounds; r++ {
		at := uint64(100 * r)
		t1, r1 := tr.BeginTxn(0, 0x80, at+10)
		s1 := tr.BeginStall(0, t1, StallRead, "read fill", at+10)
		t2, r2 := tr.BeginTxn(1, 0xc0, at+11)
		tr.Net(t1, 0, 2, 3, 0x80, at+12, at+30, 1, 2)
		y1, q1 := tr.BeginSync(2, 7, "lock-acquire", at+13)
		s2 := tr.BeginStall(2, y1, StallSync, "lock 7 grant", at+13)
		s0 := tr.BeginStall(1, t2, StallWrite, "write buffer slot", at+14)
		tr.EndStall(s0, at+14) // zero length: discarded
		tr.Restore(t1)
		tr.Service(KindMem, 2, 0x80, at+30, at+31, at+55)
		tr.Retransmit(t2, 1, 3, 4, 0xc0, at+15, at+40, 1+r%3)
		tr.EndTxn(r2, at+45) // opened second, closed first
		tr.EndStall(s1, at+60)
		tr.EndTxn(r1, at+60)
		tr.Restore(t2)
		tr.EndStall(s2, at+70)
		tr.EndSync(q1, at+71)
	}
}

func TestDigestMatchesAcrossModes(t *testing.T) {
	// capped retains the first five spans to close and drops the rest.
	full, capped, digest := New(0), New(5), NewDigest()
	for _, tr := range []*Tracer{full, capped, digest} {
		driveInterleaved(tr, 20)
		if tr.OpenCount() != 0 {
			t.Fatalf("%d spans left open", tr.OpenCount())
		}
	}
	if full.Digest() != digest.Digest() || full.Digest() != capped.Digest() {
		t.Fatalf("digest differs across modes: full %q, capped %q, digest-only %q",
			full.Digest(), capped.Digest(), digest.Digest())
	}
	if digest.Spans() != nil {
		t.Fatal("digest-only tracer retained spans")
	}
	if full.Count() != digest.Count() || full.Count() != 20*8 {
		t.Fatalf("counts: full %d, digest-only %d, want %d", full.Count(), digest.Count(), 20*8)
	}
	if len(capped.Spans()) != 5 || capped.Dropped() != 20*8-5 {
		t.Fatalf("capped tracer retained %d spans and dropped %d", len(capped.Spans()), capped.Dropped())
	}
	// Six spans are open at the deepest point of a round, and every round
	// after the first reuses the slots the one before gave back.
	for _, tr := range []*Tracer{full, digest} {
		if got := len(tr.slab); got != 6 {
			t.Fatalf("slab grew to %d slots, want 6", got)
		}
	}

	// The retained store is what the exporters and the analyzer read: in
	// close order, each span with the id it opened with, the discarded
	// stall (id 7) gone, causes stamped.
	var ids []uint64
	for _, s := range full.Spans() {
		ids = append(ids, s.ID)
		if s.Kind == KindStall && s.Cause == 0 {
			t.Fatalf("retained stall without a cause: %+v", s)
		}
	}
	if got := fmt.Sprint(ids[:9]); len(ids) != 20*8 || got != "[4 8 9 3 2 1 6 5 13]" {
		t.Fatalf("retained ids: %d spans, %s ...", len(ids), got)
	}

	// Any field perturbation must change the digest.
	other := NewDigest()
	driveInterleaved(other, 19)
	tid, root := other.BeginTxn(0, 0x80, 10)
	other.Net(tid, 0, 2, 3, 0x80, 12, 31, 1, 2)
	other.EndTxn(root, 60)
	same := NewDigest()
	driveInterleaved(same, 19)
	tid, root = same.BeginTxn(0, 0x80, 10)
	same.Net(tid, 0, 2, 3, 0x80, 12, 30, 1, 2) // end 31 -> 30
	same.EndTxn(root, 60)
	if other.Digest() == same.Digest() {
		t.Fatal("digest insensitive to span content")
	}
}

// The retained store is the digested stream: re-folding Spans() in order
// from the seed reproduces Digest() for a store that kept every span, and
// a capped store holds that stream's first spans. The spans close out of
// open order, so a store kept in open order fails both.
func TestRetainedIsDigestedStream(t *testing.T) {
	full, capped := New(0), New(7)
	driveInterleaved(full, 20)
	driveInterleaved(capped, 20)
	refold := NewDigest()
	for _, s := range full.Spans() {
		refold.fold(&s)
	}
	if refold.Digest() != full.Digest() {
		t.Fatalf("re-folding the retained spans gives %s, the tracer's digest is %s", refold.Digest(), full.Digest())
	}
	if !reflect.DeepEqual(capped.Spans(), full.Spans()[:7]) {
		t.Fatalf("capped store %+v\nis not the digested prefix %+v", capped.Spans(), full.Spans()[:7])
	}
	if capped.Dropped() != full.Count()-7 || capped.Digest() != full.Digest() {
		t.Fatalf("capped: %d dropped of %d, digest %s vs %s", capped.Dropped(), full.Count(), capped.Digest(), full.Digest())
	}
}

// In digest-only mode a span costs its fold: once the slab has grown to
// the deepest nesting of the run, no span of any kind allocates.
func TestDigestOnlySpansAllocateNothing(t *testing.T) {
	tr := NewDigest()
	driveInterleaved(tr, 1)
	if allocs := testing.AllocsPerRun(100, func() { driveInterleaved(tr, 1) }); allocs != 0 {
		t.Fatalf("digest-only tracer allocates %.1f objects per round of 9 spans, want 0", allocs)
	}
}

// The watchdog asks what every processor is parked on, in either mode,
// while other spans open and close around the stalls.
func TestOpenStalls(t *testing.T) {
	for name, tr := range map[string]*Tracer{"retain": New(0), "spill": New(1), "digest-only": NewDigest()} {
		driveInterleaved(tr, 3)
		tid, root := tr.BeginTxn(4, 0x40, 500)
		late := tr.BeginStall(4, tid, StallRead, "read fill", 520)
		early := tr.BeginStall(9, 0, StallSync, "barrier 2", 510)
		gone := tr.BeginStall(5, 0, StallWrite, "write buffer slot", 505)
		tr.EndStall(gone, 530)
		got := tr.OpenStalls()
		if len(got) != 2 ||
			got[0].Node != 9 || got[0].TID != 0 || got[0].Class != StallSync || got[0].Why != "barrier 2" || got[0].Begin != 510 ||
			got[1].Node != 4 || got[1].TID != tid || got[1].Class != StallRead || got[1].Why != "read fill" || got[1].Begin != 520 {
			t.Fatalf("%s: open stalls %+v", name, got)
		}
		tr.EndStall(late, 600)
		tr.EndStall(early, 600)
		tr.EndTxn(root, 600)
		if got := tr.OpenStalls(); len(got) != 0 || tr.OpenCount() != 0 {
			t.Fatalf("%s: %d stalls and %d spans still open", name, len(got), tr.OpenCount())
		}
	}
}

func TestRetentionCapSpillsWithoutDigestDrift(t *testing.T) {
	drive := func(tr *Tracer) {
		for i := 0; i < 10; i++ {
			_, tidRoot := tr.BeginTxn(i%4, uint64(i)<<6, uint64(10*i))
			tr.Service(KindDir, 1, uint64(i)<<6, uint64(10*i), uint64(10*i+1), uint64(10*i+4))
			tr.EndTxn(tidRoot, uint64(10*i+9))
		}
	}
	full, capped := New(0), New(5)
	drive(full)
	drive(capped)
	if capped.Dropped() == 0 {
		t.Fatal("cap not exercised")
	}
	if got := len(capped.Spans()); got > 5 {
		t.Fatalf("cap exceeded: %d spans retained", got)
	}
	if capped.Digest() != full.Digest() {
		t.Fatalf("truncation changed the digest: %q vs %q", capped.Digest(), full.Digest())
	}
	if capped.OpenCount() != 0 {
		t.Fatal("spilled spans never closed")
	}
}

func TestAnalyzeCoverage(t *testing.T) {
	tr := New(0)
	// A read-miss transaction: txn root, net request, dir service with
	// queueing, memory, net reply — stall covers it all plus slack.
	tid, tidRoot := tr.BeginTxn(0, 0x100, 100)
	sid := tr.BeginStall(0, tid, StallRead, "read fill", 100)
	tr.Net(tid, 0, 3, 1, 0x100, 100, 120, 4, 2)  // port 100-104, wire 104-118, port 118-120
	tr.Service(KindDir, 3, 0x100, 120, 130, 140) // queue 120-130, service 130-140
	tr.Service(KindMem, 3, 0x100, 140, 140, 180) // pure service
	tr.Net(tid, 3, 0, 2, 0x100, 180, 200, 0, 0)  // wire only
	tr.EndStall(sid, 210)                        // 10 uncovered cycles at the tail
	tr.EndTxn(tidRoot, 210)

	a := Analyze(tr)
	if got, want := a.Total(), uint64(110); got != want {
		t.Fatalf("attributed %d cycles, stall was %d", got, want)
	}
	if len(a.Episodes) != 1 {
		t.Fatalf("%d episodes", len(a.Episodes))
	}
	check := func(c Cause, want uint64) {
		t.Helper()
		if got := a.ByCause[StallRead][c]; got != want {
			t.Errorf("%s: attributed %d, want %d", c, got, want)
		}
	}
	check(CauseNetPort, 6)   // 4 out + 2 in on the request
	check(CauseNet, 34)      // 14 request wire + 20 reply wire
	check(CauseDirQueue, 10) // 120-130
	check(CauseDirService, 10)
	check(CauseMem, 40)
	check(CauseOther, 10) // uncovered tail

	// Episode segments partition the window.
	ep := &a.Episodes[0]
	at := ep.Span.Begin
	for _, seg := range ep.Segments {
		if seg.Begin != at {
			t.Fatalf("gap at %d", at)
		}
		at = seg.End
	}
	if at != ep.Span.End {
		t.Fatalf("segments end at %d, want %d", at, ep.Span.End)
	}
	if chain := ep.Chain(3); !strings.HasPrefix(chain, "mem:40") {
		t.Fatalf("chain should lead with mem: %q", chain)
	}
}

func TestAnalyzeCauseChain(t *testing.T) {
	tr := New(0)
	// Releaser's sync episode does fan-out work; acquirer stalls on the
	// lock. The wake event runs under the releaser's context, so the stall
	// records it as Cause, and the analyzer pulls the releaser's spans in.
	rel, relRoot := tr.BeginSync(1, 7, "lock-release", 100)
	acq, acqRoot := tr.BeginSync(0, 7, "lock-acquire", 100)
	sid := tr.BeginStall(0, acq, StallSync, "lock wait", 100)
	tr.Restore(rel)
	tr.Service(KindFanout, 1, 0, 120, 120, 160) // releaser's notice posting
	tr.EndSync(relRoot, 160)
	// The grant delivery wakes the acquirer still under rel's context.
	tr.EndStall(sid, 180)
	tr.Restore(acq)
	tr.EndSync(acqRoot, 180)

	a := Analyze(tr)
	if got := a.ByCause[StallSync][CauseFanout]; got != 40 {
		t.Fatalf("fanout on the causal chain attributed %d, want 40", got)
	}
	if got := a.ByCause[StallSync][CauseSerialization]; got != 40 {
		t.Fatalf("uncovered sync wait attributed %d to serialization, want 40", got)
	}
}

func TestFallbackWBDrain(t *testing.T) {
	tr := New(0)
	sid := tr.BeginStall(2, 0, StallSync, "release drain", 10)
	tr.EndStall(sid, 50)
	sid = tr.BeginStall(2, 0, StallWrite, "write buffer slot", 60)
	tr.EndStall(sid, 70)
	a := Analyze(tr)
	if got := a.CauseTotal(CauseWBDrain); got != 50 {
		t.Fatalf("wb-drain attributed %d, want 50", got)
	}
}

func TestTopNOrdering(t *testing.T) {
	tr := New(0)
	mk := func(begin, end uint64) {
		sid := tr.BeginStall(0, 0, StallRead, "read fill", begin)
		tr.EndStall(sid, end)
	}
	mk(10, 30)   // 20
	mk(50, 100)  // 50
	mk(200, 220) // 20, later begin
	a := Analyze(tr)
	top := a.TopN(2)
	if len(top) != 2 || top[0].Dur() != 50 || top[1].Span.Begin != 10 {
		t.Fatalf("bad TopN ordering: %+v", top)
	}
	if got := len(a.TopN(99)); got != 3 {
		t.Fatalf("TopN over-length returned %d", got)
	}
}

func TestPerfettoRoundTrip(t *testing.T) {
	tr := New(0)
	tid, tidRoot := tr.BeginTxn(0, 0x40, 10)
	tr.Net(tid, 0, 1, 2, 0x40, 12, 30, 1, 1)
	tr.Service(KindDir, 1, 0x40, 30, 32, 40)
	sid := tr.BeginStall(0, tid, StallRead, "read fill", 10)
	tr.EndStall(sid, 60)
	tr.EndTxn(tidRoot, 60)
	_, stRoot := tr.BeginSync(0, 3, "barrier", 70)
	tr.EndSync(stRoot, 90)

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, tr, nil, 2, func(k int) string { return "MsgKind" }); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("trace fails validation: %v\n%s", err, buf.String())
	}
	if n == 0 {
		t.Fatal("empty trace")
	}
	out := buf.String()
	for _, want := range []string{`"ph":"X"`, `"ph":"b"`, `"ph":"e"`, `"ph":"s"`, `"ph":"f"`, "node0", "node1", "stall"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s", want)
		}
	}
}

func TestValidateTraceRejectsGarbage(t *testing.T) {
	cases := []string{
		`{}`,
		`{"traceEvents": [{"ph":"X","pid":0,"tid":0,"ts":1,"dur":2}]}`,                         // no name
		`{"traceEvents": [{"name":"x","ph":"Q","pid":0,"tid":0,"ts":1}]}`,                      // bad phase
		`{"traceEvents": [{"name":"x","ph":"b","pid":0,"tid":0,"ts":1}]}`,                      // async without id
		`{"traceEvents": [{"name":"x","ph":"C","pid":0,"tid":0,"ts":-1,"args":{"level":1}}]}`,  // counter before 0
		`{"traceEvents": [{"name":"x","ph":"C","pid":0,"tid":0,"ts":1}]}`,                      // counter without a value
		`{"traceEvents": [{"name":"x","ph":"C","pid":0,"tid":0,"ts":1,"args":{"level":"1"}}]}`, // counter with a string
		`not json`,
	}
	for _, c := range cases {
		if _, err := ValidateTrace([]byte(c)); err == nil {
			t.Errorf("accepted invalid trace: %s", c)
		}
	}
}

// seededTrace writes the trace of a tiny run data scripts: one to four
// nodes; per byte (the first 32) a transaction with its message,
// directory service and stall, then a sample of a level series per node,
// a machine-wide delta series and a series whose numeric suffix names no
// node.
func seededTrace(w io.Writer, data []byte) error {
	data = data[:min(len(data), 32)]
	nodes := 1
	if len(data) > 0 {
		nodes += int(data[0] % 4)
	}
	tr := New(0)
	reg := telemetry.NewRegistry(16)
	reg.Retain(true)
	depth := make([]*telemetry.Series, nodes)
	for i := range depth {
		depth[i] = reg.Series(fmt.Sprintf("wb.depth.%03d", i), telemetry.Level)
	}
	msgs := reg.Series("net.msgs", telemetry.Delta)
	odd := reg.Series("x.999", telemetry.Level)
	now := uint64(0)
	for i, b := range data {
		src, dst, d := i%nodes, int(b)%nodes, uint64(b%9)
		block := uint64(b) << 7
		tid, root := tr.BeginTxn(src, block, now)
		tr.Net(tid, src, dst, int(b%5), block, now+1, now+2+d, uint64(b%2), 0)
		tr.Service(KindDir, dst, block, now+2+d, now+3+d, now+4+d)
		sid := tr.BeginStall(src, tid, StallClass(b%3), "miss", now)
		tr.EndStall(sid, now+5+d)
		tr.EndTxn(root, now+5+d)
		depth[dst].Set(float64(b % 3))
		msgs.Add(float64(b % 2))
		odd.Set(-float64(b) / 7)
		now += 6 + d
		reg.Sample(now)
	}
	return WritePerfetto(w, tr, reg, nodes, nil)
}

// FuzzValidateTrace: the validator never panics and an accepted input's
// event count is its traceEvents length; every trace WritePerfetto writes
// for a tiny run the input seeds, counter tracks included, is accepted;
// and that trace with a counter event appended that has a negative ts,
// no value or a string for one is refused.
func FuzzValidateTrace(f *testing.F) {
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Add([]byte(`{"traceEvents":[{"name":"wb.depth","ph":"C","ts":4096,"pid":0,"tid":0,"args":{"level":2}}]}`))
	f.Add([]byte(`{"traceEvents":[{"name":"c","ph":"C","ts":-1,"pid":0,"tid":0,"args":{"level":2}}]}`))
	f.Add([]byte(`{"traceEvents":[{"name":"c","ph":"C","ts":1,"pid":0,"tid":0,"args":{"level":"2"}}]}`))
	f.Add([]byte{3, 0, 1, 2, 250, 7, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if n, err := ValidateTrace(data); err == nil {
			var doc struct{ TraceEvents []json.RawMessage }
			if err := json.Unmarshal(data, &doc); err != nil || n != len(doc.TraceEvents) {
				t.Fatalf("accepted with %d events, traceEvents holds %d (%v)", n, len(doc.TraceEvents), err)
			}
		}

		var buf bytes.Buffer
		if err := seededTrace(&buf, data); err != nil {
			t.Fatal(err)
		}
		n, err := ValidateTrace(buf.Bytes())
		if err != nil {
			t.Fatalf("a written trace is refused: %v\n%s", err, buf.Bytes())
		}
		if len(data) > 0 && !bytes.Contains(buf.Bytes(), []byte(`"ph":"C"`)) {
			t.Fatalf("a run with %d samples wrote no counter event", len(data))
		}

		head := bytes.TrimSuffix(buf.Bytes(), []byte("\n]}\n"))
		if n > 0 {
			head = append(head, ',')
		}
		for _, bad := range []string{
			fmt.Sprintf(`{"name":"c","ph":"C","ts":-%d,"pid":0,"tid":0,"args":{"level":1}}`, 1+len(data)),
			`{"name":"c","ph":"C","ts":1,"pid":0,"tid":0}`,
			`{"name":"c","ph":"C","ts":1,"pid":0,"tid":0,"args":{"level":"1"}}`,
		} {
			trace := append(append(head[:len(head):len(head)], bad...), "]}"...)
			if _, err := ValidateTrace(trace); err == nil {
				t.Fatalf("accepted a bad counter event: %s", bad)
			}
		}
	})
}
