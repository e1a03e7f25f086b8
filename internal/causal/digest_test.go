package causal

import "testing"

// TestDigestCoversCause: two runs whose spans agree in every cycle stamp
// and differ only in which transaction's completion woke the stalled
// processor must not share a digest.
func TestDigestCoversCause(t *testing.T) {
	run := func(waker uint64) string {
		tr := NewDigest()
		tid, root := tr.BeginTxn(0, 0x80, 10)
		sid := tr.BeginStall(0, tid, StallRead, "read fill", 10)
		tr.Restore(waker)
		tr.EndStall(sid, 60)
		tr.EndTxn(root, 60)
		return tr.Digest()
	}
	if a, b := run(1), run(2); a == b {
		t.Fatalf("digest %s whichever transaction woke the processor", a)
	}
}

// foldOf returns the digest state after folding spans into a fresh tracer.
func foldOf(spans ...Span) uint64 {
	tr := NewDigest()
	for i := range spans {
		tr.fold(&spans[i])
	}
	return tr.hash
}

// TestDigestSeesEveryBit: flipping any single bit of any folded field of a
// span, anywhere in a three-span stream, changes the digest — and so does
// moving one byte of Why from one span to the next.
func TestDigestSeesEveryBit(t *testing.T) {
	base := Span{
		TID: 7, Cause: 9, Kind: KindStall, Class: StallSync, Node: 3, Peer: -1, MsgKind: 12,
		Block: 0x1f80, Obj: 4, Begin: 1000, End: 1720, Wait: 5, Wait2: 11, Why: "lock 7 grant",
	}
	fields := []struct {
		name string
		bits int
		flip func(s *Span, bit int)
	}{
		{"TID", 64, func(s *Span, b int) { s.TID ^= 1 << b }},
		{"Cause", 64, func(s *Span, b int) { s.Cause ^= 1 << b }},
		{"Kind", 8, func(s *Span, b int) { s.Kind ^= 1 << b }},
		{"Class", 8, func(s *Span, b int) { s.Class ^= 1 << b }},
		{"Node", 32, func(s *Span, b int) { s.Node ^= 1 << b }},
		{"Peer", 32, func(s *Span, b int) { s.Peer ^= 1 << b }},
		{"MsgKind", 32, func(s *Span, b int) { s.MsgKind ^= 1 << b }},
		{"Block", 64, func(s *Span, b int) { s.Block ^= 1 << b }},
		{"Obj", 64, func(s *Span, b int) { s.Obj ^= 1 << b }},
		{"Begin", 64, func(s *Span, b int) { s.Begin ^= 1 << b }},
		{"End", 64, func(s *Span, b int) { s.End ^= 1 << b }},
		{"Wait", 64, func(s *Span, b int) { s.Wait ^= 1 << b }},
		{"Wait2", 64, func(s *Span, b int) { s.Wait2 ^= 1 << b }},
		{"Why", 8 * len(base.Why), func(s *Span, b int) {
			w := []byte(s.Why)
			w[b/8] ^= 1 << (b % 8)
			s.Why = string(w)
		}},
	}
	want := foldOf(base, base, base)
	for pos := 0; pos < 3; pos++ {
		for _, f := range fields {
			for b := 0; b < f.bits; b++ {
				stream := [3]Span{base, base, base}
				f.flip(&stream[pos], b)
				if foldOf(stream[:]...) == want {
					t.Fatalf("span %d: flipping bit %d of %s leaves the digest unchanged", pos, b, f.name)
				}
			}
		}
	}

	// Why is length-prefixed, so its bytes cannot slide between spans, and
	// a short tail is not confused with its zero-padded self.
	a, b := base, base
	a.Why, b.Why = "ab", "c"
	c, d := base, base
	c.Why, d.Why = "a", "bc"
	if foldOf(a, b) == foldOf(c, d) {
		t.Fatal(`"ab","c" and "a","bc" in consecutive spans share a digest`)
	}
	a.Why, c.Why = "ab", "ab\x00"
	if foldOf(a) == foldOf(c) {
		t.Fatal(`"ab" and "ab\x00" share a digest`)
	}
	for n := 0; n <= 17; n++ { // every tail length on both sides of a word boundary
		a.Why, c.Why = "0123456789abcdefg"[:n], "0123456789abcdefgh"[:n+1]
		if foldOf(a) == foldOf(c) {
			t.Fatalf("Why of %d and %d bytes share a digest", n, n+1)
		}
	}
}

// foldShapes are the two record shapes of a run: a complete-at-birth span
// with no label (net, service) and a labelled one (roots, stalls) whose
// Why adds a word and a tail.
var foldShapes = []struct {
	name string
	span Span
}{
	{"net", Span{TID: 41, Kind: KindNet, Node: 3, Peer: 17, MsgKind: 5, Block: 0x1f80,
		Begin: 123456, End: 123519, Wait: 2, Wait2: 7}},
	{"stall", Span{TID: 41, Cause: 40, Kind: KindStall, Class: StallSync, Node: 3, Peer: -1, MsgKind: -1,
		Begin: 123456, End: 124519, Why: "lock-acquire"}},
}

var foldSink uint64 // keeps the benchmarked folds live

// BenchmarkSpanFold times the digest's per-span step alone: ns/op is
// ns/span, and a span is about an event.
//
//	go test ./internal/causal -run '^$' -bench SpanFold -benchmem
func BenchmarkSpanFold(b *testing.B) {
	for _, shape := range foldShapes {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			tr, s := NewDigest(), shape.span
			for i := 0; i < b.N; i++ {
				s.End++
				tr.fold(&s)
			}
			foldSink = tr.hash
		})
	}
}
