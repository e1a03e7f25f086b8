package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/runner"
)

var _ runner.ResultStore = (*Store)(nil)

func fakeResult(fp string, cycles uint64) *runner.Result {
	return &runner.Result{
		Fingerprint: fp,
		App:         "gauss",
		Scale:       "tiny",
		Proto:       "lrc",
		ExecCycles:  cycles,
		Completed:   true,
	}
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := fakeResult("fp-1", 1234)
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Get("fp-1")
	if !ok {
		t.Fatal("entry lost across reopen")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if st := s2.Stats(); st.Entries != 1 || st.Segments != 1 || st.DroppedLines != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDirectoryIsSingleWriter pins the lock: a second Open of a held
// directory is refused (it would otherwise overwrite the first handle's
// lines at stale offsets), a failed Open leaves the holder working, and
// the directory opens again once the holder closes.
func TestDirectoryIsSingleWriter(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2, err := Open(dir); err == nil {
		s2.Close()
		t.Fatal("second Open of a held directory succeeded")
	} else if !strings.Contains(err.Error(), "already open") {
		t.Fatalf("second Open failed with an unclear error: %v", err)
	}
	if err := s.Put(fakeResult("fp-1", 7)); err != nil {
		t.Fatalf("holder broken by the refused Open: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	defer s3.Close()
	if _, ok := s3.Get("fp-1"); !ok {
		t.Fatal("entry lost across the lock hand-over")
	}
}

func TestRefusesFailedResults(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad := &runner.Result{Fingerprint: "abc", Failure: "panic: boom"}
	if err := s.Put(bad); err == nil {
		t.Fatal("failed result was stored")
	}
	if _, ok := s.Get("abc"); ok {
		t.Fatal("failed result retrievable")
	}
}

func TestLatestPutWins(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(fakeResult("fp-1", 1))
	s.Put(fakeResult("fp-1", 2))
	if got, _ := s.Get("fp-1"); got.ExecCycles != 2 {
		t.Fatalf("got cycles %d, want 2", got.ExecCycles)
	}
	st := s.Stats()
	if st.Entries != 1 || st.LiveBytes >= st.TotalBytes {
		t.Fatalf("superseded line not accounted dead: %+v", st)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, _ := s2.Get("fp-1"); got == nil || got.ExecCycles != 2 {
		t.Fatal("newest-wins lost across reopen")
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(fakeResult(fmt.Sprintf("fp-%02d", i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments < 2 {
		t.Fatalf("no rotation at tiny threshold: %+v", st)
	}
	for i := 0; i < 20; i++ {
		if got, ok := s.Get(fmt.Sprintf("fp-%02d", i)); !ok || got.ExecCycles != uint64(i) {
			t.Fatalf("entry %d unreadable after rotation", i)
		}
	}
	s.Close()
	s2, err := open(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Stats().Entries != 20 {
		t.Fatalf("reopened entries = %d, want 20", s2.Stats().Entries)
	}
}

// TestGarbageRecoveryAndCompaction is the corrupt-line discipline end to
// end: a store damaged four ways — binary garbage, wrong-shape JSON, a
// fingerprint-less record, and a torn tail — keeps serving every intact
// entry, reports exactly how many lines it dropped, and compaction
// round-trips the survivors into a single clean segment.
func TestGarbageRecoveryAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*runner.Result{}
	for i := 0; i < 8; i++ {
		fp := fmt.Sprintf("fp-%02d", i)
		want[fp] = fakeResult(fp, uint64(100+i))
		if err := s.Put(want[fp]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Inject garbage into the newest segment: three corrupt complete
	// lines plus a torn tail.
	ids, err := segmentIDs(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := filepath.Join(dir, segName(ids[len(ids)-1]))
	f, err := os.OpenFile(newest, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("\x00\x01 not json at all\n")
	f.WriteString("{\"weird\":true}\n")     // parses but has no fingerprint
	f.WriteString("[1,2,3]\n")              // wrong JSON shape
	f.WriteString("{\"fp\":\"torn-entry\"") // torn tail, no newline
	f.Close()

	s2, err := open(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Recovered(); got != 4 {
		t.Fatalf("dropped lines = %d, want 4", got)
	}
	if st := s2.Stats(); st.DroppedLines != 4 || st.Entries != 8 {
		t.Fatalf("stats after damage: %+v", st)
	}
	for fp, w := range want {
		got, ok := s2.Get(fp)
		if !ok || !reflect.DeepEqual(got, w) {
			t.Fatalf("entry %s not served after recovery", fp)
		}
	}
	// The sealed torn tail must not fuse with a fresh append.
	extra := fakeResult("fp-extra", 999)
	if err := s2.Put(extra); err != nil {
		t.Fatal(err)
	}

	// Pre-compaction snapshot: the dead-byte accounting a background
	// compaction trigger would key on, plus the per-handle traffic
	// counters (8 hits so far on this handle, 1 append, no misses).
	pre := s2.Stats()
	if pre.DeadBytes() <= 0 || pre.DeadBytes() >= pre.TotalBytes {
		t.Fatalf("damaged store shows no dead bytes: %+v", pre)
	}
	if pre.Appends != 1 || pre.Lookups != 8 || pre.Misses != 0 {
		t.Fatalf("pre-compaction traffic counters: %+v", pre)
	}

	st, err := s2.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 1 || st.Entries != 9 || st.LiveBytes != st.TotalBytes || st.Compactions != 1 {
		t.Fatalf("post-compaction stats: %+v", st)
	}
	if st.DeadBytes() != 0 {
		t.Fatalf("compaction left dead bytes: %+v", st)
	}
	for fp, w := range want {
		got, ok := s2.Get(fp)
		if !ok || !reflect.DeepEqual(got, w) {
			t.Fatalf("entry %s lost by compaction", fp)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen once more: the compacted store is clean (nothing dropped)
	// and byte-stable.
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Recovered(); got != 0 {
		t.Fatalf("compacted store dropped %d lines on reload", got)
	}
	if s3.Stats().Entries != 9 {
		t.Fatalf("compacted entries = %d, want 9", s3.Stats().Entries)
	}
	got, _ := s3.Get("fp-extra")
	if !reflect.DeepEqual(got, extra) {
		t.Fatal("post-seal append lost")
	}
}

// TestServesRunnerResultsByteIdentically drives the store through the
// runner exactly as the daemon does and requires a warm reopen to serve
// byte-identical results with zero simulations.
func TestServesRunnerResultsByteIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	cfg := config.Default(4)
	cfg.CacheSize = 2 << 10
	cfg.Seed = 1
	jobs := []runner.Job{
		{App: "gauss", Scale: apps.Tiny, Proto: "sc", Cfg: cfg},
		{App: "gauss", Scale: apps.Tiny, Proto: "lrc", Cfg: cfg},
		{App: "fft", Scale: apps.Tiny, Proto: "erc", Cfg: cfg},
	}

	cold, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := runner.New(4, cold)
	first := r1.DoAll(context.Background(), jobs)
	if m := r1.Meta(); m.Simulated != 3 || m.CacheHits != 0 {
		t.Fatalf("cold meta: %+v", m)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	r2 := runner.New(4, warm)
	second := r2.DoAll(context.Background(), jobs)
	if m := r2.Meta(); m.Simulated != 0 || m.CacheHits != 3 {
		t.Fatalf("warm meta: %+v", m)
	}
	for i := range jobs {
		if !second[i].Cached {
			t.Fatalf("job %d not marked cached", i)
		}
		a, _ := json.Marshal(first[i])
		b, _ := json.Marshal(second[i])
		if string(a) != string(b) {
			t.Fatalf("job %d: stored result differs:\n%s\n%s", i, a, b)
		}
		if first[i].Fingerprint != jobs[i].Fingerprint() {
			t.Fatalf("job %d: fingerprint drifted", i)
		}
	}
}

func TestOpenIgnoresAbandonedCompactionTemp(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, tmpName), []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Stats().Entries != 0 || s.Recovered() != 0 {
		t.Fatalf("temp file leaked into the store: %+v", s.Stats())
	}
	if _, err := os.Stat(filepath.Join(dir, tmpName)); !os.IsNotExist(err) {
		t.Fatal("abandoned temp file not removed")
	}
	names, _ := os.ReadDir(dir)
	for _, n := range names {
		if strings.HasSuffix(n.Name(), ".tmp") {
			t.Fatalf("stray temp file %s", n.Name())
		}
	}
}

func TestSweepRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, dropped := s.Sweeps(); len(got) != 0 || dropped != 0 {
		t.Fatalf("fresh store has sweeps: %v, %d dropped", got, dropped)
	}
	specs := []json.RawMessage{
		json.RawMessage(`{"apps":["gauss"],"scale":"tiny"}`),
		json.RawMessage(`{"targets":["table2"],"procs":8}`),
	}
	if err := s.SaveSweeps(specs); err != nil {
		t.Fatal(err)
	}
	// A save replaces, not appends: drop the second entry and re-save.
	if err := s.SaveSweeps(specs[:1]); err != nil {
		t.Fatal(err)
	}
	// An append adds one line after the saved ones.
	added := json.RawMessage(`{"seed":3}`)
	if err := s.AppendSweep(added); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, _ := s2.Sweeps()
	if want := []json.RawMessage{specs[0], added}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded registry %s, want %s", got, want)
	}
	names, _ := os.ReadDir(dir)
	for _, n := range names {
		if strings.HasSuffix(n.Name(), ".tmp") {
			t.Fatalf("stray temp file %s", n.Name())
		}
	}
}

// TestSweepRegistryCorruptSidecarDropped: each line stands alone, so a
// corrupt line costs only itself. A line that is not JSON and a torn
// tail are dropped and counted; the whole lines around them load.
func TestSweepRegistryCorruptSidecarDropped(t *testing.T) {
	for _, c := range []struct {
		raw     string
		want    []string
		dropped int
	}{
		{"{torn", nil, 1},
		{`{"a":1}` + "\n{torn\n" + `{"b":2}` + "\n{\"c\"", []string{`{"a":1}`, `{"b":2}`}, 2},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, sweepsName), []byte(c.raw), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, dropped := s.Sweeps()
		var docs []string
		for _, d := range got {
			docs = append(docs, string(d))
		}
		if !reflect.DeepEqual(docs, c.want) || dropped != c.dropped {
			t.Fatalf("%q loaded %q with %d dropped, want %q with %d", c.raw, docs, dropped, c.want, c.dropped)
		}
		if s.Recovered() != c.dropped {
			t.Fatalf("%q: %d recovered, want the %d dropped lines counted as recovered garbage", c.raw, s.Recovered(), c.dropped)
		}
		s.Close()
	}
}

// TestSaveSweepsIsMarshal: the registry writes the documents it is given
// without re-encoding them, one per line, so each line is byte for byte
// what json.Marshal of its spec was, and they load back as written.
func TestSaveSweepsIsMarshal(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	doc := func(v any) json.RawMessage {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, specs := range [][]json.RawMessage{
		nil,
		{},
		{doc(map[string]any{"targets": []string{"fig4"}, "scale": "tiny", "procs": 4, "seed": 1})},
		{doc(map[string]any{"apps": []string{"<gauss&>"}}), doc(map[string]any{}), doc(map[string]any{"seed": uint64(1) << 63})},
	} {
		if err := s.SaveSweeps(specs); err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, spec := range specs {
			want = append(append(want, spec...), '\n')
		}
		got, err := os.ReadFile(filepath.Join(s.dir, sweepsName))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("registry file %q, json.Marshal says %q", got, want)
		}
		if back, dropped := s.Sweeps(); len(back) != len(specs) || dropped != 0 || (len(specs) > 0 && !reflect.DeepEqual(back, specs)) {
			t.Fatalf("registry loads back as %s (%d dropped), want %s", back, dropped, specs)
		}
	}
}

// TestLeftoverSweepsTmpIgnored: a crash between creating the registry's
// temp file and renaming it leaves sweeps.jsonl.tmp of any length behind;
// opening ignores it, the registry is the last one installed, and the
// next save replaces the leftover.
func TestLeftoverSweepsTmpIgnored(t *testing.T) {
	for _, n := range []int{0, 1, 7, 4096} {
		dir := t.TempDir()
		installed := []byte(`{"scale":"tiny"}` + "\n")
		if err := os.WriteFile(filepath.Join(dir, sweepsName), installed, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sweepsTmp), bytes.Repeat([]byte(`[{"x`), n)[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := s.Sweeps(); len(got) != 1 || string(got[0]) != `{"scale":"tiny"}` || s.Recovered() != 0 {
			t.Fatalf("%d-byte leftover: registry %s, %d recovered", n, got, s.Recovered())
		}
		if err := s.SaveSweeps(nil); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, sweepsTmp)); !os.IsNotExist(err) {
			t.Fatalf("%d-byte leftover survived a save: %v", n, err)
		}
		s.Close()
	}
}

// FuzzOpen: recovery survives any bytes in a segment. Open does not
// panic, every fingerprint it indexed reads back as a result carrying
// that fingerprint, and a Put after it — behind the seal of a torn tail,
// if the bytes end in one — survives Close and a reopen beside every
// entry recovered the first time.
func FuzzOpen(f *testing.F) {
	line, err := json.Marshal(fakeResult("fp-1", 1234))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(line, '\n'))
	f.Add(line) // a torn tail
	f.Add([]byte("garbage\n{\"fp\":\"fp-2\"}\n\n{\"fp\":\"fp-2\",\"exec_cycles\":7}\n{\"fp\""))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var recovered []string
		for fp := range s.idx {
			recovered = append(recovered, fp)
			if r, ok := s.Get(fp); !ok || r.Fingerprint != fp {
				t.Fatalf("indexed %q, Get returns %+v, %v", fp, r, ok)
			}
		}
		want := fakeResult("fuzz-put", 42)
		if err := s.Put(want); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if got, ok := s2.Get(want.Fingerprint); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("the Put after recovery reads back as %+v, %v; want %+v", got, ok, want)
		}
		for _, fp := range recovered {
			if _, ok := s2.Get(fp); !ok {
				t.Errorf("%q recovered at the first open, lost at the second", fp)
			}
		}
	})
}
