package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval around a call into a layer. Times are
// nanoseconds since the tracer was made; Parent is 0 for a rep's root span.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	// Async marks a span rebuilt from another goroutine's events: it runs
	// beside its siblings, not inside the caller's timeline, so it takes no
	// part in the self-time sums.
	Async bool   `json:"async,omitempty"`
	Note  string `json:"note,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so workloads call it unconditionally and the untraced pass pays
// one nil check per layer call.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	rep      int
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span under parent and returns its id (0 from a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	return t.record(span{Parent: parent, Name: name, Start: t.now(), End: -1})
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do records fn as one span under parent.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// async records a finished span from timestamps another goroutine took on
// the tracer's clock: the job spans rebuilt from the service's event stream.
func (t *tracer) async(name string, parent int, start, end int64, note string) {
	t.record(span{Parent: parent, Name: name, Start: start, End: end, Async: true, Note: note})
}

func (t *tracer) record(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID, s.Workload, s.Rep = len(t.spans)+1, t.workload, t.rep
	t.spans = append(t.spans, s)
	return s.ID
}

// now is the tracer's clock.
func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its children cover (the union of their
// intervals, clipped to the parent). The self times of one rep therefore
// add up to the rep's root span.
func (t *tracer) selfTimes() map[string]int64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if !s.Async {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	for _, s := range t.spans {
		if s.Async {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
