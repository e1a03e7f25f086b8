package telemetry

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// SchemaVersion identifies the JSONL export format. Bump it whenever the
// line shapes, the series naming convention, or the digest definition
// changes: consumers (the CI validator, the regression gate) refuse
// mismatched versions instead of misreading them.
const SchemaVersion = "lazyrc-metrics-v1"

// Header is the first line of every export.
type Header struct {
	Schema   string            `json:"schema"`
	Interval uint64            `json:"interval"`
	Samples  int               `json:"samples"`
	Series   int               `json:"series"`
	Hists    int               `json:"hists"`
	Meta     map[string]string `json:"meta,omitempty"`
}

// timesLine is the tick-timestamp line (exactly one per export).
type timesLine struct {
	Kind   string   `json:"kind"`
	Cycles []uint64 `json:"cycles"`
}

// seriesLine is one time series.
type seriesLine struct {
	Kind   string    `json:"kind"`
	Name   string    `json:"name"`
	Mode   string    `json:"mode"`
	Points []float64 `json:"points"`
}

// histLine is one histogram with its sparse log₂ buckets and
// pre-computed quantiles.
type histLine struct {
	Kind    string      `json:"kind"`
	Name    string      `json:"name"`
	Count   uint64      `json:"count"`
	Sum     uint64      `json:"sum"`
	Min     uint64      `json:"min"`
	Max     uint64      `json:"max"`
	Buckets [][2]uint64 `json:"buckets,omitempty"`
	P50     float64     `json:"p50"`
	P90     float64     `json:"p90"`
	P99     float64     `json:"p99"`
}

// Export writes the registry as versioned JSONL: a header line, one
// times line, one line per series (sorted by name), one line per
// histogram (sorted by name). The byte stream is canonical — a pure
// function of the collected data — so its SHA-256 is a meaningful
// shape fingerprint.
func (r *Registry) Export(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("telemetry: exporting a nil registry")
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr := Header{
		Schema:   SchemaVersion,
		Interval: r.interval,
		Samples:  len(r.times),
		Series:   len(r.series),
		Hists:    len(r.hists),
		Meta:     r.meta,
	}
	if len(hdr.Meta) == 0 {
		hdr.Meta = nil
	}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("telemetry: encoding header: %w", err)
	}
	times := r.times
	if times == nil {
		times = []uint64{}
	}
	if err := enc.Encode(timesLine{Kind: "times", Cycles: times}); err != nil {
		return fmt.Errorf("telemetry: encoding times: %w", err)
	}
	for _, s := range r.sortedSeries() {
		pts := s.pts
		if pts == nil {
			pts = []float64{}
		}
		line := seriesLine{Kind: "series", Name: s.name, Mode: s.mode.String(), Points: pts}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("telemetry: encoding series %q: %w", s.name, err)
		}
	}
	for _, h := range r.sortedHists() {
		line := histLine{
			Kind: "hist", Name: h.name,
			Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
			Buckets: h.Buckets(),
			P50:     h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
		}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("telemetry: encoding histogram %q: %w", h.name, err)
		}
	}
	return bw.Flush()
}

// Digest returns the hex SHA-256 of the canonical export — the shape
// fingerprint attached to runner results. Two runs with identical time
// series and histograms digest identically; any drift in when cycles
// were spent or where traffic flowed changes it, even when end-of-run
// totals happen to agree.
func (r *Registry) Digest() string {
	if r == nil {
		return ""
	}
	h := sha256.New()
	// Export to a hash never fails: every value is a plain scalar.
	if err := r.Export(h); err != nil {
		panic("telemetry: digest export failed: " + err.Error())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Validate reads a JSONL export and checks it against the schema: on top
// of everything Load rejects, the header must carry accurate counts, the
// tick timestamps must be strictly increasing with one per sample, every
// series must carry exactly one point per sample, and every histogram's
// bucket counts must sum to its count. It returns the parsed header
// (also alongside an error, once the header itself parsed).
func Validate(rd io.Reader) (Header, error) {
	reg, hdr, err := load(rd)
	if err != nil {
		return hdr, err
	}
	if len(reg.times) != hdr.Samples {
		return hdr, fmt.Errorf("telemetry: %d timestamps, header says %d samples", len(reg.times), hdr.Samples)
	}
	for i := 1; i < len(reg.times); i++ {
		if reg.times[i] <= reg.times[i-1] {
			return hdr, fmt.Errorf("telemetry: timestamps not strictly increasing at index %d", i)
		}
	}
	if len(reg.series) != hdr.Series {
		return hdr, fmt.Errorf("telemetry: %d distinct series, header says %d", len(reg.series), hdr.Series)
	}
	if len(reg.hists) != hdr.Hists {
		return hdr, fmt.Errorf("telemetry: %d distinct histograms, header says %d", len(reg.hists), hdr.Hists)
	}
	for _, s := range reg.series {
		if len(s.pts) != hdr.Samples {
			return hdr, fmt.Errorf("telemetry: series %q has %d points, header says %d samples",
				s.name, len(s.pts), hdr.Samples)
		}
	}
	for _, h := range reg.hists {
		var sum uint64
		for _, c := range h.counts {
			sum += c
		}
		if sum != h.count {
			return hdr, fmt.Errorf("telemetry: histogram %q buckets sum to %d, count is %d", h.name, sum, h.count)
		}
	}
	return hdr, nil
}

// Load reads a JSONL export back into a registry — the report renderer
// and offline tooling work from files the same way they work from a live
// registry. The export is checked structurally while loading: current
// schema version, exactly one times line, known line kinds and series
// modes, in-range bucket indexes. Validate adds the consistency checks.
func Load(rd io.Reader) (*Registry, error) {
	reg, _, err := load(rd)
	return reg, err
}

// load is the one JSONL parser behind Load and Validate.
func load(rd io.Reader) (*Registry, Header, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	if !sc.Scan() {
		return nil, Header{}, fmt.Errorf("telemetry: empty export")
	}
	var hdr Header
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, Header{}, fmt.Errorf("telemetry: parsing header: %w", err)
	}
	if hdr.Schema != SchemaVersion {
		return nil, hdr, fmt.Errorf("telemetry: schema %q, want %q", hdr.Schema, SchemaVersion)
	}
	reg := NewRegistry(hdr.Interval)
	for k, v := range hdr.Meta {
		reg.SetMeta(k, v)
	}
	sawTimes := false
	lineNo := 1
	fail := func(err error) (*Registry, Header, error) {
		return nil, hdr, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
	}
	for sc.Scan() {
		lineNo++
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			return fail(err)
		}
		switch probe.Kind {
		case "times":
			if sawTimes {
				return fail(fmt.Errorf("duplicate times line"))
			}
			sawTimes = true
			var tl timesLine
			if err := json.Unmarshal(sc.Bytes(), &tl); err != nil {
				return fail(err)
			}
			reg.times = tl.Cycles
		case "series":
			var sl seriesLine
			if err := json.Unmarshal(sc.Bytes(), &sl); err != nil {
				return fail(err)
			}
			var mode Mode
			switch sl.Mode {
			case "level":
				mode = Level
			case "delta":
				mode = Delta
			default:
				return fail(fmt.Errorf("series %q has unknown mode %q", sl.Name, sl.Mode))
			}
			reg.Series(sl.Name, mode).pts = sl.Points
		case "hist":
			var hl histLine
			if err := json.Unmarshal(sc.Bytes(), &hl); err != nil {
				return fail(err)
			}
			h := reg.Histogram(hl.Name)
			h.count, h.sum, h.min, h.max = hl.Count, hl.Sum, hl.Min, hl.Max
			for _, b := range hl.Buckets {
				if err := h.setBucket(b[0], b[1]); err != nil {
					return fail(fmt.Errorf("histogram %q: %w", hl.Name, err))
				}
			}
		default:
			return fail(fmt.Errorf("unknown kind %q", probe.Kind))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, hdr, fmt.Errorf("telemetry: reading export: %w", err)
	}
	if !sawTimes {
		return nil, hdr, fmt.Errorf("telemetry: export has no times line")
	}
	return reg, hdr, nil
}
