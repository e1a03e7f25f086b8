package telemetry

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
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

// timesLine is the tick-timestamp line (exactly one per export). Export
// writes it and the series lines with appendTimes and appendSeries, byte
// for byte what encoding/json writes for these structs; load reads them
// with encoding/json.
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
// shape fingerprint. The times and series lines, nearly all of its bytes,
// are appended with strconv rather than reflected over.
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
	// A write error sticks in bw, and Flush returns it.
	line := appendTimes(make([]byte, 0, 4096), r.times)
	bw.Write(line)
	for _, s := range r.sortedSeries() {
		var err error
		if line, err = appendSeries(line[:0], s); err != nil {
			return fmt.Errorf("telemetry: encoding series %q: %w", s.name, err)
		}
		bw.Write(line)
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

// appendTimes appends the times line.
func appendTimes(b []byte, times []uint64) []byte {
	b = append(b, `{"kind":"times","cycles":[`...)
	for i, t := range times {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, t, 10)
	}
	return append(b, "]}\n"...)
}

// appendSeries appends s's line. A point JSON cannot carry (NaN, ±Inf) is
// an error, as it is to encoding/json.
func appendSeries(b []byte, s *Series) ([]byte, error) {
	b = append(b, `{"kind":"series","name":`...)
	b = appendString(b, s.name)
	b = append(b, `,"mode":"`...)
	b = append(b, s.mode.String()...)
	b = append(b, `","points":[`...)
	for _, c := range s.chunks {
		for _, v := range c {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return b, fmt.Errorf("unsupported value %v", v)
			}
			b = append(appendFloat(b, v), ',')
		}
	}
	if s.n > 0 {
		b = b[:len(b)-1] // the last comma
	}
	return append(b, "]}\n"...), nil
}

// appendFloat appends v as encoding/json writes a float64: the shortest
// representation that round-trips, in exponent form outside [1e-6, 1e21)
// with a one-digit negative exponent written without its leading zero.
func appendFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	f := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		f = 'e'
	}
	b = strconv.AppendFloat(b, v, f, -1, 64)
	if f == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string. Names are plain ASCII; anything
// encoding/json would escape goes through it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
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
// of everything load rejects, the header must carry accurate counts, the
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
		if s.n != hdr.Samples {
			return hdr, fmt.Errorf("telemetry: series %q has %d points, header says %d samples",
				s.name, s.n, hdr.Samples)
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

// load reads a JSONL export back into a registry — the report renderer
// and offline tooling work from files the same way they work from a live
// registry. The export is checked structurally while loading: current
// schema version, exactly one times line, one line per series or
// histogram name, known line kinds and series modes, in-range bucket
// indexes. Validate adds the consistency checks.
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
			if reg.byName[sl.Name] != nil {
				return fail(fmt.Errorf("duplicate series %q", sl.Name))
			}
			s := reg.Series(sl.Name, mode)
			s.chunks, s.n = [][]float64{sl.Points}, len(sl.Points)
		case "hist":
			var hl histLine
			if err := json.Unmarshal(sc.Bytes(), &hl); err != nil {
				return fail(err)
			}
			if reg.histBy[hl.Name] != nil {
				return fail(fmt.Errorf("duplicate histogram %q", hl.Name))
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
