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
// changes: the header carries it, so a consumer can refuse a version it
// does not know instead of misreading it.
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
