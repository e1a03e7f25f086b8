package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
)

// timesLine and seriesLine are the tick-timestamp line (one per export)
// and a series line as encoding/json writes them; Export appends the same
// bytes with strconv.
type timesLine struct {
	Kind   string   `json:"kind"`
	Cycles []uint64 `json:"cycles"`
}

type seriesLine struct {
	Kind   string    `json:"kind"`
	Name   string    `json:"name"`
	Mode   string    `json:"mode"`
	Points []float64 `json:"points"`
}

// RefExport is refExport, for the tests outside the package.
var RefExport = refExport

// refExport is the reference writer Export is held to: every line written
// by encoding/json, reflecting over the line structs.
func refExport(r *Registry, w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr := Header{
		Schema: SchemaVersion, Interval: r.interval,
		Samples: len(r.times), Series: len(r.series), Hists: len(r.hists), Meta: r.meta,
	}
	if len(hdr.Meta) == 0 {
		hdr.Meta = nil
	}
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	times := r.times
	if times == nil {
		times = []uint64{}
	}
	if err := enc.Encode(timesLine{Kind: "times", Cycles: times}); err != nil {
		return err
	}
	for _, s := range r.sortedSeries() {
		pts := s.Points()
		if pts == nil {
			pts = []float64{}
		}
		if err := enc.Encode(seriesLine{Kind: "series", Name: s.name, Mode: s.mode.String(), Points: pts}); err != nil {
			return err
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
			return err
		}
	}
	return bw.Flush()
}
