package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// This file writes the registry snapshot in the Prometheus text
// exposition format (version 0.0.4): HELP and TYPE comments followed by
// samples, histograms expanded into cumulative _bucket/_sum/_count
// series. Output is deterministic — families sorted by name, samples by
// label values — so tests can diff scrapes.

// WriteExposition writes the full registry in exposition format.
func (r *Registry) WriteExposition(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, fam := range r.Snapshot() {
		if err := writeFamily(bw, fam); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Handler returns the GET /metrics handler.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteExposition(w)
	})
}

func writeFamily(w *bufio.Writer, fam Family) error {
	if fam.Help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam.Name, helpEscaper.Replace(fam.Help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.Name, fam.Kind); err != nil {
		return err
	}
	for _, s := range fam.Samples {
		if fam.Kind == KindHistogram {
			if err := writeHistogram(w, fam.Name, s); err != nil {
				return err
			}
			continue
		}
		if err := writeSample(w, fam.Name, s.Labels, s.Value); err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w *bufio.Writer, name string, s Sample) error {
	for _, b := range s.Buckets {
		le := formatFloat(b.LE)
		if math.IsInf(b.LE, 1) {
			le = "+Inf"
		}
		lbs := append(append([]Label(nil), s.Labels...), Label{Name: "le", Value: le})
		if err := writeSample(w, name+"_bucket", lbs, float64(b.Count)); err != nil {
			return err
		}
	}
	if err := writeSample(w, name+"_sum", s.Labels, s.Sum); err != nil {
		return err
	}
	return writeSample(w, name+"_count", s.Labels, float64(s.Count))
}

func writeSample(w *bufio.Writer, name string, labels []Label, v float64) error {
	w.WriteString(name)
	if len(labels) > 0 {
		w.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(l.Name)
			w.WriteString(`="`)
			w.WriteString(labelEscaper.Replace(l.Value))
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatFloat(v))
	return w.WriteByte('\n')
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
