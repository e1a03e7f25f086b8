package perf

import (
	"fmt"
	"html"
	"io"
	"strings"
	"time"

	"lazyrc/internal/telemetry"
)

// CellPerf is one matrix cell's profile handed to the HTML report.
type CellPerf struct {
	App   string
	Proto string
	Snap  Snapshot
}

// WriteHTML renders the perf report: a throughput table over the
// measured cells, a phase-time stack across the matrix (where does the
// wall clock go, cell by cell), and the cycles/sec trend over committed
// entries. It reuses the telemetry report shell so perf pages read as
// part of the same product, but every number here is wall-clock
// provenance, never simulated-state identity.
func WriteHTML(w io.Writer, subtitle string, cells []CellPerf, trend *Trend) error {
	doc := telemetry.NewHTMLDoc("simulator performance", subtitle)

	if len(cells) > 0 {
		doc.Section("Throughput by cell", cellTable(cells))
		doc.Section("Wall-clock phase breakdown by cell", phaseStack(cells))
	}
	if trend != nil && len(trend.Entries) > 0 {
		doc.Section(
			fmt.Sprintf("Cycles/sec trend (%d committed entries, scale %s, %d procs)",
				len(trend.Entries), trend.Scale, trend.Procs),
			trendChart(trend))
	}
	return doc.Render(w)
}

// cellTable renders the per-(app,proto) throughput and allocator table.
func cellTable(cells []CellPerf) string {
	var b strings.Builder
	b.WriteString("<table><tr><th>app</th><th>proto</th><th>cycles</th><th>events</th><th>wall</th><th>Mcycles/s</th><th>Mevents/s</th><th>alloc MB</th><th>gc</th></tr>\n")
	for _, c := range cells {
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%s</td><td>%.2f</td><td>%.2f</td><td>%.1f</td><td>%d</td></tr>\n",
			html.EscapeString(c.App), html.EscapeString(c.Proto),
			c.Snap.Cycles, c.Snap.Events,
			time.Duration(c.Snap.WallNS).Truncate(time.Millisecond).String(),
			c.Snap.CyclesPerSec/1e6, c.Snap.EventsPerSec/1e6,
			float64(c.Snap.AllocBytes)/1e6, c.Snap.GCCycles)
	}
	b.WriteString("</table>\n")
	return b.String()
}

// phaseStack renders phase milliseconds stacked per cell, x = cell
// index in the order measured, one series per phase in taxonomy order.
func phaseStack(cells []CellPerf) string {
	times := make([]uint64, len(cells))
	var labels []string
	for i, c := range cells {
		times[i] = uint64(i)
		labels = append(labels, c.App+"/"+c.Proto)
	}
	var series []telemetry.ChartSeries
	for ph := Phase(0); ph < NumPhases; ph++ {
		pts := make([]float64, len(cells))
		any := false
		for i, c := range cells {
			ns := c.Snap.Phases[ph.String()]
			pts[i] = float64(ns) / 1e6 // ms
			if ns != 0 {
				any = true
			}
		}
		if n := len(series); any && n < 8 {
			series = append(series, telemetry.ChartSeries{Label: ph.String(), Slot: n, Points: pts})
		} else if any { // the palette has eight slots: the last phases share one
			series[7].Label += "+" + ph.String()
			for i, v := range pts {
				series[7].Points[i] += v
			}
		}
	}
	var b strings.Builder
	b.WriteString(telemetry.StackedAreaChart(times, series, "ms"))
	// The x-axis is a cell index; spell out the mapping underneath.
	b.WriteString(`<p class="meta">x-axis: cell index — `)
	for i, l := range labels {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d=%s", i, html.EscapeString(l))
	}
	b.WriteString("</p>\n")
	return b.String()
}

// trendChart renders one line per protocol: the mean cycles/sec over
// that protocol's cells, per committed trend entry (x = entry index).
func trendChart(trend *Trend) string {
	times := make([]uint64, len(trend.Entries))
	for i := range trend.Entries {
		times[i] = uint64(i)
	}
	// Stable protocol order: first appearance across entries.
	var protos []string
	seen := map[string]bool{}
	for _, e := range trend.Entries {
		for _, c := range e.Cells {
			if !seen[c.Proto] {
				seen[c.Proto] = true
				protos = append(protos, c.Proto)
			}
		}
	}
	var series []telemetry.ChartSeries
	for slot, proto := range protos {
		pts := make([]float64, len(trend.Entries))
		for i, e := range trend.Entries {
			var sum float64
			var n int
			for _, c := range e.Cells {
				if c.Proto == proto {
					sum += c.CyclesPerSec
					n++
				}
			}
			if n > 0 {
				pts[i] = sum / float64(n) / 1e6 // Mcycles/s
			}
		}
		series = append(series, telemetry.ChartSeries{Label: proto, Slot: slot, Points: pts})
	}
	var b strings.Builder
	b.WriteString(telemetry.LineChart(times, series, "Mcycles/s (mean over apps)"))
	b.WriteString("<table><tr><th>entry</th><th>when</th><th>host</th><th>go</th></tr>\n")
	for i, e := range trend.Entries {
		fmt.Fprintf(&b, "<tr><td>%d</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			i, html.EscapeString(e.When), html.EscapeString(e.Host), html.EscapeString(e.GoVersion))
	}
	b.WriteString("</table>\n")
	return b.String()
}
