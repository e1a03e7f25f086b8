package exp

import (
	"fmt"
	"html"
	"io"
	"slices"
	"sort"
	"strconv"

	"lazyrc/internal/protocol"
	"lazyrc/internal/telemetry"
)

// This file renders the evaluation as a self-contained HTML report
// (paperbench -report): normalized execution time as grouped columns,
// the cycle-breakdown stack per protocol, and the full measurements
// table with telemetry digests, appended to one buffer. It reuses the
// telemetry package's page shell, so styling (palette slots, light/dark,
// chrome tokens) is defined in exactly one place.

// A page is at most about htmlHeadBytes of head, stylesheet and chart
// frames, htmlColumnBytes per default-machine run (its two chart columns
// and data-table rows) and htmlRowBytes per run (its row of the table of
// all runs), so one allocation fits most pages.
const htmlHeadBytes, htmlColumnBytes, htmlRowBytes = 6 << 10, 1024, 160

// breakdownLabels names the four cycle categories in stack order.
var breakdownLabels = [4]string{"busy", "read stall", "write stall", "sync stall"}

func appendVal(b []byte, v float64) []byte {
	switch {
	case v == 0:
		return append(b, '0')
	case v >= 100:
		return telemetry.AppendFixed(b, v, 0)
	default:
		return telemetry.AppendFixed(b, v, 2)
	}
}

// columnGroup is one x-axis group (an application) with one column per
// protocol: vals holds each column's segments in turn, one (a plain
// value) or four (a breakdown) per column.
type columnGroup struct {
	label  string
	vals   []float64
	protos []string
}

// appendColumns appends grouped (optionally stacked) columns: ≤24px
// columns with a 4px-rounded data end and square baseline, 2px surface
// gaps between stacked segments, hairline gridlines, hover titles, and a
// backing data table. protos are the protocols the groups hold, in
// column order: plain columns' legend keys and data-table columns; each
// column has a segment per label of segLabels.
func appendColumns(b []byte, groups []columnGroup, protos, segLabels []string, yUnit string) []byte {
	const (
		w      = 900.0
		h      = 260.0
		padL   = 48.0
		padR   = 12.0
		padT   = 12.0
		padB   = 30.0
		colMax = 24.0
	)
	plotW, plotH := w-padL-padR, h-padT-padB
	names := protocol.Names()
	nseg := len(segLabels)
	ymax := 0.0
	for _, g := range groups {
		for c := 0; c < len(g.vals); c += nseg {
			sum := 0.0
			for _, v := range g.vals[c : c+nseg] {
				sum += v
			}
			if sum > ymax {
				ymax = sum
			}
		}
	}
	if ymax == 0 {
		ymax = 1
	}
	// Clean axis max.
	step := ymax / 4
	yTop := ymax * 1.05
	b = telemetry.Fixedf(b, `<svg viewBox="0 0 %.0f %.0f" width="100%" role="img">`+"\n", w, h)
	for g := 0; g <= 4; g++ {
		v := step * float64(g)
		y := padT + plotH*(1-v/yTop)
		if g > 0 {
			b = telemetry.Fixedf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="var(--grid)" stroke-width="1"/>`+"\n",
				padL, y, padL+plotW, y)
		}
		b = telemetry.Fixedf(b, `<text x="%.1f" y="%.1f" font-size="11" fill="var(--text-muted)" text-anchor="end">`, padL-6, y+4)
		b = append(appendVal(b, v), "</text>\n"...)
	}
	b = telemetry.Fixedf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="var(--baseline)" stroke-width="1"/>`+"\n",
		padL, padT+plotH, padL+plotW, padT+plotH)
	b = telemetry.Fixedf(b, `<text x="%.1f" y="%.1f" font-size="11" fill="var(--text-muted)">`, padL, padT-2)
	b = append(append(b, html.EscapeString(yUnit)...), "</text>\n"...)

	groupW := plotW / float64(len(groups))
	for gi, g := range groups {
		ncol := len(g.protos)
		colW := colMax
		if avail := (groupW - 8) / float64(ncol); avail < colW {
			colW = avail
		}
		x0 := padL + float64(gi)*groupW + (groupW-colW*float64(ncol))/2
		for ci := range g.protos {
			st := g.vals[ci*nseg : (ci+1)*nseg]
			x := x0 + float64(ci)*colW
			yBase := padT + plotH
			total := 0.0
			for _, v := range st {
				total += v
			}
			cum := 0.0
			for si, v := range st {
				if v <= 0 {
					continue
				}
				segH := plotH * v / yTop
				yTopSeg := yBase - plotH*(cum+v)/yTop
				slot := si + 1
				if nseg == 1 {
					slot = protoSlot(names, g.protos[ci]) + 1
				}
				// Only the stack's top edge gets the 4px rounded data end;
				// interior segments stay square with a 2px surface gap.
				isTop := cum+v >= total-1e-12
				gapH := segH
				if !isTop && gapH > 2 {
					gapH -= 2
				}
				end := "</title></rect>\n"
				if isTop && gapH > 4 {
					r := 4.0
					cw := colW - 2
					b = telemetry.Fixedf(b, `<path d="M%.1f %.1f L%.1f %.1f Q%.1f %.1f %.1f %.1f L%.1f %.1f Q%.1f %.1f %.1f %.1f L%.1f %.1f Z" fill="var(--s`,
						x, yTopSeg+gapH, x, yTopSeg+r, x, yTopSeg, x+r, yTopSeg,
						x+cw-r, yTopSeg, x+cw, yTopSeg, x+cw, yTopSeg+r, x+cw, yTopSeg+gapH)
					end = "</title></path>\n"
				} else {
					b = telemetry.Fixedf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="var(--s`,
						x, yTopSeg, colW-2, gapH)
				}
				// The hover title: app · protocol[ segment]: value.
				b = append(strconv.AppendInt(b, int64(slot), 10), `)"><title>`...)
				b = append(append(b, html.EscapeString(g.label)...), " · "...)
				b = append(b, html.EscapeString(g.protos[ci])...)
				if nseg > 1 {
					b = append(append(b, ' '), html.EscapeString(segLabels[si])...)
				}
				b = append(appendVal(append(b, ": "...), v), end...)
				cum += v
			}
		}
		b = telemetry.Fixedf(b, `<text x="%.1f" y="%.1f" font-size="11" fill="var(--text-secondary)" text-anchor="middle">`,
			padL+float64(gi)*groupW+groupW/2, h-10)
		b = append(append(b, html.EscapeString(g.label)...), "</text>\n"...)
	}
	b = append(b, "</svg>\n"...)

	// Legend: protocols for plain columns, categories for stacks.
	b = append(b, `<div class="legend">`...)
	keys, slot := segLabels, func(i int) int { return i + 1 }
	if nseg == 1 {
		keys, slot = protos, func(i int) int { return protoSlot(names, protos[i]) + 1 }
	}
	for i, k := range keys {
		b = strconv.AppendInt(append(b, `<span class="key"><span class="swatch" style="background:var(--s`...), int64(slot(i)), 10)
		b = append(append(append(b, `)"></span>`...), html.EscapeString(k)...), "</span>"...)
	}
	b = append(b, "</div>\n"...)

	// Data table.
	cell := func(tag, s string) {
		b = append(append(append(b, "<"+tag+">"...), html.EscapeString(s)...), "</"+tag+">"...)
	}
	b = append(b, "<details><summary>Data table</summary><table><tr><th>app</th>"...)
	if nseg > 1 {
		b = append(b, "<th>protocol</th>"...)
		for _, l := range segLabels {
			cell("th", l)
		}
		b = append(b, "</tr>\n"...)
		for _, g := range groups {
			for ci, p := range g.protos {
				b = append(b, "<tr>"...)
				cell("td", g.label)
				cell("td", p)
				for _, v := range g.vals[ci*nseg : (ci+1)*nseg] {
					b = append(appendVal(append(b, "<td>"...), v), "</td>"...)
				}
				b = append(b, "</tr>\n"...)
			}
		}
	} else {
		for _, p := range protos {
			cell("th", p)
		}
		b = append(b, "</tr>\n"...)
		for _, g := range groups {
			b = append(b, "<tr>"...)
			cell("td", g.label)
			for _, p := range protos {
				b = append(b, "<td>"...)
				if ci := slices.Index(g.protos, p); ci >= 0 {
					b = appendVal(b, g.vals[ci])
				} else {
					b = append(b, "–"...)
				}
				b = append(b, "</td>"...)
			}
			b = append(b, "</tr>\n"...)
		}
	}
	return append(b, "</table></details>\n"...)
}

// WriteHTML renders the evaluation report as a self-contained HTML page.
func WriteHTML(w io.Writer, rep Report) error {
	_, err := w.Write(AppendHTML(nil, rep))
	return err
}

// AppendHTML appends the page WriteHTML writes to dst: charts, sections
// and the table append to one buffer, grown once to a size that fits
// most pages.
func AppendHTML(dst []byte, rep Report) []byte {
	sub := "scale " + rep.Scale + " · " + strconv.Itoa(rep.Procs) + " processors · " + strconv.Itoa(len(rep.Runs)) + " runs"

	// The charts cover the default machine: one group per application
	// present, one column per protocol present, in evaluation order.
	v := rep.View()
	var appNames []string
	seen := map[string]bool{}
	for _, r := range rep.Runs {
		if r.Config == "default" && !seen[r.App] {
			seen[r.App] = true
			appNames = append(appNames, r.App)
		}
	}
	sort.Strings(appNames)

	// Normalized execution time (Figure 4's shape) and the cycle
	// breakdown (Figure 5's), both relative to the app's SC run.
	var normGroups, stackGroups []columnGroup
	size := htmlHeadBytes + htmlRowBytes*len(rep.Runs)
	protos := v.protocols(func(r *ReportRun) bool { return r.Config == "default" })
	for _, app := range appNames {
		ng := columnGroup{label: app}
		sg := columnGroup{label: app}
		for _, p := range protos {
			if _, ok := v.Run("default", app, p); !ok {
				continue
			}
			ng.vals = append(ng.vals, v.Normalized("default", app, p))
			ng.protos = append(ng.protos, p)
			size += htmlColumnBytes
			cpu, rd, wr, sy, ok := v.OverheadShares("default", app, p)
			if !ok {
				continue
			}
			sg.vals = append(sg.vals, cpu, rd, wr, sy)
			sg.protos = append(sg.protos, p)
		}
		normGroups = append(normGroups, ng) // the app has a default run
		if len(sg.protos) > 0 {
			stackGroups = append(stackGroups, sg)
		}
	}
	dst = slices.Grow(dst, size)
	return telemetry.AppendHTMLPage(dst, "Lazy release consistency · evaluation report", sub, func(b []byte) []byte {
		if len(normGroups) > 0 {
			b = telemetry.AppendSection(b, "Normalized execution time (SC = 1)", func(b []byte) []byte {
				return appendColumns(b, normGroups, protos, []string{"normalized time"}, "× SC")
			})
		}
		if len(stackGroups) > 0 {
			b = telemetry.AppendSection(b, "Aggregate cycle breakdown, normalized to SC total", func(b []byte) []byte {
				return appendColumns(b, stackGroups, protos, breakdownLabels[:], "share of SC cycles")
			})
		}
		// Full measurements table, every config.
		return telemetry.AppendSection(b, "All runs", func(b []byte) []byte {
			b = append(b, "<table><tr><th>config</th><th>app</th><th>protocol</th><th>exec cycles</th><th>msgs</th><th>bytes</th><th>miss %</th><th>verified</th><th>metrics digest</th></tr>\n"...)
			for _, r := range rep.Runs {
				b = append(b, "<tr>"...)
				for _, s := range [...]string{r.Config, r.App, r.Protocol} {
					b = append(append(append(b, "<td>"...), html.EscapeString(s)...), "</td>"...)
				}
				for _, n := range [...]uint64{r.ExecCycles, r.NetworkMsgs, r.NetworkBytes} {
					b = append(strconv.AppendUint(append(b, "<td>"...), n, 10), "</td>"...)
				}
				b = telemetry.Fixedf(b, "<td>%.3f</td><td>", r.MissRatePct)
				if r.Verified {
					b = append(b, "yes"...)
				} else {
					b = append(b, "NO"...)
				}
				b = fmt.Appendf(b, "</td><td>%.12s</td></tr>\n", html.EscapeString(r.MetricsDigest))
			}
			return append(b, "</table>\n"...)
		})
	})
}
