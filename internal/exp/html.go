package exp

import (
	"fmt"
	"html"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"lazyrc/internal/protocol"
	"lazyrc/internal/telemetry"
)

// This file renders the evaluation as a self-contained HTML report
// (paperbench -report): normalized execution time as grouped columns,
// the cycle-breakdown stack per protocol, and the full measurements
// table with telemetry digests. It reuses the telemetry package's doc
// builder, so styling (palette slots, light/dark, chrome tokens) is
// defined in exactly one place.

// protoSlot is the categorical palette slot of a protocol, its place in
// names, the evaluation order (which is also the column order): color
// follows the protocol, never its rank.
func protoSlot(names []string, proto string) int {
	if i := slices.Index(names, proto); i >= 0 {
		return i
	}
	return len(names)
}

// breakdownLabels names the four cycle categories in stack order.
var breakdownLabels = [4]string{"busy", "read stall", "write stall", "sync stall"}

func writeVal(b *strings.Builder, v float64) {
	switch {
	case v == 0:
		b.WriteByte('0')
	case v >= 100:
		telemetry.Fixedf(b, "%.0f", v)
	default:
		telemetry.Fixedf(b, "%.2f", v)
	}
}

// columnGroup is one x-axis group (an application) with one value per
// column (a protocol): either a plain value or a 4-segment stack.
type columnGroup struct {
	label  string
	stacks [][]float64 // per column: 1 segment (plain) or 4 (breakdown)
	protos []string
}

// groupedColumns renders grouped (optionally stacked) columns: ≤24px
// columns with a 4px-rounded data end and square baseline, 2px surface
// gaps between stacked segments, hairline gridlines, hover titles, and a
// backing data table.
func groupedColumns(groups []columnGroup, segLabels []string, yUnit string) string {
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
	ymax := 0.0
	for _, g := range groups {
		for _, st := range g.stacks {
			sum := 0.0
			for _, v := range st {
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
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %g %g" width="100%%" role="img">`+"\n", w, h)
	for g := 0; g <= 4; g++ {
		v := step * float64(g)
		y := padT + plotH*(1-v/yTop)
		if g > 0 {
			telemetry.Fixedf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="var(--grid)" stroke-width="1"/>`+"\n",
				padL, y, padL+plotW, y)
		}
		telemetry.Fixedf(&b, `<text x="%.1f" y="%.1f" font-size="11" fill="var(--text-muted)" text-anchor="end">`, padL-6, y+4)
		writeVal(&b, v)
		b.WriteString("</text>\n")
	}
	telemetry.Fixedf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="var(--baseline)" stroke-width="1"/>`+"\n",
		padL, padT+plotH, padL+plotW, padT+plotH)
	if yUnit != "" {
		telemetry.Fixedf(&b, `<text x="%.1f" y="%.1f" font-size="11" fill="var(--text-muted)">`, padL, padT-2)
		b.WriteString(html.EscapeString(yUnit) + "</text>\n")
	}

	groupW := plotW / float64(len(groups))
	for gi, g := range groups {
		ncol := len(g.stacks)
		colW := colMax
		if avail := (groupW - 8) / float64(ncol); avail < colW {
			colW = avail
		}
		x0 := padL + float64(gi)*groupW + (groupW-colW*float64(ncol))/2
		for ci, st := range g.stacks {
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
				if len(st) == 1 {
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
					telemetry.Fixedf(&b, `<path d="M%.1f %.1f L%.1f %.1f Q%.1f %.1f %.1f %.1f L%.1f %.1f Q%.1f %.1f %.1f %.1f L%.1f %.1f Z" fill="var(--s`,
						x, yTopSeg+gapH, x, yTopSeg+r, x, yTopSeg, x+r, yTopSeg,
						x+cw-r, yTopSeg, x+cw, yTopSeg, x+cw, yTopSeg+r, x+cw, yTopSeg+gapH)
					end = "</title></path>\n"
				} else {
					telemetry.Fixedf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="var(--s`,
						x, yTopSeg, colW-2, gapH)
				}
				// The hover title: app · protocol[ segment]: value.
				b.WriteString(strconv.Itoa(slot))
				b.WriteString(`)"><title>`)
				b.WriteString(html.EscapeString(g.label))
				b.WriteString(" · ")
				b.WriteString(html.EscapeString(g.protos[ci]))
				if len(st) > 1 {
					b.WriteString(" ")
					b.WriteString(html.EscapeString(segLabels[si]))
				}
				b.WriteString(": ")
				writeVal(&b, v)
				b.WriteString(end)
				cum += v
			}
		}
		telemetry.Fixedf(&b, `<text x="%.1f" y="%.1f" font-size="11" fill="var(--text-secondary)" text-anchor="middle">`,
			padL+float64(gi)*groupW+groupW/2, h-10)
		b.WriteString(html.EscapeString(g.label) + "</text>\n")
	}
	b.WriteString("</svg>\n")

	// Legend: protocols for plain columns, categories for stacks.
	b.WriteString(`<div class="legend">`)
	if len(segLabels) > 1 {
		for i, l := range segLabels {
			fmt.Fprintf(&b, `<span class="key"><span class="swatch" style="background:var(--s%d)"></span>%s</span>`,
				i+1, html.EscapeString(l))
		}
	} else {
		for i, p := range names {
			fmt.Fprintf(&b, `<span class="key"><span class="swatch" style="background:var(--s%d)"></span>%s</span>`,
				i+1, html.EscapeString(p))
		}
	}
	b.WriteString("</div>\n")

	// Data table.
	b.WriteString("<details><summary>Data table</summary><table><tr><th>app</th>")
	if len(segLabels) > 1 {
		b.WriteString("<th>protocol</th>")
		for _, l := range segLabels {
			fmt.Fprintf(&b, "<th>%s</th>", html.EscapeString(l))
		}
		b.WriteString("</tr>\n")
		for _, g := range groups {
			for ci, st := range g.stacks {
				b.WriteString("<tr><td>" + html.EscapeString(g.label) + "</td><td>" + html.EscapeString(g.protos[ci]) + "</td>")
				for _, v := range st {
					b.WriteString("<td>")
					writeVal(&b, v)
					b.WriteString("</td>")
				}
				b.WriteString("</tr>\n")
			}
		}
	} else {
		for _, p := range names {
			fmt.Fprintf(&b, "<th>%s</th>", html.EscapeString(p))
		}
		b.WriteString("</tr>\n")
		for _, g := range groups {
			b.WriteString("<tr><td>" + html.EscapeString(g.label) + "</td>")
			for _, p := range names {
				b.WriteString("<td>")
				if ci := slices.Index(g.protos, p); ci >= 0 {
					writeVal(&b, g.stacks[ci][0])
				} else {
					b.WriteString("–")
				}
				b.WriteString("</td>")
			}
			b.WriteString("</tr>\n")
		}
	}
	b.WriteString("</table></details>\n")
	return b.String()
}

// WriteHTML renders the evaluation report as a self-contained HTML page.
func WriteHTML(w io.Writer, rep Report) error {
	sub := fmt.Sprintf("scale %s · %d processors · %d runs", rep.Scale, rep.Procs, len(rep.Runs))
	doc := telemetry.NewHTMLDoc("Lazy release consistency · evaluation report", sub)

	// The charts cover the default machine: one group per application
	// present, one column per protocol present.
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
	names := protocol.Names()
	for _, app := range appNames {
		ng := columnGroup{label: app}
		sg := columnGroup{label: app}
		for _, p := range names {
			if _, ok := v.Run("default", app, p); !ok {
				continue
			}
			ng.stacks = append(ng.stacks, []float64{v.Normalized("default", app, p)})
			ng.protos = append(ng.protos, p)
			cpu, rd, wr, sy, ok := v.OverheadShares("default", app, p)
			if !ok {
				continue
			}
			sg.stacks = append(sg.stacks, []float64{cpu, rd, wr, sy})
			sg.protos = append(sg.protos, p)
		}
		if len(ng.stacks) > 0 {
			normGroups = append(normGroups, ng)
		}
		if len(sg.stacks) > 0 {
			stackGroups = append(stackGroups, sg)
		}
	}
	if len(normGroups) > 0 {
		doc.Section("Normalized execution time (SC = 1)",
			groupedColumns(normGroups, []string{"normalized time"}, "× SC"))
	}
	if len(stackGroups) > 0 {
		doc.Section("Aggregate cycle breakdown, normalized to SC total",
			groupedColumns(stackGroups, breakdownLabels[:], "share of SC cycles"))
	}

	// Full measurements table, every config.
	var b strings.Builder
	b.WriteString("<table><tr><th>config</th><th>app</th><th>protocol</th><th>exec cycles</th><th>msgs</th><th>bytes</th><th>miss %</th><th>verified</th><th>metrics digest</th></tr>\n")
	var num [20]byte
	for _, r := range rep.Runs {
		ok := "yes"
		if !r.Verified {
			ok = "NO"
		}
		b.WriteString("<tr>")
		for _, s := range [...]string{r.Config, r.App, r.Protocol} {
			b.WriteString("<td>")
			b.WriteString(html.EscapeString(s))
			b.WriteString("</td>")
		}
		for _, n := range [...]uint64{r.ExecCycles, r.NetworkMsgs, r.NetworkBytes} {
			b.WriteString("<td>")
			b.Write(strconv.AppendUint(num[:0], n, 10))
			b.WriteString("</td>")
		}
		telemetry.Fixedf(&b, "<td>%.3f</td><td>", r.MissRatePct)
		b.WriteString(ok)
		fmt.Fprintf(&b, "</td><td>%.12s</td></tr>\n", html.EscapeString(r.MetricsDigest))
	}
	b.WriteString("</table>\n")
	doc.Section("All runs", b.String())

	return doc.Render(w)
}
