package telemetry

import (
	"fmt"
	"html"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file is the shell of the self-contained single-file HTML report
// (paperbench -report and lrcsimd's sweep reports): all data is
// inlined as tables and SVG, no scripts, no external assets; light/dark via CSS
// custom properties. The numbers on them are AppendFixed's.

const reportCSS = `
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page);
  color: var(--text-primary);
  margin: 0;
  padding: 24px;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --grid: #2c2c2a;
    --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
  }
}
.viz-root h1 { font-size: 20px; font-weight: 600; margin: 0 0 4px; }
.viz-root h2 { font-size: 15px; font-weight: 600; margin: 28px 0 8px; }
.viz-root .sub { color: var(--text-secondary); font-size: 13px; margin: 0 0 16px; }
.viz-root .card {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 16px;
  margin: 0 0 16px;
  max-width: 960px;
}
.viz-root .legend { display: flex; flex-wrap: wrap; gap: 14px; margin: 8px 0 0; font-size: 12px; color: var(--text-secondary); }
.viz-root .legend .key { display: inline-flex; align-items: center; gap: 6px; }
.viz-root .legend .swatch { width: 12px; height: 12px; border-radius: 3px; display: inline-block; }
.viz-root svg text { font-family: inherit; }
.viz-root details { margin-top: 8px; font-size: 12px; }
.viz-root details summary { color: var(--text-muted); cursor: pointer; }
.viz-root table { border-collapse: collapse; margin-top: 8px; font-size: 12px; }
.viz-root th, .viz-root td { padding: 3px 10px; text-align: right; font-variant-numeric: tabular-nums; }
.viz-root th { color: var(--text-secondary); font-weight: 600; border-bottom: 1px solid var(--grid); }
.viz-root th:first-child, .viz-root td:first-child { text-align: left; }
.viz-root .meta { font-size: 12px; color: var(--text-secondary); }
.viz-root .meta td { text-align: left; }
`

// HTMLDoc accumulates report sections and writes one self-contained page.
type HTMLDoc struct {
	title    string
	subtitle string
	body     strings.Builder
}

// NewHTMLDoc starts a report page with the given title and subtitle.
func NewHTMLDoc(title, subtitle string) *HTMLDoc {
	return &HTMLDoc{title: title, subtitle: subtitle}
}

// Section appends a heading followed by pre-rendered card content.
func (d *HTMLDoc) Section(heading, inner string) {
	if heading != "" {
		fmt.Fprintf(&d.body, "<h2>%s</h2>\n", html.EscapeString(heading))
	}
	d.body.WriteString(`<div class="card">` + "\n")
	d.body.WriteString(inner)
	d.body.WriteString("\n</div>\n")
}

// Render writes the complete page.
func (d *HTMLDoc) Render(w io.Writer) error {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	b.WriteString("<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n")
	fmt.Fprintf(&b, "<title>%s</title>\n", html.EscapeString(d.title))
	b.WriteString("<style>" + reportCSS + "</style>\n</head>\n<body class=\"viz-root\">\n")
	fmt.Fprintf(&b, "<h1>%s</h1>\n", html.EscapeString(d.title))
	if d.subtitle != "" {
		fmt.Fprintf(&b, "<p class=\"sub\">%s</p>\n", html.EscapeString(d.subtitle))
	}
	// Head, body and tail go out as they are: the body is most of the
	// page, and copying it into one string first would double the bytes.
	for _, part := range [...]string{b.String(), d.body.String(), "</body>\n</html>\n"} {
		if _, err := io.WriteString(w, part); err != nil {
			return err
		}
	}
	return nil
}

// fixedScale holds the powers of ten AppendFixed rounds at in float64.
var fixedScale = [...]float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6}

// AppendFixed appends v with prec digits after the point, byte for byte
// what fmt's %.*f (strconv's 'f' format) prints. Both of those take the
// multiprecision path for any explicit 'f' precision; here |v|·10^prec
// is rounded in float64 instead, which is exact while the product is
// below 1e9 (half an ulp is then under 1e-7) and its fraction is not
// within 1e-6 of a .5 tie. Everything else — near-ties, NaN, ±Inf, huge
// magnitudes, prec outside 0–6 — falls back to strconv.
func AppendFixed(dst []byte, v float64, prec int) []byte {
	if prec < 0 || prec >= len(fixedScale) {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	scaled := math.Abs(v) * fixedScale[prec]
	whole := math.Floor(scaled)
	frac := scaled - whole
	if !(scaled < 1e9) || math.Abs(frac-0.5) < 1e-6 {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	r := uint64(whole)
	if frac > 0.5 {
		r++
	}
	if math.Signbit(v) {
		dst = append(dst, '-') // as strconv: -0.01 at one digit is "-0.0"
	}
	unit := uint64(fixedScale[prec])
	dst = strconv.AppendUint(dst, r/unit, 10)
	if prec > 0 {
		dst = append(dst, '.')
		for d := unit / 10; d > 0; d /= 10 {
			dst = append(dst, byte('0'+r%unit/d%10))
		}
	}
	return dst
}

// Fixedf writes format to b with its %.Nf verbs (N one digit) replaced,
// in order, by vs through AppendFixed: what fmt.Fprintf prints for float
// arguments, without boxing them. format must hold a verb per value.
func Fixedf(b *strings.Builder, format string, vs ...float64) {
	var num [32]byte
	for _, v := range vs {
		i := strings.Index(format, "%.")
		b.WriteString(format[:i])
		b.Write(AppendFixed(num[:0], v, int(format[i+2]-'0')))
		format = format[i+4:]
	}
	b.WriteString(format)
}
