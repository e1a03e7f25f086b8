package exp

import (
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestHTMLColumnsAreTheReportsProtocols: the HTML report's protocol
// legend and data-table columns are the protocols the report holds, in
// evaluation order — BENCH_baseline.json has no tardis cell, so no tardis
// key and no column of dashes — and a swatch keeps its protocol's color
// when another protocol is absent.
func TestHTMLColumnsAreTheReportsProtocols(t *testing.T) {
	rep, err := LoadReport("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	legend := regexp.MustCompile(`<div class="legend">(.*?)</div>`)
	key := regexp.MustCompile(`<span class="swatch" style="background:var\(--s(\d+)\)"></span>([^<]*)</span>`)
	header := regexp.MustCompile(`<tr><th>app</th>((?:<th>[^<]*</th>)*)</tr>`)
	column := regexp.MustCompile(`<th>([^<]*)</th>`)
	render := func() (keys, cols []string) {
		t.Helper()
		var b strings.Builder
		if err := WriteHTML(&b, rep); err != nil {
			t.Fatal(err)
		}
		page := b.String()
		// The first legend and data table are the normalized-time chart's:
		// one key and one column per protocol.
		for _, m := range key.FindAllStringSubmatch(legend.FindStringSubmatch(page)[1], -1) {
			keys = append(keys, m[2]+"=s"+m[1])
		}
		for _, m := range column.FindAllStringSubmatch(header.FindStringSubmatch(page)[1], -1) {
			cols = append(cols, m[1])
		}
		return keys, cols
	}

	keys, cols := render()
	if want := []string{"sc=s1", "erc=s2", "lrc=s3", "lrc-ext=s4"}; !slices.Equal(keys, want) {
		t.Errorf("legend %v, want %v", keys, want)
	}
	if want := []string{"sc", "erc", "lrc", "lrc-ext"}; !slices.Equal(cols, want) {
		t.Errorf("data-table columns %v, want %v", cols, want)
	}

	rep.Runs = slices.DeleteFunc(slices.Clone(rep.Runs), func(r ReportRun) bool { return r.Protocol == "erc" })
	keys, cols = render()
	if want := []string{"sc=s1", "lrc=s3", "lrc-ext=s4"}; !slices.Equal(keys, want) {
		t.Errorf("without erc, legend %v, want %v", keys, want)
	}
	if want := []string{"sc", "lrc", "lrc-ext"}; !slices.Equal(cols, want) {
		t.Errorf("without erc, data-table columns %v, want %v", cols, want)
	}
}
