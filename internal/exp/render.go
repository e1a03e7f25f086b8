package exp

import (
	"fmt"
	"strings"

	"lazyrc/internal/config"
	"lazyrc/internal/stats"
)

// table1 renders the system-constant table (Table 1 of the paper): the
// constants of the report's default machine, which no cell reads.
func table1(v *View, _ block) string {
	c := config.Default(v.procs)
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: system parameters (%d processors)\n", c.Procs)
	rows := []struct {
		name  string
		value string
	}{
		{"Cache line size", fmt.Sprintf("%d bytes", c.LineSize)},
		{"Cache size", fmt.Sprintf("%d Kbytes direct-mapped", c.CacheSize>>10)},
		{"Memory setup time", fmt.Sprintf("%d cycles", c.MemSetup)},
		{"Memory bandwidth", fmt.Sprintf("%d bytes/cycle", c.MemBW)},
		{"Bus bandwidth", fmt.Sprintf("%d bytes/cycle", c.BusBW)},
		{"Network bandwidth", fmt.Sprintf("%d bytes/cycle (bidirectional)", c.NetBW)},
		{"Switch node latency", fmt.Sprintf("%d cycles", c.SwitchLat)},
		{"Wire latency", fmt.Sprintf("%d cycles", c.WireLat)},
		{"Write notice processing", fmt.Sprintf("%d cycles", c.NoticeCost)},
		{"LRC directory access cost", fmt.Sprintf("%d cycles", c.DirCostLRC)},
		{"ERC directory access cost", fmt.Sprintf("%d cycles", c.DirCostERC)},
		{"Write buffer entries", fmt.Sprintf("%d", c.WBEntries)},
		{"Coalescing buffer entries", fmt.Sprintf("%d", c.CBEntries)},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-28s %s\n", r.name, r.value)
	}
	return b.String()
}

// table2 renders the classification of misses under eager release
// consistency (the paper's "Figure 2" table).
func table2(v *View, _ block) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: classification of misses under eager release consistency (%%)\n")
	fmt.Fprintf(&b, "  %-12s %8s %8s %8s %9s %8s\n", "Application", "Cold", "True", "False", "Eviction", "Write")
	for _, app := range AppOrder {
		s := v.cell("default", app, "erc").MissShares
		fmt.Fprintf(&b, "  %-12s %7.1f%% %7.1f%% %7.1f%% %8.1f%% %7.1f%%\n", app,
			s[stats.Cold.String()], s[stats.TrueShare.String()], s[stats.FalseShare.String()],
			s[stats.Eviction.String()], s[stats.WriteMiss.String()])
	}
	return b.String()
}

// table3 renders the miss rates under the three relaxed implementations
// (the paper's "Figure 3" table).
func table3(v *View, _ block) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: miss rates under eager, lazy, and lazy-ext release consistency\n")
	fmt.Fprintf(&b, "  %-12s %8s %8s %9s\n", "Application", "Eager", "Lazy", "Lazy-ext")
	for _, app := range AppOrder {
		fmt.Fprintf(&b, "  %-12s %7.2f%% %7.2f%% %8.2f%%\n", app,
			v.cell("default", app, "erc").MissRatePct,
			v.cell("default", app, "lrc").MissRatePct,
			v.cell("default", app, "lrc-ext").MissRatePct)
	}
	return b.String()
}

// bar renders v as an ASCII bar against a full-scale max, with a tick at
// the sequentially consistent baseline (1.0).
func bar(v, max float64, width int) string {
	if max <= 0 {
		max = 1
	}
	fill := int(v / max * float64(width))
	if fill > width {
		fill = width
	}
	tick := int(1.0 / max * float64(width))
	out := make([]byte, width)
	for i := range out {
		switch {
		case i < fill:
			out[i] = '='
		case i == tick:
			out[i] = '|'
		default:
			out[i] = ' '
		}
	}
	return string(out)
}

// figTime is the renderer of a normalized-execution-time figure: the
// plotted protocols on one preset machine, as numbers plus bars (the
// paper presents these as bar charts; the '|' tick marks the
// sequentially consistent baseline).
func figTime(preset, title string, plotted ...string) func(*View, block) string {
	return func(v *View, _ block) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%s\n(execution time normalized to sequential consistency = 1.00)\n", title)
		const scaleMax = 1.25
		for _, app := range AppOrder {
			for i, p := range plotted {
				label := ""
				if i == 0 {
					label = app
				}
				t := v.Normalized(preset, app, p)
				fmt.Fprintf(&b, "  %-12s %-8s %6.3f  %s\n", label, p, t, bar(t, scaleMax, 40))
			}
		}
		return b.String()
	}
}

// figOverhead is the renderer of an overhead-breakdown figure.
func figOverhead(preset, title string, plotted ...string) func(*View, block) string {
	return func(v *View, _ block) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%s\n(aggregate cycles as %% of the sequentially consistent total)\n", title)
		fmt.Fprintf(&b, "  %-12s %-8s %8s %8s %8s %8s %8s\n",
			"Application", "Protocol", "CPU", "Read", "Write", "Sync", "Total")
		for _, app := range AppOrder {
			for _, p := range plotted {
				cpu, rd, wr, sy, _ := v.OverheadShares(preset, app, p)
				fmt.Fprintf(&b, "  %-12s %-8s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
					app, p, 100*cpu, 100*rd, 100*wr, 100*sy, 100*(cpu+rd+wr+sy))
			}
		}
		return b.String()
	}
}
