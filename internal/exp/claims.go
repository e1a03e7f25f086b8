package exp

import (
	"fmt"

	"lazyrc/internal/apps"
	"lazyrc/internal/protocol"
)

// claims are the paper's conclusions as predicates over a report: a block
// of the cells it reads, titled by the sentence, whose check returns the
// verdict and the numbers it read. A claim holds when the sentence is true
// as written for every cell it covers, holds in direction when the effect
// has the paper's sign over its cells together but a count or magnitude
// the paper states does not match, and deviates when the sign is wrong.
// Thresholds are the paper's own numbers, and none is widened.
var claims = []block{
	{title: "Table 3: lazy misses no more than eager, on all seven applications",
		points: []point{{variant: "default"}}, protos: []string{"erc", "lrc"},
		check: func(v *View, _ block) (string, string) {
			n, mean, read := perApp(v, "%.2f %%", "erc", "lrc", func(app, p string) float64 { return v.cell("default", app, p).MissRatePct },
				func(_ string, lazy, eager float64) bool { return lazy <= eager })
			return judge(n == len(AppOrder), mean <= 1), read
		}},
	{title: "Figure 6: the lazier protocol is slower, except on fft",
		points: []point{{variant: "default"}}, protos: []string{"sc", "lrc", "lrc-ext"},
		check: func(v *View, _ block) (string, string) {
			n, mean, read := perApp(v, "%.3f", "lrc", "lrc-ext", func(app, p string) float64 { return v.Normalized("default", app, p) },
				func(app string, lazier, lazy float64) bool { return lazier != lazy && lazier < lazy == (app == "fft") })
			return judge(n == len(AppOrder), mean > 1), read
		}},
	{title: "Figure 5: write stall ≈ 0 under both relaxed protocols",
		points: []point{{variant: "default"}}, protos: []string{"sc", "erc", "lrc"},
		check: func(v *View, b block) (string, string) {
			const zero = 0.0005 // ≈ 0: what Figures 5, 7 and 9 print as 0.0 % of SC's cycles
			n, relaxed, sc, off := 2*len(AppOrder), 0.0, 0.0, ""
			for _, app := range AppOrder {
				_, _, w, _, _ := v.OverheadShares("default", app, "sc")
				sc += w
				for _, p := range b.protos[1:] {
					_, _, w, _, _ := v.OverheadShares("default", app, p)
					if relaxed += w / 2; w >= zero {
						n, off = n-1, off+fmt.Sprintf("; %s %s %.2f %%", app, p, 100*w)
					}
				}
			}
			return judge(n == 2*len(AppOrder), relaxed < sc), fmt.Sprintf("%d of %d under %.2f %% (mean %.2f %%; SC's %.2f %%)%s", n, 2*len(AppOrder), 100*zero, 100*relaxed/float64(len(AppOrder)), 100*sc/float64(len(AppOrder)), off)
		}},
	{title: "§4.3: longer cache lines widen the lazy protocol's edge (locusroute)",
		points: sweeps[2].points, apps: []string{"locusroute"}, protos: eagerLazy,
		check: func(v *View, b block) (string, string) {
			n, first, last, read := 0, 0.0, 0.0, "lazy / eager time"
			for i, p := range b.points {
				r := float64(v.cell(p.variant, b.apps[0], "lrc").ExecCycles) / float64(v.cell(p.variant, b.apps[0], "erc").ExecCycles)
				if i == 0 {
					first = r
				} else if r < last {
					n++
				}
				last, read = r, read+fmt.Sprintf(" · %s %.3f", p.label, r)
			}
			return judge(n == len(b.points)-1, last < first), read
		}},
	{title: "§4.2: mp3d's answer drifts within 6.7 % on X and 0.1 % on Y under stale densities",
		points: quality[0].points, apps: quality[0].apps, protos: quality[0].protos,
		check: func(v *View, b block) (string, string) {
			const xWithin, yWithin = 6.7, 0.1
			fresh, stale := v.cell(b.points[0].variant, "mp3d", "sc"), v.cell(b.points[1].variant, "mp3d", "sc")
			x, _ := divergence(fresh, stale, 0)
			y, _ := divergence(fresh, stale, 1)
			return judge(x <= xWithin && y <= yWithin, x > 0), fmt.Sprintf("X %.2f %%, Y %.2f %%", x, y)
		}},
	{title: "every protocol survives storm with its fault-free end state",
		points: []point{soak[0].points[0], soak[0].points[3]}, protos: protocol.Names(),
		check: func(v *View, b block) (string, string) {
			n, total, read := 0, len(AppOrder)*len(b.protos), ""
			for _, app := range AppOrder {
				for _, p := range b.protos {
					verdict, ok := ChaosVerdict(v.cell(b.points[0].variant, app, p), v.cell(b.points[1].variant, app, p), !apps.TimingDependent(app))
					if ok {
						n++
					} else if read == "" {
						read = fmt.Sprintf("; first: %s/%s %s", app, p, verdict)
					}
				}
			}
			return judge(n == total, n == total), fmt.Sprintf("%d of %d storm runs%s", n, total, read)
		}},
}

// judge is a claim's verdict: whether every case holds as written, and
// whether the effect has the paper's sign.
func judge(all, signed bool) string {
	switch {
	case !signed:
		return "deviates"
	case !all:
		return "holds in direction"
	}
	return "holds"
}

// perApp reads a claim that compares protocol b with protocol a on every
// application of the default machine by a measure x: on how many the pair
// reads as the sentence states (ok), the mean of b/a over all of them,
// which carries the sign, and those numbers with every application that
// does not hold.
func perApp(v *View, format, a, b string, x func(app, proto string) float64, ok func(app string, xb, xa float64) bool) (n int, mean float64, read string) {
	var off string
	for _, app := range AppOrder {
		xa, xb := x(app, a), x(app, b)
		if mean += xb / xa / float64(len(AppOrder)); ok(app, xb, xa) {
			n++
		} else {
			off += fmt.Sprintf("; %s %s "+format+" vs %s "+format, app, a, xa, b, xb)
		}
	}
	return n, mean, fmt.Sprintf("%d of %d (mean %s/%s %.3f)%s", n, len(AppOrder), b, a, mean, off)
}

// claimRow renders a claim as one row of the claims table.
func claimRow(v *View, c block) string {
	verdict, read := c.check(v, c)
	return fmt.Sprintf("| %s | %s | %s |\n", c.title, read, verdict)
}
