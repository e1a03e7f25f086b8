package exp

import (
	"fmt"
	"slices"
	"strings"
	"text/tabwriter"

	"lazyrc/internal/config"
)

// point is one machine a target evaluates: the variant that names it —
// the first element of the cell key, resolved by CellConfig — the label
// a study table prints for it, and how it derives from the default cell
// (nil for the presets, which config.Preset resolves).
type point struct {
	variant string
	label   string
	derive  func(*config.Config)
}

// intPoints is the usual study axis: one integer knob swept over vals,
// with variants named key=val.
func intPoints(key, label string, set func(*config.Config, int), vals ...int) []point {
	pts := make([]point, len(vals))
	for i, v := range vals {
		pts[i] = point{fmt.Sprintf("%s=%d", key, v), fmt.Sprintf(label, v), func(c *config.Config) { set(c, v) }}
	}
	return pts
}

// block is a cross product of cells, points × apps × protocols: the read
// set of a matrix target, one table of a study (which titles it), or a
// claim (titled by its sentence), whose check reads the verdict.
type block struct {
	title  string
	points []point
	apps   []string // nil: every application evaluated
	protos []string
	check  func(*View, block) (verdict, read string)
}

// target is one named paperbench target a report carries: the cells its
// rendering reads, as blocks, and the renderer of one block over a report
// view (a study prints one table per block; Table 1 is one empty block,
// reading no cell). inAll marks the paper's matrix, which is what a
// Spec's "all" (and its absence of targets) means; Table 1, the studies
// and the soak are named explicitly. The other kind of target, a cell
// key, names one simulation and needs no row here.
type target struct {
	name   string
	inAll  bool
	blocks []block
	table  func(*View, block) string
}

// targets is the target table, in planning and rendering order — a
// stable order keeps the job submission sequence (and therefore progress
// output under -j 1) deterministic. The normalized-time figures divide
// by the SC run, so "sc" is part of their read set even when it is not a
// plotted bar.
var targets = []target{
	{"table1", false, []block{{}}, table1},
	{"table2", true, matrix("default", "erc"), table2},
	{"table3", true, matrix("default", "erc", "lrc", "lrc-ext"), table3},
	{"fig4", true, matrix("default", "sc", "erc", "lrc"), figTime("default",
		"Figure 4: normalized execution time, lazy vs. eager release consistency", "erc", "lrc")},
	{"fig5", true, matrix("default", "sc", "erc", "lrc"), figOverhead("default",
		"Figure 5: overhead analysis for lazy-release, eager-release, and sequential consistency", "lrc", "erc", "sc")},
	{"fig6", true, matrix("default", "sc", "lrc", "lrc-ext"), figTime("default",
		"Figure 6: normalized execution time, lazy vs. lazy-extended consistency", "lrc", "lrc-ext")},
	{"fig7", true, matrix("default", "sc", "lrc", "lrc-ext"), figOverhead("default",
		"Figure 7: overhead analysis for lazy, lazy-extended, and sequential consistency", "lrc", "lrc-ext", "sc")},
	{"fig8", true, matrix("future", "sc", "erc", "lrc", "lrc-ext"), figTime("future",
		"Figure 8: performance trends for lazy, lazier, and eager release consistency (future machine)", "erc", "lrc", "lrc-ext")},
	{"fig9", true, matrix("future", "sc", "erc", "lrc", "lrc-ext"), figOverhead("future",
		"Figure 9: performance trends, overhead analysis (future machine)", "lrc", "lrc-ext", "erc", "sc")},
	{"sweep", false, sweeps, sweepTable},
	{"mp3dquality", false, quality, qualityTable},
	{"ablate", false, ablations, ablationTable},
	{"dsm", false, dsmContrast, dsmTable},
	{"scaling", false, scaling, scalingTable},
	{"chaos", false, soak, soakTable},
	{"claims", false, claims, claimRow},
}

// matrix is the read set of a paper table or figure: every application
// under the given protocols on one preset machine.
func matrix(preset string, protos ...string) []block {
	return []block{{points: []point{{variant: preset}}, protos: protos}}
}

// Targets lists every target a report carries, in rendering order;
// MatrixTargets are those "all" expands to, the paper's matrix.
var Targets, MatrixTargets []string

// studyVariants resolves, for CellConfig, every variant the target table
// declares a derivation for.
var studyVariants = map[string]func(*config.Config){}

func init() {
	for _, t := range targets {
		Targets = append(Targets, t.name)
		if t.inAll {
			MatrixTargets = append(MatrixTargets, t.name)
		}
		for _, b := range t.blocks {
			for _, p := range b.points {
				if p.derive != nil {
					studyVariants[p.variant] = p.derive
				}
			}
		}
	}
}

// parseCell splits a cell key, variant/app/protocol: the name of one
// simulation in a Spec, a report and the daemon's cells route.
func parseCell(key string) (cell [3]string, ok bool) {
	parts := strings.Split(key, "/")
	if len(parts) != len(cell) {
		return cell, false
	}
	return [3]string(parts), true
}

// TargetCells expands the requested targets ("all", any of Targets, or a
// cell key; other names are ignored) into the deduplicated list of
// (variant, app, protocol) cells their rendering consumes, in a
// deterministic order suitable for Evaluator.Prefetch: table order, then
// the cell keys as given. A non-empty appNames restricts the named
// targets to those applications — submitted sweep specs may scope the
// evaluation to a few (a study keeps those of its own it shares with the
// subset); a cell key names its application itself.
func TargetCells(names, appNames []string) [][3]string {
	seen := map[[3]string]bool{}
	var cells [][3]string
	add := func(cell [3]string) {
		if !seen[cell] {
			seen[cell] = true
			cells = append(cells, cell)
		}
	}
	for _, t := range targets {
		if !slices.Contains(names, t.name) && !(t.inAll && slices.Contains(names, "all")) {
			continue
		}
		for _, b := range t.blocks {
			if b.apps == nil {
				b.apps = AppOrder
			}
			for _, p := range b.points {
				for _, app := range b.apps {
					if len(appNames) > 0 && !slices.Contains(appNames, app) {
						continue
					}
					for _, proto := range b.protos {
						add([3]string{p.variant, app, proto})
					}
				}
			}
		}
	}
	for _, name := range names {
		if cell, ok := parseCell(name); ok {
			add(cell)
		}
	}
	return cells
}

// Render renders one named target as text from a report view — the same
// bytes whether the report was just evaluated, fetched from a daemon or
// loaded from a file. A report that lacks a cell the target reads is an
// error naming the cell, never a table of zeros; a soak in which a
// faulted run diverged from its fault-free reference is the rendered
// verdicts and an error.
func Render(name string, v *View) (string, error) {
	for _, t := range targets {
		if t.name != name {
			continue
		}
		v.missing, v.failures = v.missing[:0], v.failures[:0]
		tables := make([]string, len(t.blocks))
		for i, b := range t.blocks {
			tables[i] = t.table(v, b)
		}
		if len(v.missing) > 0 {
			return "", fmt.Errorf("exp: %s reads cell %s, which the report lacks (%d missing lookups in all)",
				name, v.missing[0], len(v.missing))
		}
		sep := "\n" // a blank line between a study's tables; a claim is a row
		if name == "claims" {
			sep, tables[0] = "", fmt.Sprintf("| claim (%s inputs, %d procs) | measured | verdict |\n|---|---|---|\n", v.scale, v.procs)+tables[0]
		}
		out := strings.Join(tables, sep)
		if len(v.failures) > 0 {
			return out, fmt.Errorf("exp: %s: %d cell(s) failed the end-state oracle (first: %s)",
				name, len(v.failures), v.failures[0])
		}
		return out, nil
	}
	return "", fmt.Errorf("exp: no report carries target %q (want one of %v)", name, Targets)
}

// CellTable renders the given cells as the one generic table — what a
// cell-key target prints: one row of measurements
// per cell, the execution time also normalized to the SC run of the same
// variant and application where the report has one. A cell the report
// lacks is an error naming it.
func CellTable(v *View, cells [][3]string) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Cells: %s inputs, %d procs\n", v.scale, v.procs)
	w := tabwriter.NewWriter(&b, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "variant\tapp\tprotocol\tcycles\tnorm\tcpu\tread\twrite\tsync\tmiss\tmsgs\tbytes\t")
	for _, c := range cells {
		r, ok := v.Run(c[0], c[1], c[2])
		if !ok {
			return "", fmt.Errorf("exp: the report lacks cell %s", cellKey(c[0], c[1], c[2]))
		}
		norm := "-"
		if r.Normalized > 0 {
			norm = fmt.Sprintf("%.3f", r.Normalized)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%s\t%d\t%d\t%d\t%d\t%.2f%%\t%d\t%d\t\n",
			r.Config, r.App, r.Protocol, r.ExecCycles, norm,
			r.CPUCycles, r.ReadCycles, r.WriteCycles, r.SyncCycles, r.MissRatePct, r.NetworkMsgs, r.NetworkBytes)
	}
	w.Flush()
	return b.String(), nil
}
