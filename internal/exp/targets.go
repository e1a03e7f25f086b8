package exp

import "fmt"

// targetProtos maps each matrix-backed paperbench target to the machine
// configuration and protocol set its rendering reads. The normalized-time
// figures divide by the SC run, so "sc" is part of their read set even
// when it is not a plotted bar.
var targetProtos = map[string]struct {
	cfg    string
	protos []string
}{
	"table2": {"default", []string{"erc"}},
	"table3": {"default", []string{"erc", "lrc", "lrc-ext"}},
	"fig4":   {"default", []string{"sc", "erc", "lrc"}},
	"fig5":   {"default", []string{"sc", "erc", "lrc"}},
	"fig6":   {"default", []string{"sc", "lrc", "lrc-ext"}},
	"fig7":   {"default", []string{"sc", "lrc", "lrc-ext"}},
	"fig8":   {"future", []string{"sc", "erc", "lrc", "lrc-ext"}},
	"fig9":   {"future", []string{"sc", "erc", "lrc", "lrc-ext"}},
	"tardis": {"default", []string{"sc", "erc", "lrc", "lrc-ext", "tardis", "tardis2"}},
}

// MatrixTargets lists the matrix-backed targets in planning and
// rendering order — a stable order keeps the job submission sequence
// (and therefore progress output under -j 1) deterministic.
var MatrixTargets = []string{
	"table2", "table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"tardis",
}

// TargetCells expands the requested paperbench targets ("all" or any of
// table2..fig9; non-matrix targets such as sweeps are ignored) into the
// deduplicated list of (config, app, protocol) cells their rendering
// consumes, in a deterministic order suitable for Evaluator.Prefetch.
func TargetCells(targets []string) [][3]string {
	return TargetCellsFor(targets, AppOrder)
}

// TargetCellsFor is TargetCells restricted to a subset of applications —
// the expansion used by submitted sweep specs, which may scope the matrix
// to a few apps. An empty app list means the full AppOrder.
func TargetCellsFor(targets, appNames []string) [][3]string {
	if len(appNames) == 0 {
		appNames = AppOrder
	}
	want := map[string]bool{}
	for _, t := range targets {
		want[t] = true
	}
	all := want["all"]
	seen := map[[3]string]bool{}
	var cells [][3]string
	for _, t := range MatrixTargets {
		if !all && !want[t] {
			continue
		}
		spec := targetProtos[t]
		for _, app := range appNames {
			for _, proto := range spec.protos {
				cell := [3]string{spec.cfg, app, proto}
				if !seen[cell] {
					seen[cell] = true
					cells = append(cells, cell)
				}
			}
		}
	}
	return cells
}

// Render renders one matrix target as text from a report view — the same
// bytes whether the report was just evaluated, fetched from a daemon or
// loaded from a file. protos narrows the tardis table (nil means its
// full protocol set); the paper's own tables ignore it. A report that
// lacks a cell the target reads is an error naming the cell, never a
// table of zeros.
func Render(target string, v *View, protos []string) (string, error) {
	v.missing = v.missing[:0]
	var out string
	switch target {
	case "table2":
		out = table2(v)
	case "table3":
		out = table3(v)
	case "fig4":
		out = fig4(v)
	case "fig5":
		out = fig5(v)
	case "fig6":
		out = fig6(v)
	case "fig7":
		out = fig7(v)
	case "fig8":
		out = fig8(v)
	case "fig9":
		out = fig9(v)
	case "tardis":
		out = tardisTable(v, protos)
	default:
		return "", fmt.Errorf("exp: %q is not a matrix target (want one of %v)", target, MatrixTargets)
	}
	if len(v.missing) > 0 {
		return "", fmt.Errorf("exp: %s reads cell %s, which the report lacks (%d missing lookups in all)",
			target, v.missing[0], len(v.missing))
	}
	return out, nil
}
