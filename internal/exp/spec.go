package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"lazyrc/internal/apps"
	"lazyrc/internal/protocol"
	"lazyrc/internal/runner"
)

// Spec is a serializable description of one evaluation sweep — the unit a
// client submits to the lrcsimd experiment service. It names what to run
// (targets and applications) and the machine envelope (scale, processor
// count, seed); Expand turns it into cells and an evaluator by
// the same TargetCells/Evaluator path paperbench uses, so a submitted
// sweep and a local paperbench invocation of the same shape produce the
// same job fingerprints and therefore share the result store.
type Spec struct {
	// Targets are the paperbench targets a report carries (Targets), "all"
	// for the paper's matrix (MatrixTargets; the studies and the soak are
	// named explicitly), or cell keys — variant/app/protocol, one
	// simulation each, such as default/gauss/lrc or line=256/mp3d/erc.
	// Empty means "all".
	Targets []string `json:"targets,omitempty"`
	// Apps restricts every target to these applications. Empty means the
	// paper's full application set.
	Apps []string `json:"apps,omitempty"`
	// Scale is the input scale name (tiny, small, medium, paper). Empty
	// means small, matching paperbench's default.
	Scale string `json:"scale,omitempty"`
	// Procs is the simulated machine size. Zero means 64, the paper's.
	Procs int `json:"procs,omitempty"`
	// Seed is the base random seed stamped into every run.
	Seed uint64 `json:"seed,omitempty"`
}

// maxProcs bounds the machine a spec, which is outside input, may ask
// for: laying one out on the mesh, let alone building one per cell, costs
// time and memory that grow with its size. The paper's has 64 processors.
const maxProcs = 1024

// Normalize validates the spec and returns its canonical form: defaults
// filled in, targets and apps sorted and deduplicated, "all" absorbing
// the matrix targets it covers. Two specs that expand to the same
// evaluation normalize identically, so Normalize().ID() is a stable
// sweep identity. The machine envelope is validated here too, so a spec
// no cell of which could be constructed is refused at submission instead
// of running as a sweep of failures.
func (s Spec) Normalize() (Spec, error) {
	n := Spec{Scale: s.Scale, Procs: s.Procs, Seed: s.Seed}
	if n.Scale == "" {
		n.Scale = "small"
	}
	scale, err := apps.ParseScale(n.Scale)
	if err != nil {
		return Spec{}, err
	}
	if n.Procs == 0 {
		n.Procs = 64
	}
	if n.Procs > maxProcs {
		return Spec{}, fmt.Errorf("exp: %d processors is more than a spec may ask for (%d)", n.Procs, maxProcs)
	}
	if err := mustCell("default", n.Procs, scale, n.Seed).Validate(); err != nil {
		return Spec{}, err
	}

	all := len(s.Targets) == 0 || slices.Contains(s.Targets, "all")
	if all {
		n.Targets = []string{"all"}
	}
	appNames := apps.Names()
	checkApp := func(a string) error {
		if !slices.Contains(appNames, a) {
			return fmt.Errorf("exp: unknown application %q (want one of %v)", a, appNames)
		}
		return nil
	}
	for _, t := range s.Targets {
		cell, isCell := parseCell(t)
		switch {
		case t == "all" || all && slices.Contains(MatrixTargets, t):
			continue // "all" stands for the matrix targets it covers
		case isCell:
			// Checked element by element, the way the cell will be built.
			_, err := CellConfig(cell[0], n.Procs, scale, n.Seed)
			if err == nil {
				err = checkApp(cell[1])
			}
			if err == nil && !slices.Contains(protocol.Names(), cell[2]) {
				err = fmt.Errorf("exp: unknown protocol %q (want one of %v)", cell[2], protocol.Names())
			}
			if err != nil {
				return Spec{}, fmt.Errorf("exp: target %q: %w", t, err)
			}
		case !slices.Contains(Targets, t):
			return Spec{}, fmt.Errorf("exp: unknown target %q (want all, one of %v, or a cell variant/app/protocol such as default/gauss/lrc)", t, Targets)
		}
		n.Targets = append(n.Targets, t)
	}
	n.Targets = dedupSorted(n.Targets)

	for _, a := range s.Apps {
		if err := checkApp(a); err != nil {
			return Spec{}, err
		}
	}
	n.Apps = dedupSorted(s.Apps)
	if len(n.Apps) == len(AppOrder) {
		n.Apps = nil // the full set is canonically "unrestricted"
	}
	return n, nil
}

func dedupSorted(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// ID is the sweep's content identity: the hex SHA-256 of the normalized
// spec's canonical JSON. Stable across field ordering, duplication, and
// daemon restarts; it is the key under which the service deduplicates
// concurrently submitted identical sweeps.
func (s Spec) ID() string {
	n, err := s.Normalize()
	if err != nil {
		n = s // an invalid spec still hashes deterministically
	}
	id, _ := n.Canonical()
	return id
}

// Canonical returns the ID of a spec Normalize returned and the canonical
// JSON document it hashes — what the daemon's sweep registry stores. It
// does not normalize again.
func (s Spec) Canonical() (id string, doc []byte) {
	doc, _ = json.Marshal(s)
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:]), doc
}

// Expand validates the spec and expands it, once: its canonical form,
// the (variant, app, protocol) cells it names in planning order, and the
// evaluator (no runner attached; set R and Ctx before use) that
// materializes and runs them.
func (s Spec) Expand() (Spec, *Evaluator, [][3]string, error) {
	n, err := s.Normalize()
	if err != nil {
		return Spec{}, nil, nil, err
	}
	scale, _ := apps.ParseScale(n.Scale) // Normalize parsed it
	e := NewEvaluator(scale, n.Procs)
	e.Seed = n.Seed
	return n, e, TargetCells(n.Targets, n.Apps), nil
}

// Jobs materializes the runner jobs of every cell, in cell order. The
// fingerprints of these jobs are the sweep's result identity: they match
// a paperbench run at the same scale/procs/seed exactly.
func (s Spec) Jobs() ([]runner.Job, error) {
	_, e, cells, err := s.Expand()
	if err != nil {
		return nil, err
	}
	jobs := make([]runner.Job, len(cells))
	for i, c := range cells {
		jobs[i] = e.Job(c[0], c[1], c[2])
	}
	return jobs, nil
}
