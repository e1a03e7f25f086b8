package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"lazyrc/internal/apps"
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
	// Targets are the paperbench targets a report carries (Targets), or
	// "all" for the paper's matrix (MatrixTargets); the studies are named
	// explicitly. Empty means "all".
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
	if err := mustCell("default", n.Procs, scale, n.Seed).Validate(); err != nil {
		return Spec{}, err
	}

	all := len(s.Targets) == 0 || slices.Contains(s.Targets, "all")
	if all {
		n.Targets = []string{"all"}
	}
	for _, t := range s.Targets {
		switch {
		case t == "all" || all && slices.Contains(MatrixTargets, t):
			// "all" stands for the matrix targets it covers
		case !slices.Contains(Targets, t):
			return Spec{}, fmt.Errorf("exp: unknown sweep target %q (want all or one of %v)", t, Targets)
		default:
			n.Targets = append(n.Targets, t)
		}
	}
	n.Targets = dedupSorted(n.Targets)

	knownApp := map[string]bool{}
	for _, a := range apps.Names() {
		knownApp[a] = true
	}
	for _, a := range s.Apps {
		if !knownApp[a] {
			return Spec{}, fmt.Errorf("exp: unknown application %q (want one of %v)", a, apps.Names())
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
	b, _ := json.Marshal(n)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
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
