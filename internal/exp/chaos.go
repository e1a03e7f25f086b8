package exp

import (
	"context"
	"fmt"
	"strings"

	"lazyrc/internal/apps"
	"lazyrc/internal/runner"
)

// ChaosPlan names one fault-injection schedule for the chaos soak.
type ChaosPlan struct {
	Name string
	Plan string
}

// DefaultChaosPlans is the standard soak ladder: light loss, heavy loss,
// and heavy loss compounded with a link outage and a receiver brownout.
// Every plan drops messages, so each exercises the end-to-end
// timeout/retransmit transport rather than merely perturbing timing.
var DefaultChaosPlans = []ChaosPlan{
	{"drop2", "drop=0.02"},
	{"drop10", "drop=0.1"},
	{"storm", "drop=0.1;down=0-1:20000:5000;brown=2:40000:3000"},
}

// RunChaos is the lossy-interconnect survival matrix: each (application ×
// protocol) cell runs once fault-free and once per fault plan, all at the
// same seed, and the faulted run must reproduce the fault-free run's end
// state — every processor finished, numerical verification passed, and
// the protocol-invariant auditor and liveness watchdog (attached by the
// runner to every faulted job) found nothing. For timing-independent
// workloads (see apps.TimingDependent) the oracle additionally demands a
// bit-identical final memory image; the lock-structured workloads fold
// acquisition order into their (still verified) results, so bit-equality
// is not a property faults can break. Any divergence means a loss leaked
// through the reliable transport into application state.
//
// The returned error is non-nil when any cell failed its oracle, so
// callers (paperbench, CI) can turn a survived soak into an exit code.
func RunChaos(ctx context.Context, rn *runner.Runner, scale apps.Scale, procs int, seed uint64, appNames, protos []string) (string, error) {
	plans := DefaultChaosPlans
	base := mustCell("default", procs, scale, seed)

	// One reference job plus len(plans) faulted jobs per cell, submitted
	// in one batch so the pool interleaves them freely; rendering reads
	// the order back deterministically.
	stride := 1 + len(plans)
	jobs := make([]runner.Job, 0, len(appNames)*len(protos)*stride)
	for _, app := range appNames {
		for _, proto := range protos {
			jobs = append(jobs, runner.Job{App: app, Scale: scale, Proto: proto, Cfg: base})
			for _, p := range plans {
				cfg := base
				cfg.FaultPlan = p.Plan
				jobs = append(jobs, runner.Job{App: app, Scale: scale, Proto: proto, Cfg: cfg})
			}
		}
	}
	results := rn.DoAll(ctx, jobs)

	var b strings.Builder
	fmt.Fprintf(&b, "Chaos soak: %s inputs, %d procs, seed %d\n", scale, procs, seed)
	fmt.Fprintf(&b, "oracle: completion + verification + invariant checks clean; bit-identical\n")
	fmt.Fprintf(&b, "final memory vs the fault-free run for timing-independent apps\n")
	for _, p := range plans {
		fmt.Fprintf(&b, "  plan %-8s %s\n", p.Name, p.Plan)
	}
	fmt.Fprintf(&b, "  %-12s %-8s", "app", "proto")
	for _, p := range plans {
		fmt.Fprintf(&b, " %-24s", p.Name)
	}
	b.WriteString("\n")

	var failures []string
	i := 0
	for _, app := range appNames {
		for _, proto := range protos {
			ref := results[i]
			faulted := results[i+1 : i+stride]
			i += stride
			fmt.Fprintf(&b, "  %-12s %-8s", app, proto)
			for k, fr := range faulted {
				verdict, ok := ChaosVerdict(ref, fr, !apps.TimingDependent(app))
				if !ok {
					failures = append(failures, fmt.Sprintf("%s/%s/%s: %s", app, proto, plans[k].Name, verdict))
				}
				fmt.Fprintf(&b, " %-24s", verdict)
			}
			b.WriteString("\n")
		}
	}
	if len(failures) > 0 {
		fmt.Fprintf(&b, "FAILED: %d cell(s) diverged\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(&b, "  %s\n", f)
		}
		return b.String(), fmt.Errorf("exp: chaos soak: %d cell(s) failed the end-state oracle (first: %s)", len(failures), failures[0])
	}
	fmt.Fprintf(&b, "all %d faulted runs matched their fault-free end state\n", len(appNames)*len(protos)*len(plans))
	return b.String(), nil
}

// ChaosVerdict applies the end-state equivalence oracle to one faulted
// run against its fault-free reference, returning the rendered verdict
// and whether the faulted run passed. exact additionally demands a
// bit-identical final memory image — sound only for workloads whose
// result is independent of processor interleaving. lrcsim -oracle
// applies the same verdict to a single run.
func ChaosVerdict(ref, faulted *runner.Result, exact bool) (verdict string, ok bool) {
	switch {
	case ref.Failed():
		return "FAIL ref: " + ref.Failure, false
	case ref.VerifyErr != "":
		return "FAIL ref: " + ref.VerifyErr, false
	case !ref.Completed:
		return "FAIL ref incomplete", false
	case faulted.Failed():
		return "FAIL " + faulted.Failure, false
	case faulted.CheckErr != "":
		return "FAIL check: " + faulted.CheckErr, false
	case faulted.VerifyErr != "":
		return "FAIL verify: " + faulted.VerifyErr, false
	case !faulted.Completed:
		return "FAIL incomplete", false
	case exact && faulted.MemDigest != ref.MemDigest:
		return "FAIL memory diverged", false
	}
	return fmt.Sprintf("ok (%d faulted, %d retx)", faulted.FaultsInjected, faulted.Retransmits), true
}
