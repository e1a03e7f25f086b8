package exp

import (
	"fmt"
	"strings"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/protocol"
)

// soak is the lossy-interconnect survival matrix: each (application ×
// protocol) cell runs once fault-free and once per fault plan, all at the
// same seed. The plans are variants like any study row — light loss,
// heavy loss, and heavy loss compounded with a link outage and a receiver
// brownout; every one drops messages, so each exercises the end-to-end
// timeout/retransmit transport rather than merely perturbing timing. The
// runner guards every faulted job with the protocol-invariant auditor and
// the liveness watchdog.
var soak = []block{{
	points: []point{
		{variant: "default"},
		faultPlan("drop2", "drop=0.02"),
		faultPlan("drop10", "drop=0.1"),
		faultPlan("storm", "drop=0.1;down=0-1:20000:5000;brown=2:40000:3000"),
	},
	protos: protocol.Names(),
}}

// faultPlan is the point that runs the default machine under a
// fault-injection plan; its label is the plan.
func faultPlan(variant, plan string) point {
	return point{variant, plan, func(c *config.Config) { c.FaultPlan = plan }}
}

// soakTable renders the soak as its end-state verdicts: every faulted run
// against the fault-free run of its cell (the block's first point). A
// run that fails its verdict is recorded on the view, so Render returns
// the table together with an error.
func soakTable(v *View, b block) string {
	ref, plans := b.points[0], b.points[1:]
	var s strings.Builder
	fmt.Fprintf(&s, "Chaos soak: %s inputs, %d procs\n"+
		"oracle: completion + verification + invariant checks clean; bit-identical\n"+
		"final memory vs the fault-free run for timing-independent apps\n", v.scale, v.procs)
	for _, p := range plans {
		fmt.Fprintf(&s, "  plan %-8s %s\n", p.variant, p.label)
	}
	fmt.Fprintf(&s, "  %-12s %-8s", "app", "proto")
	for _, p := range plans {
		fmt.Fprintf(&s, " %-24s", p.variant)
	}
	s.WriteString("\n")
	for _, app := range AppOrder {
		for _, proto := range b.protos {
			fmt.Fprintf(&s, "  %-12s %-8s", app, proto)
			for _, p := range plans {
				verdict, ok := ChaosVerdict(v.cell(ref.variant, app, proto), v.cell(p.variant, app, proto), !apps.TimingDependent(app))
				if !ok {
					v.failures = append(v.failures, fmt.Sprintf("%s/%s/%s: %s", app, proto, p.variant, verdict))
				}
				fmt.Fprintf(&s, " %-24s", verdict)
			}
			s.WriteString("\n")
		}
	}
	if n := len(v.failures); n > 0 {
		fmt.Fprintf(&s, "FAILED: %d cell(s) diverged\n  %s\n", n, strings.Join(v.failures, "\n  "))
	} else {
		fmt.Fprintf(&s, "all %d faulted runs matched their fault-free end state\n", len(AppOrder)*len(b.protos)*len(plans))
	}
	return s.String()
}

// ChaosVerdict is the end-state equivalence oracle for one faulted run
// against its fault-free reference at the same seed: both completed and
// verified, the faulted one's guards stayed quiet — a report folds all of
// that into a run's Error — and, when exact, the final memory images are
// bit-identical. exact is sound only for workloads whose result is
// independent of processor interleaving (apps.TimingDependent): the
// lock-structured ones fold acquisition order into their (still
// verified) results. A divergence means a loss leaked through the
// reliable transport into application state.
func ChaosVerdict(ref, faulted ReportRun, exact bool) (verdict string, ok bool) {
	switch {
	case !ref.Verified:
		return "FAIL ref: " + ref.Error, false
	case !faulted.Verified:
		return "FAIL " + faulted.Error, false
	case exact && faulted.MemDigest != ref.MemDigest:
		return "FAIL memory diverged", false
	}
	return fmt.Sprintf("ok (%d faulted, %d retx)", faulted.FaultsInjected, faulted.Retransmits), true
}
