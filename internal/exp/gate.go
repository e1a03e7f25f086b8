package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// Gate diffs a fresh report against a committed baseline and returns one
// violation string per out-of-tolerance difference (empty means the gate
// passes). The semantics:
//
//   - the evaluation point (scale, processor count) and the run set must
//     match exactly — a disappeared or newly appeared cell is drift, not
//     noise;
//   - cycle counts (execution time, the cpu/read/write/sync breakdown)
//     and network traffic may move by at most tolPct percent of the
//     baseline value (a zero baseline value must stay zero);
//   - the miss classification is structural, not a performance number:
//     any changed miss-rate or miss-share tally fails regardless of
//     tolerance, as does a changed answer vector (where the baseline
//     carries one) or a run that no longer verifies.
//
// The simulator is deterministic, so on an unchanged tree even
// tolPct = 0 passes; any failure is a real behavioural change.
func Gate(baseline, fresh Report, tolPct float64) []string {
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	if baseline.Scale != fresh.Scale || baseline.Procs != fresh.Procs {
		fail("evaluation point changed: baseline %s/%d procs, fresh %s/%d procs",
			baseline.Scale, baseline.Procs, fresh.Scale, fresh.Procs)
		return v
	}

	key := func(r ReportRun) string { return cellKey(r.Config, r.App, r.Protocol) }
	freshBy := map[string]ReportRun{}
	for _, r := range fresh.Runs {
		freshBy[key(r)] = r
	}
	baseBy := map[string]ReportRun{}
	for _, r := range baseline.Runs {
		baseBy[key(r)] = r
	}
	var extra []string
	for k := range freshBy {
		if _, ok := baseBy[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fail("%s: run present in fresh report but not in baseline (regenerate the baseline?)", k)
	}

	for _, base := range baseline.Runs {
		k := key(base)
		run, ok := freshBy[k]
		if !ok {
			fail("%s: run missing from fresh report", k)
			continue
		}
		cycles := func(name string, b, f uint64) {
			if outOfTolerance(b, f, tolPct) {
				fail("%s: %s %d -> %d (%+.3f%%, tolerance %.3f%%)",
					k, name, b, f, pctDelta(b, f), tolPct)
			}
		}
		cycles("exec_cycles", base.ExecCycles, run.ExecCycles)
		cycles("cpu_cycles", base.CPUCycles, run.CPUCycles)
		cycles("read_cycles", base.ReadCycles, run.ReadCycles)
		cycles("write_cycles", base.WriteCycles, run.WriteCycles)
		cycles("sync_cycles", base.SyncCycles, run.SyncCycles)
		cycles("network_msgs", base.NetworkMsgs, run.NetworkMsgs)
		cycles("network_bytes", base.NetworkBytes, run.NetworkBytes)

		if run.MissRatePct != base.MissRatePct {
			fail("%s: miss rate changed: %.6f%% -> %.6f%%", k, base.MissRatePct, run.MissRatePct)
		}
		shareKinds := make([]string, 0, len(base.MissShares))
		for kind := range base.MissShares {
			shareKinds = append(shareKinds, kind)
		}
		sort.Strings(shareKinds)
		for _, kind := range shareKinds {
			if run.MissShares[kind] != base.MissShares[kind] {
				fail("%s: %s miss share changed: %.6f%% -> %.6f%%",
					k, kind, base.MissShares[kind], run.MissShares[kind])
			}
		}
		// So is the answer, where the baseline carries one.
		if base.Answer != nil && !slices.Equal(base.Answer, run.Answer) {
			fail("%s: answer changed: %v -> %v", k, base.Answer, run.Answer)
		}
		// Three digests ride on a run: telemetry (the cycle-domain shape, so
		// compensating drifts inside tolerance still fail), spans (the causal
		// event stream: every transaction, stall and flight with its stamps
		// and its waker) and memory (the end state a faulted run must
		// reproduce). A baseline that predates one gates on the scalars
		// alone; one the baseline has and the fresh run lost is a violation —
		// an observer was dropped from the run.
		changed := func(name, b, f string) bool {
			if f == "" && b != "" {
				fail("%s: %s digest missing from the fresh run (the baseline carries one)", k, name)
			}
			return b != "" && f != "" && b != f
		}
		if changed("metrics", base.MetricsDigest, run.MetricsDigest) {
			fail("%s: metrics digest changed: %.12s -> %.12s (telemetry shape drift)",
				k, base.MetricsDigest, run.MetricsDigest)
		}
		if changed("span", base.SpanDigest, run.SpanDigest) {
			fail("%s: span digest changed: %s", k, spanDigestDelta(base.SpanDigest, run.SpanDigest))
		}
		if changed("memory", base.MemDigest, run.MemDigest) {
			fail("%s: memory digest changed: %.12s -> %.12s (final memory image drift)",
				k, base.MemDigest, run.MemDigest)
		}
		if base.Verified && !run.Verified {
			fail("%s: run no longer verifies: %s", k, run.Error)
		}
	}
	return v
}

// spanDigestDelta words the difference between two "<count>-<hash>" span
// digests: a moved count means spans appeared or vanished, the hash alone
// that stamps or causes moved.
func spanDigestDelta(base, fresh string) string {
	bn, bh, _ := strings.Cut(base, "-")
	fn, fh, _ := strings.Cut(fresh, "-")
	if bn != fn {
		return fmt.Sprintf("spans %s -> %s, hash %s -> %s (spans appeared or vanished)", bn, fn, bh, fh)
	}
	return fmt.Sprintf("%s spans, hash %s -> %s (stamps or causes moved)", bn, bh, fh)
}

// outOfTolerance reports whether f deviates from b by more than tolPct
// percent of b. A zero baseline admits only zero.
func outOfTolerance(b, f uint64, tolPct float64) bool {
	if b == f {
		return false
	}
	if b == 0 {
		return true
	}
	return math.Abs(pctDelta(b, f)) > tolPct
}

func pctDelta(b, f uint64) float64 {
	return 100 * (float64(f) - float64(b)) / float64(b)
}

// LoadReport reads a Report from a JSON file (a paperbench -json output
// or a committed baseline).
func LoadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, fmt.Errorf("exp: reading report %s: %w", path, err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("exp: parsing report %s: %w", path, err)
	}
	return r, nil
}
