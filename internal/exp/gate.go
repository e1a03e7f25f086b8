package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
)

// Gate diffs a fresh report against a committed baseline and returns one
// violation string per difference (empty means the gate passes). The
// simulator is deterministic, so the comparison is exact:
//
//   - the evaluation point (scale, processor count) and the run set must
//     match — a disappeared or newly appeared cell is drift, not noise;
//   - every cycle count (execution time, the cpu/read/write/sync
//     breakdown), the network traffic, the miss classification, the
//     answer vector (where the baseline carries one) and the three
//     digests must be equal, and a run that verified must still verify.
//
// Any failure is a real behavioural change. The trailing arguments are
// ignored: they are the tolerance an older signature took, still accepted
// so that three-argument callers such as the benchmark module compile.
func Gate(baseline, fresh Report, _ ...float64) []string {
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
			if b != f {
				fail("%s: %s %d -> %d (%+.3f%%)", k, name, b, f, pctDelta(b, f))
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
		// drifts that cancel out in the totals still fail), spans (the causal
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
			fail("%s: metrics digest changed: %s", k, digestDelta("samples", base.MetricsDigest, run.MetricsDigest,
				"the run's length moved", "telemetry shape drift"))
		}
		if changed("span", base.SpanDigest, run.SpanDigest) {
			fail("%s: span digest changed: %s", k, digestDelta("spans", base.SpanDigest, run.SpanDigest,
				"spans appeared or vanished", "stamps or causes moved"))
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

// digestDelta words the difference between two "<count>-<hash>" digests
// counting unit (spans, samples): a moved count says counted, a moved
// hash alone says hashed. A digest of an older format is shown whole.
func digestDelta(unit, base, fresh, counted, hashed string) string {
	bn, bh, bok := strings.Cut(base, "-")
	fn, fh, fok := strings.Cut(fresh, "-")
	if !bok || !fok {
		return fmt.Sprintf("%s -> %s (digest format changed)", base, fresh)
	}
	if bn != fn {
		return fmt.Sprintf("%s %s -> %s, hash %s -> %s (%s)", unit, bn, fn, bh, fh, counted)
	}
	return fmt.Sprintf("%s %s, hash %s -> %s (%s)", bn, unit, bh, fh, hashed)
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
