package exp

import (
	"context"
	"fmt"
	"strings"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/runner"
)

// Ablations exercise the design choices §2 of the paper argues for,
// beyond the lazy/lazier split that Figures 6-7 already cover:
//
//   - the 16-entry coalescing write-through buffer (vs. smaller/larger);
//   - the 4-entry CPU write buffer of the relaxed protocols;
//   - the claim that the lazy protocol's higher directory access cost
//     "does not affect performance" because it hides behind memory;
//   - the overlap of acquire-time invalidation with lock latency.
type Ablation struct {
	Name  string
	Proto string
	App   string
	// Points are the settings swept; Mut applies one to a config.
	Points []int
	Mut    func(*config.Config, int)
	Label  func(int) string
	// Metric extracts the reported quantity from a run.
	Metric func(*runner.Result) float64
	Unit   string
}

// LazierUnderSoftwareCoherence reproduces the paper's DSM-vs-hardware
// contrast directly: it reports the lazy-ext/lazy execution-time ratio
// with hardware protocol processors (background notices) and with
// software coherence (notices stall the processor). The paper's claim —
// "this represents a qualitative shift from the DSM world, where lazier
// protocols always yield performance improvements" — predicts the ratio
// crosses from >1 (lazier loses) toward ≤1 (lazier wins) when the
// overlap is taken away.
func LazierUnderSoftwareCoherence(ctx context.Context, rn *runner.Runner, scale apps.Scale, procs int, appName string) string {
	var jobs []runner.Job
	for _, software := range []bool{false, true} {
		for _, proto := range []string{"lrc", "lrc-ext"} {
			cfg := mustCell("default", procs, scale, 0)
			cfg.SoftwareCoherence = software
			jobs = append(jobs, runner.Job{App: appName, Scale: scale, Proto: proto, Cfg: cfg})
		}
	}
	results := rn.DoAll(ctx, jobs)

	var b strings.Builder
	fmt.Fprintf(&b, "DSM contrast: %s, %d procs (lazy-ext time / lazy time)\n", appName, procs)
	for i, software := range []bool{false, true} {
		lrc, ext := results[2*i], results[2*i+1]
		mode := "hardware protocol processor"
		if software {
			mode = "software coherence (no overlap)"
		}
		if err := firstErr(lrc, ext); err != nil {
			fmt.Fprintf(&b, "  %-34s failed: %v\n", mode, err)
			continue
		}
		fmt.Fprintf(&b, "  %-34s %.3f\n", mode, float64(ext.ExecCycles)/float64(lrc.ExecCycles))
	}
	return b.String()
}

// firstErr returns the first failure or verification error in a result
// group — sweep renderers print it in place of the affected cell.
func firstErr(results ...*runner.Result) error {
	for _, r := range results {
		if err := r.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Ablations returns the ablation suite.
func Ablations() []Ablation {
	execTime := func(r *runner.Result) float64 { return float64(r.ExecCycles) }
	return []Ablation{
		{
			Name:   "coalescing buffer depth (lazy write-through traffic control)",
			Proto:  "lrc",
			App:    "blu",
			Points: []int{1, 4, 16, 64},
			Mut:    func(c *config.Config, v int) { c.CBEntries = v },
			Label:  func(v int) string { return fmt.Sprintf("%d entries", v) },
			Metric: execTime,
			Unit:   "cycles",
		},
		{
			Name:   "write buffer depth (eager write latency masking)",
			Proto:  "erc",
			App:    "fft",
			Points: []int{1, 2, 4, 8},
			Mut:    func(c *config.Config, v int) { c.WBEntries = v },
			Label:  func(v int) string { return fmt.Sprintf("%d entries", v) },
			Metric: execTime,
			Unit:   "cycles",
		},
		{
			Name:   "lazy directory access cost (claim: hidden behind memory)",
			Proto:  "lrc",
			App:    "gauss",
			Points: []int{15, 25, 50, 100},
			Mut:    func(c *config.Config, v int) { c.DirCostLRC = uint64(v) },
			Label:  func(v int) string { return fmt.Sprintf("%d cycles", v) },
			Metric: execTime,
			Unit:   "cycles",
		},
		{
			Name:   "page placement (0 = interleaved, 1 = first touch)",
			Proto:  "lrc",
			App:    "mp3d",
			Points: []int{0, 1},
			Mut:    func(c *config.Config, v int) { c.FirstTouch = v == 1 },
			Label: func(v int) string {
				if v == 0 {
					return "interleaved"
				}
				return "first touch"
			},
			Metric: execTime,
			Unit:   "cycles",
		},
		{
			Name:   "acquire-time invalidation overlap (0 = overlapped, 1 = serialized)",
			Proto:  "lrc",
			App:    "cholesky",
			Points: []int{0, 1},
			Mut:    func(c *config.Config, v int) { c.NoAcquireOverlap = v == 1 },
			Label: func(v int) string {
				if v == 0 {
					return "overlapped"
				}
				return "after grant"
			},
			Metric: execTime,
			Unit:   "cycles",
		},
	}
}

// RunAblation executes one ablation sweep — all points concurrently on
// the runner's pool — and renders it.
func RunAblation(ctx context.Context, rn *runner.Runner, scale apps.Scale, procs int, ab Ablation) string {
	jobs := make([]runner.Job, len(ab.Points))
	for i, v := range ab.Points {
		cfg := mustCell("default", procs, scale, 0)
		ab.Mut(&cfg, v)
		jobs[i] = runner.Job{App: ab.App, Scale: scale, Proto: ab.Proto, Cfg: cfg}
	}
	results := rn.DoAll(ctx, jobs)

	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s\n", ab.Name)
	fmt.Fprintf(&b, "  %s under %s, %d procs, %s inputs\n", ab.App, ab.Proto, procs, scale)
	base := -1.0
	for i, v := range ab.Points {
		res := results[i]
		if err := res.Err(); err != nil {
			fmt.Fprintf(&b, "  %-14s failed: %v\n", ab.Label(v), err)
			continue
		}
		val := ab.Metric(res)
		rel := ""
		if base < 0 {
			base = val
		} else if base > 0 {
			rel = fmt.Sprintf("  (%+.1f%%)", 100*(val/base-1))
		}
		fmt.Fprintf(&b, "  %-14s %14.0f %s%s\n", ab.Label(v), val, ab.Unit, rel)
	}
	return b.String()
}
