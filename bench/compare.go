package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
)

// readRecords loads an -out file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Result == nil {
			return nil, fmt.Errorf("%s: a record without a result", path)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

type seriesKey struct{ workload, metric string }

// series groups every run's value by (workload, metric) and counts failures.
func series(recs []record) (map[seriesKey][]float64, int) {
	out := map[seriesKey][]float64{}
	failed := 0
	for _, r := range recs {
		failed += r.Result.Failed
		if !r.Result.Correct && r.Result.Failed == 0 {
			failed++
		}
		for name, m := range r.Result.Metrics {
			k := seriesKey{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out, failed
}

// spread is the distance between the quartiles as a share of the median —
// the acceptance rule's measure of how steady a metric is. One value has
// no spread.
func spread(v []float64) float64 {
	if len(v) < 2 || median(v) == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// compareFiles prints, per workload and metric, both medians, how much
// worse B is than A, the bound BENCHMARK.json sets, and a verdict:
//
//	agree       B's median is not worse than A's by more than the bound
//	unresolved  it is, but one side's own runs spread wider than the bound,
//	            and not every run of B is worse than every run of A
//	worse       it is, and the runs leave no such doubt
//
// Per-layer metrics have no bound and get no verdict. It fails on any
// "worse" and on any failed operation in either file.
func compareFiles(root, pathA, pathB string) error {
	decl, err := loadDeclared(root)
	if err != nil {
		return err
	}
	recsA, err := readRecords(pathA)
	if err != nil {
		return err
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		return err
	}
	a, failedA := series(recsA)
	b, failedB := series(recsB)

	bounds := map[string]declaredMetric{}
	for _, m := range decl.EndToEnd {
		bounds[m.Name] = m
	}
	better := map[string]string{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		better[m.Name] = m.Better
	}

	keys := make([]seriesKey, 0, len(a))
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		_, ei := bounds[keys[i].metric]
		_, ej := bounds[keys[j].metric]
		if ei != ej {
			return ei // end-to-end first
		}
		return keys[i].metric < keys[j].metric
	})

	fmt.Printf("%-14s %-30s %14s %14s %9s %7s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "worse by", "bound", "spread A", "spread B", "verdict")
	worse := 0
	for _, k := range keys {
		ma, mb := median(a[k]), median(b[k])
		// rel > 0 means B is worse than A.
		rel := 0.0
		if ma != 0 {
			rel = (mb - ma) / ma
			if better[k.metric] == "higher" {
				rel = -rel
			}
		} else if mb != 0 {
			rel = 1
		}
		sa, sb := spread(a[k]), spread(b[k])
		verdict, bound := "", ""
		if m, ok := bounds[k.metric]; ok {
			bound = fmt.Sprintf("%.1f%%", 100*m.Bound)
			switch {
			case rel <= m.Bound:
				verdict = "agree"
			case max(sa, sb) > m.Bound && !allWorse(a[k], b[k], m.Better):
				verdict = "unresolved"
			default:
				verdict = "worse"
				worse++
			}
		}
		fmt.Printf("%-14s %-30s %14.6g %14.6g %+8.2f%% %7s %7.2f%% %7.2f%%  %s\n",
			k.workload, k.metric, ma, mb, 100*rel, bound, 100*sa, 100*sb, verdict)
	}
	fmt.Printf("runs: A %d, B %d; failed operations: A %d, B %d\n", len(recsA), len(recsB), failedA, failedB)
	if failedA+failedB > 0 {
		return errors.New("a run has failed operations")
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics are worse in %s", worse, pathB)
	}
	return nil
}

// allWorse reports whether every run of B reads worse than every run of A.
func allWorse(a, b []float64, better string) bool {
	if better == "higher" {
		return slices.Max(b) < slices.Min(a)
	}
	return slices.Min(b) > slices.Max(a)
}
