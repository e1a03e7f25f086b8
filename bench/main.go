// Command bench is the repository's benchmark of record. One invocation runs
// one workload for a fixed time, checks its outputs, and prints one JSON
// result line; see README.md for the workloads, the metrics and why each is
// here.
//
//	bash bench/run.sh --workload cell_bare --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh --workload all --out A.json        # every workload, collected
//	bash bench/run.sh --compare A.json B.json
//
// Every layer is measured from outside, by timing calls into its public
// functions; nothing in the simulator is instrumented for this benchmark.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// env is what a workload or a probe is given to work with.
type env struct {
	seed    uint64
	root    string // the checkout: BENCHMARK.json, BENCH_baseline.json
	dir     string // scratch directory for stores, inside the checkout
	workers int    // runner pool size of the sweeps, = GOMAXPROCS
	smoke   bool   // tiny inputs and budgets, for bench_test.go
	tally
}

// tally counts checked operations for the result line's attempted/failed.
type tally struct {
	attempted, failed int
}

// check counts one operation and reports a failed one on standard error.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// rep is what one timed unit of a workload reports.
type rep struct {
	measured
	units   uint64             // work units done: see each workload
	simWork uint64             // deterministic simulated total: cycles, or states for mc_explore
	counts  map[string]float64 // per-layer counts and shares seen from outside
}

// workload is one of the six. setup builds every input from scratch and is
// itself timed (setup_s), so it must be repeatable after teardown; run does
// one timed unit, recording spans into tr when tr is non-nil; finish makes
// the checks that need all reps and may add per-layer counts.
type workload interface {
	setup(e *env) error
	teardown()
	run(i int, tr *tracer) (rep, error)
	finish(traced bool) map[string]float64
}

type workloadInfo struct {
	name string
	make func() workload
}

// workloads lists the six in the order `-workload all` runs them. Their
// names are cited by later issues and must not change.
var workloads = []workloadInfo{
	{"cell_bare", func() workload { return &cell{app: "fft", proto: "lrc"} }},
	{"cell_frontend", func() workload { return &cell{app: "gauss", proto: "erc"} }},
	{"cell_observed", func() workload { return &cell{app: "fft", proto: "lrc", observed: true} }},
	{"sweep_cold", func() workload { return &sweepCold{} }},
	{"sweep_warm", func() workload { return &sweepWarm{} }},
	{"mc_explore", func() workload { return &mcExplore{} }},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// declared is BENCHMARK.json as far as this program needs it.
type declared struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDeclared(root string) (*declared, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// findRoot walks up from the working directory to the checkout root, which
// is where BENCHMARK.json lies: the driver starts the benchmark there, the
// test starts in bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	dir      string // where the scratch directory and the span file go; empty = <root>/.bench_build/tmp
}

// runWorkload is the whole of one invocation: set up, run timed units until
// the time is used up, check, and assemble the metrics. Human-readable
// progress goes to standard error.
func runWorkload(root string, o options) (*result, error) {
	var info *workloadInfo
	for i := range workloads {
		if workloads[i].name == o.workload {
			info = &workloads[i]
		}
	}
	if info == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	decl, err := loadDeclared(root)
	if err != nil {
		return nil, err
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	parent := o.dir
	if parent == "" {
		parent = filepath.Join(root, ".bench_build", "tmp")
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	e := &env{seed: o.seed, root: root, workers: procs, smoke: o.smoke}
	w := info.make()

	load0 := loadAvg1()
	defer func() {
		w.teardown()
		os.RemoveAll(e.dir)
	}()
	setups, spin, err := setUp(w, e, parent, o)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "# %s seed=%d seconds=%g trace=%t smoke=%t\n# nproc=%d GOMAXPROCS=%d %s dir=%s load1=%.2f host.spin_ns=%.4f\n",
		o.workload, o.seed, o.seconds, o.trace, o.smoke, runtime.NumCPU(), procs, runtime.Version(), e.dir, load0, spin)

	var tr *tracer
	if o.trace {
		tr = newTracer(o.workload)
	}
	reps, traced, err := runReps(w, tr, o)
	if err != nil {
		return nil, err
	}
	counts := w.finish(o.trace)
	// All reps of a workload do the same simulated work.
	for _, r := range reps[1:] {
		e.check(r.units == reps[0].units && r.simWork == reps[0].simWork,
			"reps disagree on simulated work: units %d vs %d, sim %d vs %d", r.units, reps[0].units, r.simWork, reps[0].simWork)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	res := &result{Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metricValue{}}
	res.Correct = e.failed == 0 && e.attempted > 0
	values := map[string]float64{}
	if !o.trace {
		var wall, perUnit, allocs, bytes []float64
		for _, r := range reps {
			wall = append(wall, r.wall.Seconds())
			perUnit = append(perUnit, float64(r.wall.Nanoseconds())/float64(r.units))
			allocs = append(allocs, float64(r.allocs)/float64(r.units))
			bytes = append(bytes, float64(r.bytes)/float64(r.units))
		}
		values["wall_s"] = median(wall)
		values["host_ns_per_unit"] = median(perUnit)
		values["allocs_per_unit"] = median(allocs)
		values["alloc_bytes_per_unit"] = median(bytes)
		values["peak_rss_mb"] = rss
		values["sim_work"] = float64(reps[0].simWork)
		values["setup_s"] = median(durationsSec(setups))
		fmt.Fprintf(os.Stderr, "wall_s: median %.4f max %.4f n=%d; setup_s: median %.6f max %.6f n=%d\n",
			median(wall), slices.Max(wall), len(wall), median(durationsSec(setups)), slices.Max(durationsSec(setups)), len(setups))
		err = fill(res, values, decl.EndToEnd, false)
	} else {
		for k, v := range counts {
			values[k] = v
		}
		for _, r := range reps {
			for k, v := range r.counts {
				values[k] = v // deterministic per workload: the last rep speaks for all
			}
		}
		traceMetrics(values, tr, reps, traced)
		if err := runProbes(e, values); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		values["host.spin_ns"] = spin
		values["host.peak_rss_mb"] = rss
		path := filepath.Join(parent, o.workload+".spans.jsonl")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(tr.spans), path)
		err = fill(res, values, decl.PerLayer, true)
	}
	if err != nil {
		return nil, err
	}
	printTable(res)
	fmt.Fprintf(os.Stderr, "# load1 at end %.2f (start %.2f); attempted %d failed %d\n", loadAvg1(), load0, res.Attempted, res.Failed)
	return res, nil
}

// setUp does everything that comes before the first timed call — the host
// calibration, the scratch directory, the workload's own set-up — and does
// it several times over, so that the median is steady: at least three
// rounds, and until 0.2 s have gone into them. The last round is left
// standing. It returns each round's time and the median calibration.
func setUp(w workload, e *env, parent string, o options) ([]time.Duration, float64, error) {
	var rounds []time.Duration
	var spins []float64
	for spent := time.Duration(0); len(rounds) < 3 || (spent < 200*time.Millisecond && len(rounds) < 15); {
		if len(rounds) > 0 {
			w.teardown()
			os.RemoveAll(e.dir)
		}
		t := time.Now()
		spins = append(spins, spinNS())
		var err error
		if e.dir, err = os.MkdirTemp(parent, o.workload+"-"); err != nil {
			return nil, 0, err
		}
		if err := w.setup(e); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t)
		rounds = append(rounds, d)
		spent += d
		if o.smoke {
			break
		}
	}
	return rounds, median(spins), nil
}

// runReps runs timed units until the time is used up: at least three, and
// no further one once the median rep no longer fits. In the traced pass
// every second rep is untraced, so that the cost of tracing is measured
// inside the run that pays it.
func runReps(w workload, tr *tracer, o options) (reps []rep, traced []bool, err error) {
	minReps := 3
	if tr != nil {
		minReps = 4
	}
	if o.smoke {
		minReps -= 2
	}
	start := time.Now()
	for i := 0; ; i++ {
		if i >= minReps {
			var walls []float64
			for _, r := range reps {
				walls = append(walls, r.wall.Seconds())
			}
			if o.smoke || time.Since(start).Seconds()+median(walls) > o.seconds {
				return reps, traced, nil
			}
		}
		use := tr
		if i%2 == 0 {
			use = nil
		}
		if use != nil {
			use.rep = i
		}
		r, err := w.run(i, use)
		if err != nil {
			return nil, nil, fmt.Errorf("rep %d: %w", i, err)
		}
		reps = append(reps, r)
		traced = append(traced, use != nil)
		fmt.Fprintf(os.Stderr, "rep %d: wall %.4fs units %d allocs %d bytes %d sim %d traced=%t\n",
			i, r.wall.Seconds(), r.units, r.allocs, r.bytes, r.simWork, use != nil)
	}
}

// traceMetrics derives the traced pass's own numbers: what tracing cost,
// and where each traced rep's wall time went, as shares per span name.
func traceMetrics(values map[string]float64, tr *tracer, reps []rep, traced []bool) {
	var on, off []float64
	var tracedNS int64
	for i, r := range reps {
		if traced[i] {
			on = append(on, r.wall.Seconds())
			tracedNS += r.wall.Nanoseconds()
		} else {
			off = append(off, r.wall.Seconds())
		}
	}
	values["trace.wall_s"] = median(on)
	values["trace.overhead_pct"] = 100 * (median(on)/median(off) - 1)
	values["trace.spans"] = float64(len(tr.spans))
	var sum int64
	for name, ns := range tr.selfTimes() {
		values["self_pct."+name] = 100 * float64(ns) / float64(tracedNS)
		sum += ns
	}
	values["trace.self_coverage_pct"] = 100 * float64(sum) / float64(tracedNS)
}

// fill copies the declared metrics out of values, with their declared
// units. A per-layer count or share that a workload does not reach reads 0
// (sparse); a value nobody declared, or a declared value nobody measured
// otherwise, is an error, so the program and BENCHMARK.json cannot drift
// apart.
func fill(res *result, values map[string]float64, decl []declaredMetric, sparse bool) error {
	known := map[string]bool{}
	for _, d := range decl {
		known[d.Name] = true
		v, ok := values[d.Name]
		if !ok && !sparse {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.Name)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	for name := range values {
		if !known[name] {
			return fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

func printTable(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-32s %16s %s\n", n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
}

// record is one line of an -out file: a result with what produced it.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a process of its own, so that peak_rss_mb
// and the heap each starts from are the workload's alone.
func runAll(o options, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		if o.smoke {
			args = append(args, "-smoke")
		}
		if o.dir != "" {
			args = append(args, "-dir", o.dir)
		}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}

func main() {
	var o options
	var trace int
	var out string
	var compare bool
	flag.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all (one process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs: sweep seeds and the warm-spec shuffle")
	flag.Float64Var(&o.seconds, "seconds", 0, "how long to measure (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1: the traced pass, which prints the per-layer metrics and writes spans")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny inputs, one rep: checks that the benchmark runs, measures nothing")
	flag.StringVar(&o.dir, "dir", "", "where the scratch directory for stores and the traced pass's <workload>.spans.jsonl go (default .bench_build/tmp in the checkout)")
	flag.StringVar(&out, "out", "", "append the result, with workload and seed, to this file, for -compare")
	flag.BoolVar(&compare, "compare", false, "compare two -out files given as arguments: A.json B.json")
	flag.Parse()
	o.trace = trace == 1

	if err := func() error {
		root, err := findRoot()
		if err != nil {
			return err
		}
		if compare {
			if flag.NArg() != 2 {
				return errors.New("-compare takes two files")
			}
			return compareFiles(root, flag.Arg(0), flag.Arg(1))
		}
		if o.seconds == 0 {
			decl, err := loadDeclared(root)
			if err != nil {
				return err
			}
			o.seconds = float64(decl.RunSeconds)
		}
		if o.workload == "all" {
			return runAll(o, out)
		}
		res, err := runWorkload(root, o)
		if err != nil {
			return err
		}
		if out != "" {
			if err := appendRecord(out, record{o.workload, o.seed, o.trace, res}); err != nil {
				return err
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}
