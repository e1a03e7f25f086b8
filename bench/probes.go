package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"lazyrc"
	"lazyrc/internal/apps"
	"lazyrc/internal/bus"
	"lazyrc/internal/config"
	"lazyrc/internal/exp"
	"lazyrc/internal/machine"
	"lazyrc/internal/mc"
	"lazyrc/internal/mesh"
	"lazyrc/internal/runner"
	"lazyrc/internal/sim"
	"lazyrc/internal/store"
)

// The probes time each layer alone, from outside, through its public
// functions. They are the same whichever workload the traced pass runs, and
// they are sized to take a few seconds together; README.md says which
// end-to-end metric each is expected to move, on which workload.

// probe is one layer's measurement: it adds its metrics to values.
type probe struct {
	name string
	run  func(e *env, values map[string]float64) error
}

var probes = []probe{
	{"sim", probeSim},
	{"mesh", probeMesh},
	{"machine", probeMachine},
	{"observers", probeObservers},
	{"runner+store", probeRunnerStore},
	{"exp", probeExp},
	{"bus", probeBus},
	{"mc", probeMC},
}

func runProbes(e *env, values map[string]float64) error {
	for _, p := range probes {
		t := time.Now()
		if err := p.run(e, values); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		fmt.Fprintf(os.Stderr, "probe %-13s %.2fs\n", p.name, time.Since(t).Seconds())
	}
	return nil
}

// scaled shrinks a probe's iteration count for the smoke test.
func (e *env) scaled(n int) int {
	if e.smoke {
		return max(n/20, 2)
	}
	return n
}

// medianOf runs fn rounds times and returns the median of what it returns.
func medianOf(rounds int, fn func() float64) float64 {
	v := make([]float64, rounds)
	for i := range v {
		v[i] = fn()
	}
	return median(v)
}

// nsPer is the wall time of fn in nanoseconds, per one of n operations.
func nsPer(n int, fn func()) float64 {
	t := time.Now()
	fn()
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}

func probeSim(e *env, values map[string]float64) error {
	// Queue: a standing population of 1024 no-op events, each rescheduling
	// itself 1024 cycles on until n have run — At and Run, nothing else.
	n := e.scaled(200_000)
	var allocs float64
	values["sim.queue_ns_per_event"] = medianOf(3, func() float64 {
		eng := sim.NewEngine()
		left := n
		var tick func()
		tick = func() {
			if left--; left >= 1024 {
				eng.After(1024, tick)
			}
		}
		for i := 0; i < 1024; i++ {
			eng.At(sim.Time(i), tick)
		}
		m := measure(eng.Run)
		allocs = float64(m.allocs) / float64(eng.Events())
		return float64(m.wall.Nanoseconds()) / float64(eng.Events())
	})
	values["sim.queue_allocs_per_event"] = allocs

	// Handoff: 64 contexts that do nothing but Sleep(1), so every event is
	// one engine→context→engine round trip.
	rounds := e.scaled(500)
	values["sim.handoff_ns"] = medianOf(3, func() float64 {
		eng := sim.NewEngine()
		for i := 0; i < 64; i++ {
			eng.Spawn("probe", func(c *sim.Context) {
				for r := 0; r < rounds; r++ {
					c.Sleep(1)
				}
			})
		}
		return nsPer(64*rounds, eng.Run)
	})

	// Chooser: instants of 8 tied events under a chooser that always takes
	// the first, the model checker's way through the queue.
	instants := e.scaled(10_000)
	values["sim.chooser_ns_per_choice"] = medianOf(3, func() float64 {
		eng := sim.NewEngine()
		ch := &firstChooser{}
		eng.SetChooser(ch)
		for t := 0; t < instants; t++ {
			for k := 0; k < 8; k++ {
				eng.At(sim.Time(t), func() {})
			}
		}
		wall := nsPer(1, eng.Run)
		return wall / float64(ch.choices)
	})
	return nil
}

type firstChooser struct{ choices int }

func (c *firstChooser) Choose(int) int { c.choices++; return 0 }

func probeMesh(e *env, values map[string]float64) error {
	// 64 messages in flight on the 8×8 mesh; each delivery sends the next.
	n := e.scaled(200_000)
	var ferr error
	values["mesh.send_ns"] = medianOf(3, func() float64 {
		eng := sim.NewEngine()
		net := mesh.New(eng, config.Default(64))
		sent := 0
		for i := 0; i < 64; i++ {
			net.Handle(i, func(m mesh.Msg) {
				if sent < n {
					sent++
					net.Send(mesh.Msg{Src: m.Dst, Dst: (m.Dst*7 + 3) % 64, Size: 128 * (sent % 2)})
				}
			})
		}
		if err := net.Finalize(); err != nil {
			ferr = err
			return 0
		}
		for i := 0; i < 64; i++ {
			sent++
			net.Send(mesh.Msg{Src: i, Dst: (i*7 + 3) % 64})
		}
		return nsPer(n, eng.Run)
	})
	return ferr
}

func probeMachine(e *env, values map[string]float64) error {
	// first keeps the first error of the measurements below; each of them
	// reads 0 once something has failed, and the probe then fails as a whole.
	var first error
	fail := func(err error) float64 {
		if first == nil {
			first = err
		}
		return 0
	}

	job := cellJob(cellScale, "fft", "lrc")
	values["machine.new_ms_64p"] = medianOf(5, func() float64 {
		return nsPer(1, func() {
			if _, err := machine.New(job.Cfg, job.Proto); err != nil {
				fail(err)
			}
		}) / 1e6
	})
	var m4 *machine.Machine
	values["machine.new_us_4p"] = medianOf(e.scaled(100), func() float64 {
		return nsPer(1, func() {
			var err error
			if m4, err = machine.New(config.Default(4), "lrc"); err != nil {
				fail(err)
			}
		}) / 1e3
	})
	if first != nil {
		return first
	}
	hashes := e.scaled(2000)
	values["machine.statehash_us"] = nsPer(hashes, func() {
		for i := 0; i < hashes; i++ {
			m4.StateHash()
		}
	}) / 1e3

	// Cache hits: every processor reads one word of its own, over and over.
	reads := e.scaled(200_000)
	values["machine.hit_ns"] = medianOf(3, func() float64 {
		m, err := lazyrc.NewMachine(lazyrc.DefaultConfig(4), "lrc")
		if err != nil {
			return fail(err)
		}
		a := m.AllocF64(4 * 16) // one 128-byte line each
		return nsPer(4*reads, func() {
			m.Run(func(p *lazyrc.Proc) {
				at := a.At(16 * p.ID())
				for i := 0; i < reads; i++ {
					p.ReadF64(at)
				}
			})
		})
	})

	// Misses: 16 processors, each walking its own array four times the size
	// of its cache a line at a time, reading and writing the first word of
	// every line. Pages are interleaved over the nodes, so 15 of 16 misses
	// go to a remote home. This is where protocol, directory, cache and the
	// node bus are timed: none of them can be called alone.
	for _, proto := range []string{"lrc", "erc"} {
		cfg := lazyrc.DefaultConfig(16)
		cfg.CacheSize = 8 << 10
		m, err := lazyrc.NewMachine(cfg, proto)
		if err != nil {
			return err
		}
		perLine := cfg.LineSize / 8
		lines := 4 * cfg.CacheSize / cfg.LineSize
		passes := e.scaled(4)
		arrays := make([]lazyrc.F64, 16)
		for i := range arrays {
			arrays[i] = m.AllocF64(lines * perLine)
		}
		misses := 16 * lines * passes
		values["machine.miss_ns."+proto] = nsPer(misses, func() {
			m.Run(func(p *lazyrc.Proc) {
				a := arrays[p.ID()]
				for pass := 0; pass < passes; pass++ {
					for l := 0; l < lines; l++ {
						at := a.At(l * perLine)
						p.WriteF64(at, p.ReadF64(at)+1)
					}
				}
			})
		})
		values["machine.events_per_miss."+proto] = float64(m.Eng.Events()) / float64(misses)
		if got := arrays[15].Peek(0); got != float64(passes) {
			return fmt.Errorf("miss probe on %s computed %v, want %d", proto, got, passes)
		}
	}

	// One lock, 16 processors incrementing a counter under it.
	turns := e.scaled(200)
	values["machine.lock_ns"] = medianOf(3, func() float64 {
		m, err := lazyrc.NewMachine(lazyrc.DefaultConfig(16), "lrc")
		if err != nil {
			return fail(err)
		}
		counter, lock := m.AllocI64(1), m.NewLock()
		ns := nsPer(16*turns, func() {
			m.Run(func(p *lazyrc.Proc) {
				for i := 0; i < turns; i++ {
					p.Acquire(lock)
					p.WriteI64(counter.At(0), p.ReadI64(counter.At(0))+1)
					p.Release(lock)
				}
			})
		})
		if got := counter.Peek(0); got != int64(16*turns) {
			fail(fmt.Errorf("lock probe counted %d, want %d", got, 16*turns))
		}
		return ns
	})
	return first
}

// probeObservers runs the cell_bare job at small scale bare and with each
// observer of runner.Exec enabled alone; an observer's tax is the wall time
// it adds, per engine event.
func probeObservers(e *env, values map[string]float64) error {
	scale := apps.Small
	if e.smoke {
		scale = apps.Tiny
	}
	job := cellJob(scale, "fft", "lrc")
	var events uint64
	var digestMS, spans float64
	run := func(observe func(*machine.Machine)) (float64, error) {
		app, err := apps.New(job.App, job.Scale)
		if err != nil {
			return 0, err
		}
		m, err := machine.New(job.Cfg, job.Proto)
		if err != nil {
			return 0, err
		}
		t := time.Now()
		if observe != nil {
			observe(m)
		}
		app.Setup(m)
		m.Run(app.Worker)
		if err := app.Verify(); err != nil {
			return 0, err
		}
		if m.Tel != nil {
			td := time.Now()
			m.Tel.Digest()
			digestMS = float64(time.Since(td).Nanoseconds()) / 1e6
		}
		wall := float64(time.Since(t).Nanoseconds())
		events = m.Eng.Events()
		if m.Causal != nil {
			spans = float64(m.Causal.Count())
		}
		return wall, nil
	}
	observers := []struct {
		metric  string
		observe func(*machine.Machine)
	}{
		{"", nil},
		{"telemetry.tax_ns_per_event", func(m *machine.Machine) { m.EnableMetrics(4096) }},
		{"causal.tax_ns_per_event", func(m *machine.Machine) { m.EnableSpans(false, 0) }},
		{"perf.tax_ns_per_event", func(m *machine.Machine) { m.EnablePerf() }},
	}
	// Two rounds over the four variants; the medians cancel a slow spell
	// that hits one variant only.
	walls := make([][]float64, len(observers))
	for round := 0; round < 2; round++ {
		for i, o := range observers {
			w, err := run(o.observe)
			if err != nil {
				return err
			}
			walls[i] = append(walls[i], w)
		}
	}
	bare := median(walls[0])
	for i, o := range observers[1:] {
		values[o.metric] = (median(walls[i+1]) - bare) / float64(events)
	}
	values["telemetry.digest_ms"] = digestMS
	values["causal.spans_per_event"] = spans / float64(events)
	return nil
}

func probeRunnerStore(e *env, values map[string]float64) error {
	ctx := context.Background()
	job := exp.NewEvaluator(apps.Tiny, 4).Job("default", "gauss", "lrc")
	values["runner.fingerprint_us"] = nsPer(1000, func() {
		for i := 0; i < 1000; i++ {
			job.Fingerprint()
		}
	}) / 1e3

	// Runner.Do on a fresh job against runner.Exec on the same job: what the
	// pool, the memo and the event emission add. A new seed is a new job.
	rn := runner.New(1, nil)
	var res *runner.Result
	rounds := e.scaled(15)
	fresh := func(i int) runner.Job { j := job; j.Cfg.Seed = uint64(i + 1); return j }
	i := 0
	do := medianOf(rounds, func() float64 { i++; return nsPer(1, func() { res = rn.Do(ctx, fresh(i)) }) })
	exec := medianOf(rounds, func() float64 { i++; return nsPer(1, func() { runner.Exec(fresh(i)) }) })
	if err := res.Err(); err != nil {
		return err
	}
	values["runner.exec_overhead_ms"] = (do - exec) / 1e6
	values["runner.memo_hit_us"] = nsPer(1000, func() {
		for k := 0; k < 1000; k++ {
			rn.Do(ctx, fresh(i))
		}
	}) / 1e3

	// Store: 70 records, the size of the baseline matrix.
	dir, err := os.MkdirTemp(e.dir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	const records = 70
	fps := make([]string, records)
	put := make([]float64, records)
	for k := range fps {
		r := *res
		r.Fingerprint = fmt.Sprintf("%s%04d", res.Fingerprint[:60], k)
		fps[k] = r.Fingerprint
		put[k] = nsPer(1, func() { err = st.Put(&r) })
		if err != nil {
			return err
		}
	}
	values["store.put_us"] = median(put) / 1e3
	values["store.bytes_per_result"] = float64(st.Stats().TotalBytes) / records
	get := make([]float64, records)
	for k, fp := range fps {
		get[k] = nsPer(1, func() {
			if _, ok := st.Get(fp); !ok {
				err = fmt.Errorf("store lost %s", fp)
			}
		})
	}
	if err != nil {
		return err
	}
	values["store.get_us"] = median(get) / 1e3
	if err := st.Close(); err != nil {
		return err
	}
	values["store.open_ms"] = medianOf(5, func() float64 {
		return nsPer(1, func() {
			if st, err = store.Open(dir); err == nil {
				err = st.Close()
			}
		}) / 1e6
	})
	if err != nil {
		return err
	}

	// The sweep registry is rewritten and fsynced on every submit.
	if st, err = store.Open(dir); err != nil {
		return err
	}
	spec, err := json.Marshal(exp.Spec{Targets: []string{"fig4", "fig6"}, Scale: "tiny", Procs: 64, Seed: 1})
	if err != nil {
		return err
	}
	for _, n := range []int{10, 100, 1000} {
		specs := make([]json.RawMessage, n)
		for k := range specs {
			specs[k] = spec
		}
		values[fmt.Sprintf("store.save_sweeps_us.%d", n)] = medianOf(5, func() float64 {
			return nsPer(1, func() {
				if e2 := st.SaveSweeps(specs); e2 != nil {
					err = e2
				}
			}) / 1e3
		})
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}

func probeExp(e *env, values map[string]float64) error {
	var err error
	values["exp.spec_jobs_us"] = medianOf(e.scaled(40), func() float64 {
		return nsPer(1, func() {
			var spec exp.Spec
			if spec, err = (exp.Spec{Targets: []string{"all"}, Scale: "tiny", Procs: 64, Seed: 1}).Normalize(); err == nil {
				_, err = spec.Jobs()
			}
		}) / 1e3
	})
	if err != nil {
		return err
	}
	// The committed baseline is a 70-cell report.
	report, err := exp.LoadReport(filepath.Join(e.root, "BENCH_baseline.json"))
	if err != nil {
		return err
	}
	values["exp.render_json_ms"] = medianOf(e.scaled(40), func() float64 {
		return nsPer(1, func() { err = exp.WriteReportJSON(io.Discard, report) }) / 1e6
	})
	if err != nil {
		return err
	}
	values["exp.render_html_ms"] = medianOf(e.scaled(40), func() float64 {
		return nsPer(1, func() { err = exp.WriteHTML(io.Discard, report) }) / 1e6
	})
	return err
}

func probeBus(e *env, values map[string]float64) error {
	b := bus.New[runner.Event]()
	// Room for a burst while the reader is descheduled; a drop would only
	// shorten the publish path being timed.
	sub := b.Subscribe(1024)
	drained := make(chan struct{})
	go func() {
		for range sub.C() {
		}
		close(drained)
	}()
	n := e.scaled(200_000)
	values["bus.publish_ns"] = nsPer(n, func() {
		for i := 0; i < n; i++ {
			b.Publish(runner.Event{Seq: uint64(i), Kind: runner.EventHeartbeat})
		}
	})
	b.Close()
	<-drained
	return nil
}

func probeMC(e *env, values map[string]float64) error {
	tests := mc.Tests()
	var err error
	rc := mc.DefaultExplore("lrc").RunConfig
	values["mc.run_once_us"] = medianOf(e.scaled(200), func() float64 {
		return nsPer(1, func() { _, err = mc.RunOnce(tests[0], rc, nil) }) / 1e3
	})
	if err != nil {
		return err
	}
	values["mc.sc_oracle_ms"] = medianOf(3, func() float64 {
		return nsPer(1, func() {
			for _, t := range tests {
				if _, e2 := mc.SCOutcomes(t); e2 != nil {
					err = e2
				}
			}
		}) / 1e6
	})
	return err
}
