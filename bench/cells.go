package main

import (
	"fmt"

	"lazyrc/internal/apps"
	"lazyrc/internal/exp"
	"lazyrc/internal/machine"
	"lazyrc/internal/runner"
)

// cellScale is the input scale of the three cell workloads. At medium a
// 64-processor fft/lrc cell costs about as much per event as the paper-scale
// cell the roadmap's targets are written for; at small it costs a third less,
// because heap, queue and modelled caches are all shallower.
const cellScale = apps.Medium

// cellJob materialises a cell exactly as paperbench does, so the benchmark
// times byte for byte the jobs a user runs: 64 processors, the default
// machine, the cache size that goes with the scale.
func cellJob(scale apps.Scale, app, proto string) runner.Job {
	return exp.NewEvaluator(scale, 64).Job("default", app, proto)
}

// cell runs one (application, protocol) cell over and over: bare through
// apps.Run, which is what lrcsim does, or observed through runner.Exec,
// which adds the telemetry, span digest and phase profiler every runner job
// pays for. A unit is one engine event; the modelled caches start empty.
type cell struct {
	app, proto string
	observed   bool

	e     *env
	job   runner.Job
	first *cellIdentity
}

// cellIdentity is everything two reps of a cell must agree on exactly.
type cellIdentity struct {
	cycles, events, msgs          uint64
	metrics, spans, mem, verified string
}

func (c *cell) setup(e *env) error {
	scale := cellScale
	if e.smoke {
		scale = apps.Tiny
	}
	c.e, c.first = e, nil
	c.job = cellJob(scale, c.app, c.proto)
	if _, err := apps.New(c.job.App, c.job.Scale); err != nil {
		return err
	}
	return c.job.Cfg.Validate()
}

func (c *cell) teardown() {}

func (c *cell) run(i int, tr *tracer) (rep, error) {
	root := tr.begin("rep", 0)
	defer tr.end(root)
	var id cellIdentity
	var r rep
	if c.observed {
		var res *runner.Result
		r.measured = measure(func() {
			tr.do("runner.exec", root, func() { res = runner.Exec(c.job) })
		})
		if res.Failed() || res.Perf == nil {
			return r, fmt.Errorf("runner.Exec: %s", res.Failure)
		}
		id = cellIdentity{res.ExecCycles, res.Perf.Events, res.Msgs,
			res.MetricsDigest, res.SpanDigest, res.MemDigest, res.VerifyErr}
		r.counts = map[string]float64{"causal.spans": float64(res.Spans)}
	} else {
		app, err := apps.New(c.job.App, c.job.Scale)
		if err != nil {
			return r, err
		}
		var m *machine.Machine
		var verr error
		r.measured = measure(func() { m, verr = runBare(c.job, app, tr, root) })
		if m == nil {
			return r, verr
		}
		msgs, _ := m.Net.Stats()
		id = cellIdentity{cycles: m.Stats.ExecutionTime(), events: m.Eng.Events(), msgs: msgs}
		var handoffs uint64 // resumptions of the processor contexts
		for _, n := range m.Nodes {
			handoffs += n.CPU.Progress()
		}
		r.counts = map[string]float64{
			"sim.handoffs":           float64(handoffs),
			"sim.handoffs_per_event": float64(handoffs) / float64(id.events),
		}
		if verr != nil {
			id.verified = verr.Error()
		}
	}
	c.e.check(id.verified == "", "%s/%s does not verify: %s", c.app, c.proto, id.verified)
	if c.first == nil {
		c.first = &id
	} else {
		c.e.check(id == *c.first, "rep %d differs from rep 0: %+v vs %+v", i, id, *c.first)
	}
	r.units, r.simWork = id.events, id.cycles
	r.counts["sim.events"] = float64(id.events)
	r.counts["mesh.msgs"] = float64(id.msgs)
	r.counts["mesh.msgs_per_event"] = float64(id.msgs) / float64(id.events)
	return r, nil
}

// runBare is apps.Run. The traced pass spells out its four steps to put a
// span around each, which shows work that moves between building the
// machine, the application's set-up, the run and the verification.
func runBare(j runner.Job, app apps.App, tr *tracer, parent int) (*machine.Machine, error) {
	if tr == nil {
		return apps.Run(j.Cfg, j.Proto, app)
	}
	var m *machine.Machine
	var err error
	tr.do("machine.new", parent, func() { m, err = machine.New(j.Cfg, j.Proto) })
	if err != nil {
		return nil, err
	}
	tr.do("apps.setup", parent, func() { app.Setup(m) })
	tr.do("machine.run", parent, func() { m.Run(app.Worker) })
	tr.do("apps.verify", parent, func() { err = app.Verify() })
	return m, err
}

func (c *cell) finish(bool) map[string]float64 { return nil }
